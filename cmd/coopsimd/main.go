// Command coopsimd is the long-running simulation service: the warm,
// cancellable driver.Session exposed as a multi-tenant daemon. Sweep
// campaigns are submitted over HTTP/JSON, stream per-point results as
// NDJSON while they run, and persist journals under -data-dir so a
// killed daemon resumes interrupted campaigns at the next boot. See
// docs/API.md for the endpoint reference.
//
// Usage:
//
//	coopsimd -addr :8080 -data-dir /var/lib/coopsimd \
//	    -max-campaigns 2 -queue 8 -cache-dir /var/cache/coopsimd
package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"time"

	"repro/internal/cliutil"
	"repro/internal/server"
)

func main() { cliutil.Main("coopsimd", run) }

func run(ctx context.Context, args []string, stdout, stderr io.Writer) error {
	fs := cliutil.NewFlagSet("coopsimd", stderr)
	addr := fs.String("addr", "127.0.0.1:8080",
		"listen address; use :0 for an ephemeral port (the actual address is printed on stdout)")
	dataDir := fs.String("data-dir", "",
		"directory for campaign specs and journals; campaigns interrupted by a crash or SIGTERM resume from here at boot (empty = in-memory only, no durability)")
	maxCampaigns := fs.Int("max-campaigns", 2,
		"campaigns simulated concurrently; further admissions queue")
	queueDepth := fs.Int("queue", 8,
		"queued campaigns beyond the concurrent limit before submissions are rejected with 429")
	workers := fs.Int("workers", 0,
		"Monte-Carlo workers per campaign (0 = one per CPU)")
	drainTimeout := fs.Duration("drain-timeout", 30*time.Second,
		"how long a SIGTERM waits for campaigns to seal journals and flush streams before exiting anyway")
	cacheFlags := cliutil.AddCacheFlags(fs)
	if stop, err := cliutil.ParseFlags(fs, args, stdout); stop {
		return err
	}

	cache, err := cacheFlags.Open()
	if err != nil {
		return err
	}

	opts := server.Options{
		DataDir:       *dataDir,
		MaxConcurrent: *maxCampaigns,
		MaxQueue:      *queueDepth,
		Workers:       *workers,
		Version:       cliutil.Version(),
	}
	if cache != nil {
		opts.Cache = cache
	}
	srv, err := server.New(opts)
	if err != nil {
		return err
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	// Print the bound address so scripts using -addr :0 can find us.
	fmt.Fprintf(stdout, "coopsimd: listening on http://%s\n", ln.Addr())

	// Slow or idle clients must not pin connections forever. There is no
	// read or write timeout on whole requests: result streams are
	// long-lived by design, and submissions are bounded in size by the
	// server itself.
	httpSrv := &http.Server{
		Handler:           srv.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
		IdleTimeout:       2 * time.Minute,
	}
	serveErr := make(chan error, 1)
	go func() { serveErr <- httpSrv.Serve(ln) }()

	// SIGTERM/SIGINT drains: refuse new work, cancel campaigns (their
	// journals stay for resume at next boot), flush streams, exit 0.
	select {
	case <-ctx.Done():
	case err := <-serveErr:
		return err
	}
	fmt.Fprintln(stderr, "coopsimd: draining...")
	drainCtx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	drained := srv.Shutdown(drainCtx)
	if err := httpSrv.Shutdown(drainCtx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		fmt.Fprintf(stderr, "coopsimd: http shutdown: %v\n", err)
	}
	cliutil.ReportCacheStats(stderr, "coopsimd", cache)
	if drained != nil {
		return drained
	}
	fmt.Fprintln(stderr, "coopsimd: drained cleanly")
	return nil
}
