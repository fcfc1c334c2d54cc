// Command traceview runs one simulation and dumps its event trace as CSV,
// for debugging scheduling behaviour and for building timelines of the
// cooperative scheduler's decisions.
//
// Examples:
//
//	traceview -strategy Least-Waste -days 2 | head -50
//	traceview -bw 40 -mtbf 2 -kinds ckpt-grant,ckpt-commit > grants.csv
//	traceview -summary            # per-kind event counts only
package main

import (
	"bufio"
	"context"
	"fmt"
	"io"
	"sort"
	"strings"
	"sync"

	"repro"
	"repro/internal/cliutil"
)

func main() { cliutil.Main("traceview", run) }

func run(ctx context.Context, args []string, stdout, stderr io.Writer) error {
	fs := cliutil.NewFlagSet("traceview", stderr)
	var (
		platformName = fs.String("platform", "cielo", "platform: cielo or prospective")
		bw           = fs.Float64("bw", 40, "aggregated PFS bandwidth in GB/s")
		mtbf         = fs.Float64("mtbf", 2, "node MTBF in years")
		strategyName = fs.String("strategy", "Least-Waste", "strategy name")
		seed         = fs.Uint64("seed", 1, "random seed")
		days         = fs.Float64("days", 2, "simulated days")
		kinds        = fs.String("kinds", "", "comma-separated event kinds to keep (default all)")
		summary      = fs.Bool("summary", false, "print per-kind counts instead of the trace")
		limit        = fs.Int("limit", 0, "stop after this many trace rows (0 = unlimited)")
	)
	if stop, err := cliutil.ParseFlags(fs, args, stdout); stop {
		return err
	}

	p, err := cliutil.Platform(*platformName, *bw, *mtbf)
	if err != nil {
		return cliutil.UsageError(err)
	}
	strat, ok := repro.StrategyByName(*strategyName)
	if !ok {
		return cliutil.UsageError(fmt.Errorf("unknown strategy %q", *strategyName))
	}

	keep := map[string]bool{}
	for _, k := range strings.Split(*kinds, ",") {
		if k = strings.TrimSpace(k); k != "" {
			keep[k] = true
		}
	}

	out := bufio.NewWriter(stdout)
	defer out.Flush()

	// The simulation runs on its own goroutine, and run returns at the
	// first ^C without waiting for it: a single replicate does not
	// observe ctx once it has started. Rows are written under mu and only
	// before the ^C, so the abandoned simulation writes nothing past the
	// final flush.
	var mu sync.Mutex
	counts := map[string]int{}
	rows := 0
	cfg := repro.Config{
		Platform:    p,
		Classes:     repro.APEXClasses(),
		Strategy:    strat,
		Seed:        *seed,
		HorizonDays: *days,
		// Keep generation proportional to the short horizon.
		Gen: repro.GenConfig{MinDays: *days, Buffer: 1.15, ShareTol: 0.05},
		Trace: func(ev repro.TraceEvent) {
			counts[ev.Kind]++
			if *summary || len(keep) > 0 && !keep[ev.Kind] || *limit > 0 && rows >= *limit {
				return
			}
			rows++
			mu.Lock()
			defer mu.Unlock()
			if ctx.Err() == nil {
				fmt.Fprintf(out, "%.3f,%s,%d,%s,%q\n", ev.Time, ev.Kind, ev.Job, ev.Class, ev.Note)
			}
		},
	}
	if *days <= 2 {
		cfg.WarmupDays, cfg.CooldownDays = 0.25, 0.25
	}

	if !*summary {
		fmt.Fprintln(out, "time_s,kind,job,class,note")
	}
	var res repro.Result
	done := make(chan error, 1)
	go func() {
		var err error
		res, err = repro.NewSession(repro.WithWorkers(1)).Run(ctx, cfg)
		done <- err
	}()
	select {
	case err := <-done:
		if err != nil {
			return err
		}
	case <-ctx.Done():
		// Wait out a row being written; no later one is.
		mu.Lock()
		defer mu.Unlock()
		return ctx.Err()
	}
	if *summary {
		kindNames := make([]string, 0, len(counts))
		for k := range counts {
			kindNames = append(kindNames, k)
		}
		sort.Strings(kindNames)
		for _, k := range kindNames {
			fmt.Fprintf(out, "%-16s %8d\n", k, counts[k])
		}
		fmt.Fprintf(out, "%-16s %8.3f\n", "waste-ratio", res.WasteRatio)
	}
	return nil
}
