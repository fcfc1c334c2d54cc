package main

import (
	"bytes"
	"context"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/cliutil"
)

var update = flag.Bool("update", false, "rewrite the testdata goldens from this build")

// invoke runs traceview in process and maps its error as main does.
func invoke(ctx context.Context, args ...string) (stdout, stderr string, code int) {
	var out, errb bytes.Buffer
	code = cliutil.ExitCode("traceview", run(ctx, args, &out, &errb), &errb)
	return out.String(), errb.String(), code
}

// golden compares got with testdata/name; -update rewrites the file
// first.
func golden(t *testing.T, name, got string) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *update {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Errorf("%s differs:\n--- got\n%s--- want\n%s", path, got, want)
	}
}

// lastLine returns the last line of s without its newline.
func lastLine(s string) string {
	s = strings.TrimSuffix(s, "\n")
	return s[strings.LastIndex(s, "\n")+1:]
}

func TestGoldens(t *testing.T) {
	for _, c := range []struct {
		golden string
		args   []string
	}{
		{"trace", []string{"-strategy", "Ordered-Daly", "-days", "1"}},
		{"summary", []string{"-strategy", "Ordered-Daly", "-days", "1", "-summary"}},
	} {
		t.Run(strings.Join(c.args, " "), func(t *testing.T) {
			stdout, stderr, code := invoke(context.Background(), c.args...)
			if code != 0 {
				t.Fatalf("exit %d: %s", code, stderr)
			}
			golden(t, c.golden+".stdout", stdout)
			golden(t, c.golden+".stderr", stderr)
		})
	}
}

// TestExitCodes pins each exit status and the final stderr line that
// goes with it.
func TestExitCodes(t *testing.T) {
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	usage := "    \tprint build information and exit"
	for _, c := range []struct {
		ctx  context.Context
		args []string
		code int
		last string
	}{
		{nil, []string{"-days", "1", "-summary"}, 0, ""},
		{nil, []string{"-h"}, 0, usage},
		{nil, []string{"-version"}, 0, ""},
		{nil, []string{"-nope"}, 2, usage},
		{nil, []string{"-strategy", "Nope"}, 2, `traceview: unknown strategy "Nope"`},
		{nil, []string{"-platform", "vax"}, 2, `traceview: unknown platform "vax" (cielo or prospective)`},
		{nil, []string{"-days", "0.0001"}, 1,
			"traceview: engine: warmup 0.25 + cooldown 0.25 days leave no measurement window in 0.0001 days"},
		{cancelled, []string{"-days", "1"}, 130, "traceview: interrupted (context canceled); partial output flushed"},
	} {
		t.Run(strings.Join(c.args, " "), func(t *testing.T) {
			ctx := c.ctx
			if ctx == nil {
				ctx = context.Background()
			}
			stdout, stderr, code := invoke(ctx, c.args...)
			if code != c.code || lastLine(stderr) != c.last {
				t.Fatalf("exit %d, last stderr line %q; want %d, %q", code, lastLine(stderr), c.code, c.last)
			}
			if c.args[0] == "-version" && !strings.HasPrefix(stdout, "traceview ") {
				t.Fatalf("-version printed %q", stdout)
			}
		})
	}
}

// cancelOnWrite is a stdout that cancels the run at its first write:
// a ^C arriving mid-simulation.
type cancelOnWrite struct {
	bytes.Buffer
	cancel context.CancelFunc
}

func (w *cancelOnWrite) Write(p []byte) (int, error) {
	w.cancel()
	return w.Buffer.Write(p)
}

// TestInterruptMidRun: a single replicate does not observe ctx once it
// runs, yet a ^C mid-simulation still ends traceview at once, with the
// rows written so far flushed.
func TestInterruptMidRun(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	stdout := &cancelOnWrite{cancel: cancel}
	var stderr bytes.Buffer
	code := cliutil.ExitCode("traceview", run(ctx, []string{"-days", "300"}, stdout, &stderr), &stderr)
	if want := "traceview: interrupted (context canceled); partial output flushed"; code != 130 || lastLine(stderr.String()) != want {
		t.Fatalf("exit %d, last stderr line %q; want 130, %q", code, lastLine(stderr.String()), want)
	}
	// The whole 300-day trace runs to megabytes; no row is written
	// after the ^C, which came with the first buffer's flush.
	if n := stdout.Len(); n == 0 || n > 2*4096 {
		t.Fatalf("interrupted run wrote %d bytes of trace", n)
	}
	if !strings.HasPrefix(stdout.String(), "time_s,kind,job,class,note\n") || !strings.HasSuffix(stdout.String(), "\n") {
		t.Fatalf("interrupted trace is not whole rows:\n%.200s", stdout.String())
	}
}
