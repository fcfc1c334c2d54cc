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

// invoke runs lowerbound in process and maps its error as main does.
func invoke(ctx context.Context, args ...string) (stdout, stderr string, code int) {
	var out, errb bytes.Buffer
	code = cliutil.ExitCode("lowerbound", run(ctx, args, &out, &errb), &errb)
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
		{"point", []string{"-bw", "40", "-mtbf", "2"}},
		{"sweep_bw", []string{"-sweep-bw", "20:60:20"}},
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
// goes with it. lowerbound reports a bad flag value with status 1.
func TestExitCodes(t *testing.T) {
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	usage := "    \tprint build information and exit"
	simulate := []string{"-simulate", "Least-Waste", "-runs", "2", "-days", "5"}
	for _, c := range []struct {
		ctx  context.Context
		args []string
		code int
		last string
	}{
		{nil, []string{"-bw", "40"}, 0, ""},
		{nil, []string{"-h"}, 0, usage},
		{nil, []string{"-version"}, 0, ""},
		{nil, []string{"-nope"}, 2, usage},
		{nil, []string{"-platform", "vax"}, 1, `lowerbound: unknown platform "vax" (cielo or prospective)`},
		{nil, []string{"-sweep-bw", "1:2"}, 1, `lowerbound: sweep "1:2" not of the form lo:hi:step`},
		{nil, []string{"-simulate", "Nope"}, 1, `lowerbound: unknown strategy "Nope"`},
		{nil, []string{"-simulate", "Least-Waste", "-runs", "2", "-days", "1"}, 1,
			"lowerbound: engine: warmup 1 + cooldown 1 days leave no measurement window in 1 days"},
		{cancelled, simulate, 130, "lowerbound: interrupted (context canceled); partial output flushed"},
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
			if c.args[0] == "-version" && !strings.HasPrefix(stdout, "lowerbound ") {
				t.Fatalf("-version printed %q", stdout)
			}
		})
	}
}
