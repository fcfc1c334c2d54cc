package main

import (
	"bytes"
	"context"
	"flag"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"repro/internal/cliutil"
	"repro/internal/faultinject"
)

var update = flag.Bool("update", false, "rewrite the testdata goldens from this build")

// invoke runs paperfigs in process and maps its error as main does.
func invoke(ctx context.Context, args ...string) (stdout, stderr string, code int) {
	var out, errb bytes.Buffer
	code = cliutil.ExitCode("paperfigs", run(ctx, args, &out, &errb), &errb)
	return out.String(), errb.String(), code
}

// wallClock is the one token of paperfigs output that is not a function
// of the flags.
var wallClock = regexp.MustCompile(`(?m)^(-- fig[123] done in )\S+( --)$`)

// golden compares got with testdata/name, both with the wall-clock
// token masked; -update rewrites the file first.
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
	mask := func(s string) string { return wallClock.ReplaceAllString(s, "${1}T${2}") }
	if mask(got) != mask(string(want)) {
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
		{"fig1_quick", []string{"-quick", "-runs", "2", "fig1"}},
		{"table1", []string{"table1"}},
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
// goes with it. paperfigs reports a bad flag value with status 1.
func TestExitCodes(t *testing.T) {
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	usage := "    \tparallel workers (0 = GOMAXPROCS)"
	for _, c := range []struct {
		ctx  context.Context
		args []string
		code int
		last string
	}{
		{nil, []string{"table1"}, 0, ""},
		{nil, []string{"-h"}, 0, usage},
		{nil, []string{"-version"}, 0, ""},
		{nil, []string{"-nope"}, 2, usage},
		{nil, []string{"-strategies", "Nope", "fig1"}, 1, `paperfigs: unknown strategy "Nope" (try -list)`},
		{nil, []string{"-target-ci", "x", "fig1"}, 1, `paperfigs: -target-ci "x": bad half-width "x"`},
		{nil, []string{"bogus"}, 2, `paperfigs: unknown command "bogus" (table1|fig1|fig2|fig3|all)`},
		{nil, []string{"-quick", "-runs", "2", "-days", "1", "fig1"}, 1,
			"paperfigs: engine: sweep point 0 (Oblivious-Fixed): engine: warmup 1 + cooldown 1 days leave no measurement window in 1 days"},
		{cancelled, []string{"-quick", "-runs", "2", "fig1"}, 130,
			"paperfigs: interrupted (engine: sweep point 0 (Oblivious-Fixed): context canceled); partial output flushed"},
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
			if c.args[0] == "-version" && !strings.HasPrefix(stdout, "paperfigs ") {
				t.Fatalf("-version printed %q", stdout)
			}
		})
	}
}

// TestDegradedCampaign: a journaled figure with one quarantined point
// completes, then paperfigs exits 3.
func TestDegradedCampaign(t *testing.T) {
	defer faultinject.Set(faultinject.SiteWorkerReplicate,
		faultinject.PanicOn("poisoned point", func(detail any) bool {
			return detail == faultinject.WorkerReplicate{Point: 1, Run: 0}
		}))()
	journal := filepath.Join(t.TempDir(), "J")
	stdout, stderr, code := invoke(context.Background(), "-quick", "-runs", "2", "-workers", "1",
		"-strategies", "Least-Waste", "-journal", journal, "fig1")
	want := "paperfigs: campaign degraded: 1 quarantined point(s); rerun with -resume to retry them"
	if code != 3 || lastLine(stderr) != want {
		t.Fatalf("exit %d, last stderr line %q; want 3, %q", code, lastLine(stderr), want)
	}
	if !strings.HasSuffix(stdout, " --\n\n") {
		t.Fatalf("degraded figure did not complete:\n%s", stdout)
	}
	if _, err := os.Stat(journal + ".fig1"); err != nil {
		t.Fatal(err)
	}
}
