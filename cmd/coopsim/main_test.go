package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"repro/internal/cliutil"
	"repro/internal/faultinject"
)

var update = flag.Bool("update", false, "rewrite the testdata goldens from this build")

// invoke runs coopsim in process and maps its error as main does.
func invoke(ctx context.Context, args ...string) (stdout, stderr string, code int) {
	var out, errb bytes.Buffer
	code = cliutil.ExitCode("coopsim", run(ctx, args, &out, &errb), &errb)
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

// small is the golden grid: two strategies on two channel counts, short
// horizons, so a repeated shared-device cell comes back (cached).
var small = []string{"-channels", "1,2", "-strategy", "Oblivious-Daly,Least-Waste", "-runs", "4", "-days", "5"}

func args(extra ...string) []string { return append(slices.Clone(small), extra...) }

// TestGoldens pins coopsim's bytes: given the seed and the flags, stdout
// and stderr are fixed, whatever the worker count.
func TestGoldens(t *testing.T) {
	for _, c := range []struct {
		golden string
		args   []string
	}{
		{"sweep", args("-workers", "1")},
		// The grid coordinator's contract: the worker count never
		// changes a byte.
		{"sweep", args("-workers", "2")},
		{"sweep_tsv", args("-workers", "1", "-tsv")},
		// Sequential stopping: which replicates the grid speculates
		// past a stopping decision never changes a byte either.
		{"target_ci", args("-target-ci", "0.05:0.95:2:8", "-runs", "8", "-workers", "1")},
		{"target_ci", args("-target-ci", "0.05:0.95:2:8", "-runs", "8", "-workers", "2")},
		{"target_ci_antithetic", args("-target-ci", "0.05:0.95:2:8", "-runs", "8", "-antithetic", "-workers", "1")},
		{"target_ci_antithetic", args("-target-ci", "0.05:0.95:2:8", "-runs", "8", "-antithetic", "-workers", "2")},
		{"paired", []string{"-channels", "1", "-strategy", "Oblivious-Daly,Least-Waste", "-runs", "4", "-days", "5", "-workers", "1", "-paired"}},
		{"list", []string{"-list"}},
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

// TestGoldenCacheColdWarm runs the golden grid twice on one -cache-dir:
// the cold run stores every computed cell, the warm run serves them all.
func TestGoldenCacheColdWarm(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "cache")
	for _, name := range []string{"cache_cold", "cache_warm"} {
		stdout, stderr, code := invoke(context.Background(), args("-workers", "1", "-cache-dir", dir)...)
		if code != 0 {
			t.Fatalf("%s: exit %d: %s", name, code, stderr)
		}
		golden(t, name+".stdout", stdout)
		golden(t, name+".stderr", stderr)
	}
}

// TestGoldenNDJSONJournal pins the wire frames and the campaign journal
// of a run long enough (12 replicates per point) to journal snapshots.
func TestGoldenNDJSONJournal(t *testing.T) {
	path := filepath.Join(t.TempDir(), "J")
	stdout, stderr, code := invoke(context.Background(), args("-workers", "1", "-runs", "12", "-ndjson", "-journal", path)...)
	if code != 0 {
		t.Fatalf("exit %d: %s", code, stderr)
	}
	golden(t, "ndjson.stdout", stdout)
	golden(t, "ndjson.stderr", stderr)
	journal, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if *update {
		golden(t, "ndjson.journal", string(journal))
		return
	}
	want, err := os.ReadFile(filepath.Join("testdata", "ndjson.journal"))
	if err != nil {
		t.Fatal(err)
	}
	if got, want := byPoint(t, journal), byPoint(t, want); !slices.Equal(got, want) {
		t.Errorf("journal differs:\n--- got\n%s\n--- want\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"))
	}
}

// byPoint returns a journal's records, each byte for byte, stably
// sorted by point: the header first and the seal last. Each point's
// records keep their order, which is fixed; how records of different
// points interleave depends on when the coordinator folds, even with
// one worker.
func byPoint(t *testing.T, journal []byte) []string {
	t.Helper()
	lines := strings.SplitAfter(string(journal), "\n")
	if lines[len(lines)-1] == "" {
		lines = lines[:len(lines)-1]
	}
	rank := func(line string) int {
		var rec struct {
			T string `json:"t"`
			D struct {
				Point *int `json:"point"`
			} `json:"d"`
		}
		_, body, _ := strings.Cut(line, " ")
		if err := json.Unmarshal([]byte(body), &rec); err != nil {
			t.Fatalf("journal record %q: %v", line, err)
		}
		switch {
		case rec.T == "header":
			return -1
		case rec.D.Point == nil:
			return len(lines)
		}
		return *rec.D.Point
	}
	slices.SortStableFunc(lines, func(a, b string) int { return rank(a) - rank(b) })
	return lines
}

// TestExitCodes pins each exit status and the final stderr line that
// goes with it.
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
		{nil, args("-workers", "1"), 0, "coopsim: 1 of 4 grid cell(s) served from cache/dedup"},
		{nil, args("-workers", "1", "-ndjson"), 0, "coopsim: 1 of 4 grid cell(s) served from cache/dedup"},
		{nil, []string{"-h"}, 0, usage},
		{nil, []string{"-version"}, 0, ""},
		{nil, []string{"-list"}, 0, ""},
		{nil, []string{"-nope"}, 2, usage},
		{nil, []string{"-runs", "x"}, 2, usage},
		{nil, []string{"-strategy", "Nope"}, 2, `coopsim: unknown strategy "Nope" (try -list)`},
		{nil, []string{"-platform", "vax"}, 2, `coopsim: unknown platform "vax" (cielo or prospective)`},
		{nil, []string{"-resume"}, 2, "coopsim: -resume needs -journal"},
		{nil, []string{"-days", "1", "-runs", "2", "-strategy", "Least-Waste", "-workers", "1"}, 1,
			"coopsim: engine: sweep point 0 (Least-Waste): engine: warmup 1 + cooldown 1 days leave no measurement window in 1 days"},
		{cancelled, args("-workers", "1"), 130, "coopsim: interrupted (engine: sweep point 0 (Oblivious-Daly): context canceled); partial output flushed"},
		{cancelled, args("-workers", "1", "-ndjson"), 130, "coopsim: interrupted (context canceled); partial output flushed"},
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
			if c.args[0] == "-version" && !strings.HasPrefix(stdout, "coopsim ") {
				t.Fatalf("-version printed %q", stdout)
			}
		})
	}
}

// TestDegradedCampaign: a journaled campaign with one quarantined point
// finishes the grid, then exits 3.
func TestDegradedCampaign(t *testing.T) {
	defer faultinject.Set(faultinject.SiteWorkerReplicate,
		faultinject.PanicOn("poisoned point", func(detail any) bool {
			return detail == faultinject.WorkerReplicate{Point: 1, Run: 0}
		}))()
	stdout, stderr, code := invoke(context.Background(), args("-workers", "1", "-journal", filepath.Join(t.TempDir(), "J"))...)
	want := "coopsim: campaign degraded: 1 failed point(s); rerun with -resume to retry them"
	if code != 3 || lastLine(stderr) != want {
		t.Fatalf("exit %d, last stderr line %q; want 3, %q", code, lastLine(stderr), want)
	}
	if n := strings.Count(stdout, "Theoretical-Model"); n != 2 {
		t.Fatalf("degraded campaign printed %d scenario blocks, want 2:\n%s", n, stdout)
	}
}

// TestProfileFlushedOnError: a usage error after -cpuprofile started
// still leaves a complete profile.
func TestProfileFlushedOnError(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cpu.pprof")
	_, stderr, code := invoke(context.Background(), "-cpuprofile", path, "-strategy", "Nope")
	if want := `coopsim: unknown strategy "Nope" (try -list)`; code != 2 || lastLine(stderr) != want {
		t.Fatalf("exit %d, last stderr line %q; want 2, %q", code, lastLine(stderr), want)
	}
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if fi.Size() == 0 {
		t.Fatal("-cpuprofile left an empty file")
	}
}

// TestREADMEStrategyTable: the README's strategy table is the -list
// golden as Markdown, so the two cannot drift apart.
func TestREADMEStrategyTable(t *testing.T) {
	list, err := os.ReadFile(filepath.Join("testdata", "list.stdout"))
	if err != nil {
		t.Fatal(err)
	}
	var want []string
	for i, row := range strings.Split(strings.TrimSuffix(string(list), "\n"), "\n") {
		cells := strings.Split(row, "\t")
		want = append(want, "| "+strings.Join(cells, " | ")+" |")
		if i == 0 {
			want = append(want, strings.Repeat("|---", len(cells))+"|")
		}
	}
	readme, err := os.ReadFile(filepath.Join("..", "..", "README.md"))
	if err != nil {
		t.Fatal(err)
	}
	start := strings.Index(string(readme), want[0]+"\n")
	if start < 0 {
		t.Fatalf("README.md has no strategy table headed %q", want[0])
	}
	got := strings.Split(string(readme[start:]), "\n")
	if len(got) > len(want) && strings.HasPrefix(got[len(want)], "|") {
		t.Errorf("README strategy table has rows past the -list output: %q", got[len(want)])
	}
	if got = got[:min(len(got), len(want))]; !slices.Equal(got, want) {
		t.Errorf("README strategy table differs from coopsim -list:\n--- got\n%s\n--- want\n%s",
			strings.Join(got, "\n"), strings.Join(want, "\n"))
	}
}
