package main

import (
	"bytes"
	"context"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"runtime/pprof"
	"sync/atomic"
	"testing"
	"time"
)

// TestGateCatchesCorruptReference: a reference that is off by one ulp on
// one result must fail that result and the run.
func TestGateCatchesCorruptReference(t *testing.T) {
	for _, corrupt := range []bool{false, true} {
		bc := &benchConfig{workload: "horizon-3y", seed: 3, seconds: 1, buildDir: t.TempDir(), corruptRef: corrupt}
		rec, err := run(context.Background(), bc, io.Discard)
		if err != nil {
			t.Fatal(err)
		}
		if got := rec.Metrics["ok_frac"].Value < 1; got != corrupt || rec.Correct == corrupt || (rec.Failed > 0) != corrupt {
			t.Errorf("corrupt=%v: correct=%v failed=%d ok_frac=%v", corrupt, rec.Correct, rec.Failed, rec.Metrics["ok_frac"].Value)
		}
	}
}

// TestGateCountsRefusedRequest: a campaign refused with 429 counts as
// failed and fails the run, although every result that was served is
// correct.
func TestGateCountsRefusedRequest(t *testing.T) {
	var posts atomic.Int64
	refuse := int64(setupRepeats + 2) // the second campaign of the timed loop
	wrap := func(h http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if r.Method == http.MethodPost && posts.Add(1) == refuse {
				http.Error(w, `{"error":"queue full"}`, http.StatusTooManyRequests)
				return
			}
			h.ServeHTTP(w, r)
		})
	}
	bc := &benchConfig{workload: "service-stream", seed: 5, seconds: 1, buildDir: t.TempDir(), wrapHandler: wrap}
	rec, err := run(context.Background(), bc, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if rec.Failed != 1 || rec.Correct || rec.Metrics["ok_frac"].Value >= 1 {
		t.Errorf("correct=%v failed=%d/%d ok_frac=%v", rec.Correct, rec.Failed, rec.Attempted, rec.Metrics["ok_frac"].Value)
	}
}

func TestLayerOf(t *testing.T) {
	for fn, want := range map[string]string{
		"repro/internal/platform.(*NodeMap).Allocate":  "platform",
		"repro/internal/engine.(*Session).Sweep.func1": "engine",
		"runtime.mallocgc": "runtime",
		"internal/runtime/maps.(*Map).getWithKeySmall":  "runtime",
		"internal/runtime/syscall.Syscall6":             "syscall",
		"encoding/json.(*encodeState).marshal":          "encoding_json",
		"net/http.(*conn).serve":                        "net_http",
		"main.(*mcWorkload).check":                      "other",
		"sort.Float64s":                                 "other",
		"repro.ExperimentKey":                           "other",
		"repro/internal/resultcache.(*Cache).writeDisk": "resultcache",
		"type:.eq.repro/internal/stats.Summary":         "other",
	} {
		if got := layerOf(fn); got != want {
			t.Errorf("layerOf(%q) = %q, want %q", fn, got, want)
		}
	}
}

// TestFoldTraces: a sample counts towards the innermost internal
// package on its stack, or towards its leaf's group when there is none.
func TestFoldTraces(t *testing.T) {
	const traces = `File: perfbench
Type: cpu
-----------+-------------------------------------------------------
      10ms   runtime.mallocgc
             repro/internal/platform.(*NodeMap).Allocate
             repro/internal/jobsched.FirstFit
-----------+-------------------------------------------------------
      20ms   encoding/json.(*encodeState).marshal
             repro/internal/api.WriteFrame (inline)
             repro/internal/server.(*Server).stream
-----------+-------------------------------------------------------
     1.50s   runtime.gcBgMarkWorker
-----------+-------------------------------------------------------
`
	got, err := foldTraces([]byte(traces))
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]int64{"platform": 10e6, "api": 20e6, "runtime": 1.5e9}
	if len(got) != len(want) {
		t.Errorf("got %v, want %v", got, want)
	}
	for k, v := range want {
		if got[k] != v {
			t.Errorf("%s: got %d ns, want %d", k, got[k], v)
		}
	}
}

// TestCPULayers reads a real CPU profile through go tool pprof: the busy
// loop in package main lands in "other".
func TestCPULayers(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Fatal(err)
	}
	x := 0.0
	for t0 := time.Now(); time.Since(t0) < 300*time.Millisecond; {
		for i := 0; i < 1000; i++ {
			x += float64(i) * 1e-9
		}
	}
	pprof.StopCPUProfile()
	path := filepath.Join(t.TempDir(), "cpu.pprof")
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	ns, err := cpuLayers(path)
	if err != nil {
		t.Fatal(err)
	}
	if ns["other"] == 0 || x == 0 {
		t.Errorf("the busy loop in package main is not in the profile: %v", ns)
	}
}

// TestManifest: BENCHMARK.json at the repository root is what
// --manifest prints.
func TestManifest(t *testing.T) {
	want, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("no BENCHMARK.json beside this directory")
	}
	var got bytes.Buffer
	if err := writeManifest(&got); err != nil {
		t.Fatal(err)
	}
	if got.String() != string(want) {
		t.Errorf("BENCHMARK.json is stale; regenerate it with: bash perfbench/run.sh --manifest > BENCHMARK.json")
	}
}
