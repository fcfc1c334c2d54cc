// Command perfbench is the repository's end-to-end benchmark. One process
// runs one workload: it sets the workload up several times, runs a
// closed loop of a fixed number of results, checks every result against
// an independent public path, and prints the metrics as the last line of
// its output. See README.md for the workloads and the metrics.
//
//	bash perfbench/run.sh --workload horizon-3y --seed 1 --seconds 10 --trace 0
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"sort"
	"strings"
	"sync/atomic"
	"syscall"
	"time"
)

// runSeconds is the --seconds BENCHMARK.json asks for.
const runSeconds = 10

// setupRepeats is how many times a run builds its workload from scratch;
// setup_s is the median, and the warm-up results must agree exactly.
const setupRepeats = 5

// loopDeadline stops a timed loop that runs far beyond its size, so a
// pathologically slow build still exits well inside the 180 s a run of
// the benchmark may take.
const loopDeadline = 100 * time.Second

// benchConfig is one invocation.
type benchConfig struct {
	workload string
	seed     uint64
	seconds  int
	trace    bool
	// buildDir holds everything the run writes.
	buildDir string
	// corruptRef and wrapHandler are the gate's self-test hooks: the
	// first perturbs the reference of result 0, the second wraps the
	// service's HTTP handler.
	corruptRef  bool
	wrapHandler func(http.Handler) http.Handler
}

// env is the state every workload shares.
type env struct {
	seed   uint64
	dir    string // per-process scratch directory
	traced bool   // the run reports per-layer metrics
	// tr is the live tracer: set only while a traced part of the loop
	// runs, so untraced results record nothing.
	tr         atomic.Pointer[tracer]
	corruptRef bool
}

func (e *env) tracer() *tracer { return e.tr.Load() }

// outcome is one result of the timed loop as the client saw it.
type outcome struct {
	latency    time.Duration
	firstFrame time.Duration
	refused    bool // 429 or 503
	err        error
}

// report is what a workload's correctness gate found.
type report struct {
	bad    []bool             // per result: differs from the reference
	digest string             // sha256 prefix over the checked results
	counts map[string]float64 // exact counts; must repeat for a seed
	layers map[string]float64 // per-layer metrics measured by the gate
}

// workload is one benchmark scenario.
type workload interface {
	// setup builds fresh state up to where the timed loop starts,
	// including a warm-up result, and returns that result's digest.
	setup(ctx context.Context) (string, error)
	// result produces result i of the timed loop.
	result(ctx context.Context, i int) outcome
	// check verifies results [0, n) against an independent path and
	// gathers the per-layer metrics the workload measured.
	check(ctx context.Context, n int) (report, error)
	close()
}

// spec describes a workload: its constructor and its size per second
// of --seconds at today's speed on a 2-vCPU machine.
type spec struct {
	name      string
	why       string
	perSecond int
	build     func(*env, *benchConfig) workload
}

var workloads = []spec{
	{"horizon-3y", "3-year segments on 1 worker, the only workload where auto picks the calendar queue and the job queue is long",
		10, func(e *env, _ *benchConfig) workload { return newMC(e) }},
	{"sweep-fig1", "full quick Figure-1 sweeps on 1 worker under a target CI; grid dispatch, dedup, keys and the CI fold",
		10, func(e *env, _ *benchConfig) workload { return newSweep(e) }},
	{"service-stream", "closed-loop HTTP campaigns on an in-process server with journals and a half-warm result cache",
		10, func(e *env, bc *benchConfig) workload { return newService(e, bc.wrapHandler) }},
}

func lookup(name string) (spec, bool) {
	for _, s := range workloads {
		if s.name == name {
			return s, true
		}
	}
	return spec{}, false
}

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// record is the last line of the output.
type record struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	var bc benchConfig
	var seed int64
	var trace int
	var manifest bool
	flag.StringVar(&bc.workload, "workload", "", "workload name: "+strings.Join(names(), ", "))
	flag.Int64Var(&seed, "seed", 1, "workload seed; every input derives from it")
	flag.IntVar(&bc.seconds, "seconds", 10, "run size: results per workload scale with it")
	flag.IntVar(&trace, "trace", 0, "1 reports per-layer metrics from a traced, profiled run")
	flag.BoolVar(&manifest, "manifest", false, "print BENCHMARK.json for these workloads and metrics, and exit")
	flag.Parse()
	if manifest {
		if err := writeManifest(os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		return
	}
	if _, ok := lookup(bc.workload); !ok || bc.seconds < 1 || (trace != 0 && trace != 1) || seed < 0 {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload {%s}, --seconds >= 1, --trace 0|1 and --seed >= 0\n", strings.Join(names(), "|"))
		os.Exit(2)
	}
	bc.seed, bc.trace = uint64(seed), trace == 1
	bc.buildDir = os.Getenv("CARGO_TARGET_DIR")
	if bc.buildDir == "" {
		bc.buildDir = ".bench_build"
	}
	rec, err := run(context.Background(), &bc, os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(rec)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

func names() []string {
	var out []string
	for _, s := range workloads {
		out = append(out, s.name)
	}
	return out
}

// run executes one benchmark invocation, printing human-readable lines
// to log, and returns the record.
func run(ctx context.Context, bc *benchConfig, log io.Writer) (record, error) {
	sp, ok := lookup(bc.workload)
	if !ok {
		return record{}, fmt.Errorf("unknown workload %q", bc.workload)
	}
	outDir := filepath.Join(bc.buildDir, "perfbench")
	dir := filepath.Join(outDir, fmt.Sprintf("run-%d", os.Getpid()))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return record{}, err
	}
	defer os.RemoveAll(dir)

	e := &env{seed: bc.seed, dir: dir, traced: bc.trace, corruptRef: bc.corruptRef}
	w := sp.build(e, bc)
	defer w.close()
	n := sp.perSecond * bc.seconds

	// Set-up: built from scratch setupRepeats times; the last one stays.
	var setups []float64
	var warm string
	repeatOK := true
	for k := 0; k < setupRepeats; k++ {
		if k > 0 {
			w.close()
		}
		t0 := time.Now()
		d, err := w.setup(ctx)
		setups = append(setups, time.Since(t0).Seconds())
		if err != nil {
			return record{}, fmt.Errorf("setup: %w", err)
		}
		if k > 0 && d != warm {
			repeatOK = false
			fmt.Fprintf(log, "# repeat check: warm-up digest %s differs from %s\n", d, warm)
		}
		warm = d
	}
	runtime.GC()

	// The timed closed loop. A traced run traces and profiles the middle
	// half (quarters A B B A), so drift falls alike on both parts.
	var tr *tracer
	var prof strings.Builder
	var msStart, msEnd runtime.MemStats
	if bc.trace {
		tr = newTracer()
	}
	outs := make([]outcome, 0, n)
	traced := func(i int) bool { q := 4 * i / n; return bc.trace && (q == 1 || q == 2) }
	loopStart := time.Now()
	for i := 0; i < n; i++ {
		if time.Since(loopStart) > loopDeadline {
			fmt.Fprintf(log, "# loop deadline: stopped after %d of %d results\n", i, n)
			break
		}
		if traced(i) && e.tracer() == nil {
			runtime.ReadMemStats(&msStart)
			if err := pprof.StartCPUProfile(&prof); err != nil {
				return record{}, err
			}
			e.tr.Store(tr)
		} else if !traced(i) && e.tracer() != nil {
			stopTracing(e, &msEnd)
		}
		id, end := e.tracer().open(i, 0, "result")
		o := w.result(withSpan(ctx, id), i)
		end()
		outs = append(outs, o)
	}
	if e.tracer() != nil {
		stopTracing(e, &msEnd)
	}
	loop := time.Since(loopStart)
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return record{}, err
	}
	done := len(outs)

	// The correctness gate, outside every timing.
	if e.traced {
		e.tr.Store(tr)
	}
	rep, err := w.check(ctx, done)
	e.tr.Store(nil)
	if err != nil {
		return record{}, fmt.Errorf("gate: %w", err)
	}
	source := sourceDigest(bc.buildDir)
	countsOK, err := repeatCounts(outDir, bc, source, done, rep.counts, log)
	if err != nil {
		return record{}, err
	}

	failed, refused, mismatched := 0, 0, 0
	var lat, first []float64
	for i, o := range outs {
		switch {
		case o.refused:
			refused++
		case o.err != nil:
			fmt.Fprintf(log, "# result %d error: %v\n", i, o.err)
		case rep.bad[i]:
			mismatched++
		default:
			lat = append(lat, ms(o.latency))
			first = append(first, ms(o.firstFrame))
			continue
		}
		failed++
	}
	rec := record{
		Correct:   failed == 0 && repeatOK && countsOK,
		Attempted: done,
		Failed:    failed,
		Metrics:   map[string]metric{},
	}

	ctxInfo := contextRecord(bc, source, done)
	fmt.Fprintf(log, "# context %s\n", mustJSON(ctxInfo))
	fmt.Fprintf(log, "# gate %s: %d results checked, %d mismatched, %d refused, digest %s\n",
		bc.workload, done, mismatched, refused, rep.digest)

	if !bc.trace {
		values := map[string]float64{
			"setup_s":            quantile(setups, 0.5),
			"results_per_s":      float64(len(lat)) / loop.Seconds(),
			"result_ms_p50":      quantile(lat, 0.5),
			"result_ms_p90":      quantile(lat, 0.9),
			"first_frame_ms_p50": quantile(first, 0.5),
			"max_rss_mb":         float64(ru.Maxrss) / 1024,
			"ok_frac":            1 - float64(rec.Failed)/float64(rec.Attempted),
		}
		for _, m := range endToEnd {
			rec.Metrics[m.name] = metric{values[m.name], m.unit}
		}
	} else {
		base := filepath.Join(outDir, fmt.Sprintf("%s-seed%d", bc.workload, bc.seed))
		if err := tr.write(base + ".spans.json"); err != nil {
			return record{}, err
		}
		if err := os.WriteFile(base+".cpu.pprof", []byte(prof.String()), 0o644); err != nil {
			return record{}, err
		}
		layers, err := layerMetrics(base+".cpu.pprof", outs, traced, rep, &msStart, &msEnd, refused)
		if err != nil {
			return record{}, err
		}
		for _, m := range perLayer {
			rec.Metrics[m.name] = metric{layers[m.name], m.unit}
		}
	}
	printMetrics(log, bc.workload, rec.Metrics)
	ctxInfo["digest"] = rep.digest
	ctxInfo["record"] = rec
	recPath := filepath.Join(outDir, fmt.Sprintf("%s-seed%d-trace%d.record.json", bc.workload, bc.seed, trace01(bc.trace)))
	if err := os.WriteFile(recPath, []byte(mustJSON(ctxInfo)+"\n"), 0o644); err != nil {
		return record{}, err
	}
	return rec, nil
}

func trace01(on bool) int {
	if on {
		return 1
	}
	return 0
}

func stopTracing(e *env, ms *runtime.MemStats) {
	e.tr.Store(nil)
	pprof.StopCPUProfile()
	runtime.ReadMemStats(ms)
}

func printMetrics(log io.Writer, wl string, ms map[string]metric) {
	keys := make([]string, 0, len(ms))
	for k := range ms {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(log, "%-15s %-32s %14.6g %s\n", wl, k, ms[k].Value, ms[k].Unit)
	}
}

func mustJSON(v any) string {
	b, err := json.Marshal(v)
	if err != nil {
		return fmt.Sprintf("%q", err.Error())
	}
	return string(b)
}
