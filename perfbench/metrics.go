package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
)

// metricSpec declares one metric of BENCHMARK.json.
type metricSpec struct {
	name, unit, better string
	bound              float64 // end-to-end only
}

// endToEnd are the metrics of an untraced run.
var endToEnd = []metricSpec{
	{"setup_s", "s", "lower", 0.25},
	{"results_per_s", "1/s", "higher", 0.25},
	{"result_ms_p50", "ms", "lower", 0.25},
	{"result_ms_p90", "ms", "lower", 0.25},
	{"first_frame_ms_p50", "ms", "lower", 0.25},
	{"max_rss_mb", "MB", "lower", 0.25},
	{"ok_frac", "1", "higher", 0.01},
}

// cpuLayerNames are the layers the CPU profile is grouped into (see
// cpuLayers); a sample that falls in none of them counts as "other".
var cpuLayerNames = []string{
	"platform", "jobsched", "sim", "iomodel", "iosched", "engine", "stats",
	"workload", "failure", "metrics", "ckpt", "rng", "campaign", "api",
	"server", "resultcache", "encoding_json", "net_http", "syscall", "runtime", "other",
}

// perLayer are the metrics of a traced run. A metric that does not apply
// to a workload reads 0 there.
var perLayer = func() []metricSpec {
	var out []metricSpec
	for _, l := range cpuLayerNames {
		out = append(out, metricSpec{name: l + ".cpu_share", unit: "1", better: "lower"})
	}
	return append(out, []metricSpec{
		{name: "profile.cpu_s", unit: "s", better: "higher"},
		{name: "tracing_overhead_frac", unit: "1", better: "lower"},
		{name: "engine.replicate_ms_p50", unit: "ms", better: "lower"},
		{name: "engine.ns_per_event", unit: "ns", better: "lower"},
		{name: "engine.arena_run_coverage", unit: "1", better: "higher"},
		{name: "engine.key_us", unit: "us", better: "lower"},
		{name: "engine.grid_efficiency", unit: "1", better: "higher"},
		{name: "engine.events_per_replicate", unit: "count", better: "lower"},
		{name: "engine.replicates_per_result", unit: "count", better: "lower"},
		{name: "engine.dedup_cells", unit: "count", better: "higher"},
		{name: "resultcache.get_us_p50", unit: "us", better: "lower"},
		{name: "resultcache.put_us_p50", unit: "us", better: "lower"},
		{name: "resultcache.hit_ratio", unit: "1", better: "higher"},
		{name: "resultcache.hits_per_result", unit: "count", better: "higher"},
		{name: "campaign.overhead_ms_p50", unit: "ms", better: "lower"},
		{name: "campaign.journal_bytes_per_point", unit: "B", better: "lower"},
		{name: "api.frame_bytes", unit: "B", better: "lower"},
		{name: "server.submit_ms_p50", unit: "ms", better: "lower"},
		{name: "server.rejects", unit: "count", better: "lower"},
		{name: "runtime.gc_cycles", unit: "count", better: "lower"},
		{name: "runtime.gc_pause_ms", unit: "ms", better: "lower"},
		{name: "runtime.heap_mb_end", unit: "MB", better: "lower"},
	}...)
}()

// layerMetrics assembles a traced run's per-layer metrics.
func layerMetrics(profPath string, outs []outcome, traced func(int) bool, rep report,
	start, end *runtime.MemStats, refused int) (map[string]float64, error) {
	out := map[string]float64{}
	ns, err := cpuLayers(profPath)
	if err != nil {
		return nil, err
	}
	listed := map[string]bool{}
	for _, l := range cpuLayerNames {
		listed[l] = true
	}
	var total int64
	byLayer := map[string]int64{}
	for l, v := range ns {
		total += v
		if !listed[l] {
			l = "other"
		}
		byLayer[l] += v
	}
	for _, l := range cpuLayerNames {
		if total > 0 {
			out[l+".cpu_share"] = float64(byLayer[l]) / float64(total)
		}
	}
	out["profile.cpu_s"] = float64(total) / 1e9

	var on, off []float64
	for i, o := range outs {
		if o.err != nil || o.refused || rep.bad[i] {
			continue
		}
		if traced(i) {
			on = append(on, ms(o.latency))
		} else {
			off = append(off, ms(o.latency))
		}
	}
	if len(on) > 0 && len(off) > 0 {
		out["tracing_overhead_frac"] = mean(on)/mean(off) - 1
	}
	out["runtime.gc_cycles"] = float64(end.NumGC - start.NumGC)
	out["runtime.gc_pause_ms"] = float64(end.PauseTotalNs-start.PauseTotalNs) / 1e6
	out["runtime.heap_mb_end"] = float64(end.HeapAlloc) / (1 << 20)
	out["server.rejects"] = float64(refused)
	for _, m := range []map[string]float64{rep.counts, rep.layers} {
		for k, v := range m {
			out[k] = v
		}
	}
	return out, nil
}

func mean(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// repeatCounts compares this run's exact counts with the record of an
// earlier run of the same sources, workload, seed and size, or stores
// them.
func repeatCounts(outDir string, bc *benchConfig, source string, n int, counts map[string]float64, log io.Writer) (bool, error) {
	dir := filepath.Join(outDir, "counts")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return false, err
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-%s-seed%d-n%d.json", source, bc.workload, bc.seed, n))
	prev, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		b, err := json.Marshal(counts)
		if err != nil {
			return false, err
		}
		return true, os.WriteFile(path, b, 0o644)
	}
	if err != nil {
		return false, err
	}
	var want map[string]float64
	if err := json.Unmarshal(prev, &want); err != nil {
		return false, fmt.Errorf("%s: %w", path, err)
	}
	ok := len(want) == len(counts)
	for k, v := range counts {
		if want[k] != v {
			ok = false
			fmt.Fprintf(log, "# repeat check: %s = %v, an earlier run of this seed had %v\n", k, v, want[k])
		}
	}
	return ok, nil
}

// contextRecord describes the machine and the source a run measured.
func contextRecord(bc *benchConfig, source string, results int) map[string]any {
	rec := map[string]any{
		"workload":   bc.workload,
		"seed":       bc.seed,
		"seconds":    bc.seconds,
		"results":    results,
		"trace":      bc.trace,
		"cpu":        cpuModel(),
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go":         runtime.Version(),
		"commit":     "unknown",
		"source":     source,
	}
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			if s.Key == "vcs.revision" {
				rec["commit"] = s.Value
			}
		}
	}
	return rec
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}

// sourceDigest hashes the Go sources of the checkout the run was built
// from, which identifies the code where no git metadata exists.
func sourceDigest(buildDir string) string {
	var paths []string
	skip, _ := filepath.Abs(buildDir)
	_ = filepath.WalkDir(".", func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() {
			abs, _ := filepath.Abs(p)
			if p != "." && (strings.HasPrefix(d.Name(), ".") || abs == skip) {
				return filepath.SkipDir
			}
			return nil
		}
		if n := d.Name(); strings.HasSuffix(n, ".go") || n == "go.mod" || n == "go.sum" {
			paths = append(paths, p)
		}
		return nil
	})
	sort.Strings(paths)
	h := sha256.New()
	for _, p := range paths {
		b, err := os.ReadFile(p)
		if err != nil {
			continue
		}
		fmt.Fprintf(h, "%s %d\n", p, len(b))
		h.Write(b)
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// writeManifest prints BENCHMARK.json from the tables above.
func writeManifest(w io.Writer) error {
	type wl struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	type e2e struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	}
	type layer struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	}
	m := struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []wl     `json:"workloads"`
		EndToEnd   []e2e    `json:"end_to_end"`
		PerLayer   []layer  `json:"per_layer"`
	}{Command: []string{"bash", "perfbench/run.sh"}, Paths: []string{"perfbench"}, RunSeconds: runSeconds}
	for _, s := range workloads {
		m.Workloads = append(m.Workloads, wl{s.name, s.why})
	}
	for _, s := range endToEnd {
		m.EndToEnd = append(m.EndToEnd, e2e{s.name, s.unit, s.better, s.bound})
	}
	for _, s := range perLayer {
		m.PerLayer = append(m.PerLayer, layer{s.name, s.unit, s.better})
	}
	b, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", b)
	return err
}
