package driver

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/engine"
	"repro/internal/faultinject"
	"repro/internal/platform"
	"repro/internal/rng"
	"repro/internal/stats"
	"repro/internal/units"
	"repro/internal/workload"
)

// tinyConfig is a scaled-down machine and two-class workload that keep a
// replicate in the low milliseconds.
func tinyConfig(strat engine.Strategy, seed uint64) engine.Config {
	return engine.Config{
		Platform: platform.Platform{
			Name:            "tiny",
			Nodes:           256,
			MemoryBytes:     4 * units.TB,
			BandwidthBps:    units.GBps(0.5),
			NodeMTBFSeconds: units.Years(1),
		},
		Classes: []workload.Class{
			{
				Name: "big", Share: 0.7, WorkHours: 30, MachineFraction: 0.25,
				InputPctMem: 10, OutputPctMem: 100, CkptPctMem: 150,
			},
			{
				Name: "small", Share: 0.3, WorkHours: 10, MachineFraction: 0.0625,
				InputPctMem: 5, OutputPctMem: 200, CkptPctMem: 100,
			},
		},
		Strategy:     strat,
		Seed:         seed,
		HorizonDays:  6,
		WarmupDays:   0.5,
		CooldownDays: 0.5,
		Gen:          workload.GenConfig{MinDays: 6, Buffer: 1.2, ShareTol: 0.05},
	}
}

// collectSweep pulls a whole sweep into slices, failing the test on a
// sweep error.
func collectSweep(t *testing.T, s *Session, base engine.Config, grid SweepGrid, runs int) ([]SweepPoint, []MCResult) {
	t.Helper()
	points, errf := s.Sweep(context.Background(), base, grid, runs)
	var pts []SweepPoint
	var mcs []MCResult
	for pt, mc := range points {
		pts = append(pts, pt)
		mcs = append(mcs, mc)
	}
	if err := errf(); err != nil {
		t.Fatalf("Sweep: %v", err)
	}
	return pts, mcs
}

// TestSweepGridPoolSizing pins the satellite fix: the worker pool sizes
// to the total outstanding grid work, not a single point's replicate
// count — a 1-run-per-point grid still fans out across workers.
func TestSweepGridPoolSizing(t *testing.T) {
	s := NewSession(WithWorkers(4))
	if got := len(s.arenasFor(8)); got != 4 {
		t.Errorf("arenasFor(8 grid runs) = %d workers, want 4", got)
	}
	if got := len(s.arenasFor(1)); got != 1 {
		t.Errorf("arenasFor(1 run) = %d workers, want 1", got)
	}
	// The grid path must size by len(points)*runs: 8 points of 1 run
	// each behave like one 8-run experiment, not like runs=1.
	base := tinyConfig(engine.Strategy{}, 2)
	grid := SweepGrid{Strategies: engine.AllStrategies()}
	if _, mcs := collectSweep(t, s, base, grid, 1); len(mcs) != len(engine.AllStrategies()) {
		t.Fatalf("grid yielded %d points", len(mcs))
	}
	if got := len(s.arenas); got != 4 {
		t.Errorf("after a %d-point 1-run grid sweep the session holds %d arenas, want 4", len(engine.AllStrategies()), got)
	}
}

// TestExperimentKeyPinned pins two content addresses. A key names every
// -cache-dir entry on disk, so a change to the canonical spec or its
// encoding orphans every stored result and must be deliberate.
func TestExperimentKeyPinned(t *testing.T) {
	cfg := engine.Config{
		Platform: platform.Cielo(40, 2),
		Classes:  workload.APEXClasses(),
		Strategy: engine.LeastWaste(),
		Seed:     1,
	}
	seq := cfg
	seq.Strategy = engine.ObliviousDaly()
	seq.Channels = 4
	for _, tc := range []struct {
		name string
		cfg  engine.Config
		runs int
		opts MCOptions
		want string
	}{
		{"fixed", cfg, 8, MCOptions{},
			"0dc70e68f0785fc7f2298dd0e45edb1c55aeb3e1cacc3451f78652b2b302bfa4"},
		{"target-ci-antithetic", seq, 100, MCOptions{TargetCI: TargetCI{HalfWidth: 0.01}, Antithetic: true},
			"c172109467180bb00ee9ba5aeb767ca8f66c53369bef18a784c42affc37b9635"},
	} {
		got, ok := ExperimentKey(tc.cfg, tc.runs, tc.opts)
		if !ok || got != tc.want {
			t.Errorf("%s: ExperimentKey = %q, %v; want %q, true", tc.name, got, ok, tc.want)
		}
	}
}

// countingCache is a map ResultCache that counts its calls.
type countingCache struct {
	mu         sync.Mutex
	m          map[string]MCResult
	gets, puts int
}

func (c *countingCache) Get(key string) (MCResult, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.gets++
	mc, ok := c.m[key]
	return cloneMCResult(mc), ok
}

func (c *countingCache) Put(key string, mc MCResult) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.puts++
	if c.m == nil {
		c.m = map[string]MCResult{}
	}
	c.m[key] = mc
}

// TestSweepCacheCalls pins how a grid uses the session cache: one Get per
// distinct cacheable point (a repeated cell is served from its first
// cell, not the cache) and one Put per point it computes; a warm cache
// serves every point Cached and stores nothing; a stored entry never has
// Cached set. MonteCarlo, ComparePaired and MinBandwidth never consult it.
func TestSweepCacheCalls(t *testing.T) {
	ctx := context.Background()
	base := tinyConfig(engine.Strategy{}, 5)
	// Oblivious-Daly ignores the channel count, so its k=2 cell repeats
	// k=1: 4 cells, 3 distinct keys.
	grid := SweepGrid{Strategies: []engine.Strategy{engine.ObliviousDaly(), engine.LeastWaste()}, Channels: []int{1, 2}}
	cache := &countingCache{}
	s := NewSession(WithWorkers(2), WithKeepWasteRatios(true), WithResultCache(cache))
	_, first := collectSweep(t, s, base, grid, 3)
	if cache.gets != 3 || cache.puts != 3 {
		t.Errorf("cold sweep: %d gets, %d puts; want 3, 3", cache.gets, cache.puts)
	}
	for i, mc := range first {
		if want := i == 2; mc.Cached != want {
			t.Errorf("cold sweep point %d: Cached = %v, want %v", i, mc.Cached, want)
		}
	}
	for key, mc := range cache.m {
		if mc.Cached {
			t.Errorf("entry %s stored with Cached set", key)
		}
	}

	_, second := collectSweep(t, s, base, grid, 3)
	if cache.gets != 6 || cache.puts != 3 {
		t.Errorf("warm sweep: %d gets, %d puts in total; want 6, 3", cache.gets, cache.puts)
	}
	for i, mc := range second {
		if !mc.Cached {
			t.Errorf("warm sweep point %d not Cached", i)
		}
		want := first[i]
		want.Cached = true
		if !reflect.DeepEqual(mc, want) {
			t.Errorf("warm sweep point %d differs from the cold sweep", i)
		}
	}
	// A consumer's mutation reaches neither a repeated cell nor the cache.
	first[0].WasteRatios[0] = -1
	if first[2].WasteRatios[0] == -1 {
		t.Error("a repeated cell aliases its first cell's slice")
	}
	for key, mc := range cache.m {
		if mc.WasteRatios[0] == -1 {
			t.Errorf("entry %s aliases a consumer's slice", key)
		}
	}

	gets, puts := cache.gets, cache.puts
	cfg := tinyConfig(engine.LeastWaste(), 5)
	if _, err := s.MonteCarlo(ctx, cfg, 3); err != nil {
		t.Fatal(err)
	}
	if _, _, err := s.ComparePaired(ctx, cfg, []engine.Strategy{engine.LeastWaste(), engine.ObliviousDaly()}, 3); err != nil {
		t.Fatal(err)
	}
	if _, err := s.MinBandwidth(ctx, cfg, 0.1, units.GBps(0.05), units.GBps(50), 2, 1); err != nil {
		t.Fatal(err)
	}
	if cache.gets != gets || cache.puts != puts {
		t.Errorf("MonteCarlo, ComparePaired and MinBandwidth made %d gets and %d puts, want none",
			cache.gets-gets, cache.puts-puts)
	}
}

// referenceSweep is the sequential reference the grid coordinator is
// pinned against: every point in order through referenceMonteCarlo. A
// cell whose content address repeats an earlier cell's is marked Cached,
// as in-grid dedup marks it.
func referenceSweep(t *testing.T, base engine.Config, grid SweepGrid, runs int, opts MCOptions) []MCResult {
	t.Helper()
	var out []MCResult
	seen := map[string]bool{}
	for _, pt := range grid.Points(base) {
		cfg := pt.Apply(base)
		mc := referenceMonteCarlo(t, cfg, runs, opts)
		if key, ok := ExperimentKey(cfg, runs, opts); ok {
			mc.Cached = seen[key]
			seen[key] = true
		}
		out = append(out, mc)
	}
	return out
}

// referenceMonteCarlo restates the fold rules of one Monte-Carlo
// experiment, one replicate at a time in run order on a freshly built
// arena. Replicate i draws the CRN seed of i, or of i/2 under antithetic
// pairing with the odd member complemented. Results, waste ratios,
// utilisation and failures fold in run order; the CI estimator folds the
// waste ratio, or the pair averages. The budget is TargetCI.MaxRuns when
// set, and the stopping rule fires at the first (pair) boundary at or
// past MinRuns (default 8, at least 2, rounded up to a pair) whose
// half-width is within the target.
func referenceMonteCarlo(t *testing.T, cfg engine.Config, runs int, opts MCOptions) MCResult {
	t.Helper()
	seq := opts.TargetCI
	if seq.Confidence == 0 {
		seq.Confidence = 0.95
	}
	if seq.MinRuns == 0 {
		seq.MinRuns = 8
	}
	seq.MinRuns = max(seq.MinRuns, 2)
	if opts.Antithetic && seq.MinRuns%2 == 1 {
		seq.MinRuns++
	}
	total := runs
	if seq.HalfWidth > 0 && seq.MaxRuns > 0 {
		total = seq.MaxRuns
	}
	mc := MCResult{Strategy: cfg.Strategy.Name()}
	var acc, ciAcc stats.Accumulator
	var util, fails, pairEven float64
	n := 0
	for n < total {
		i := n
		seed, anti := rng.ReplicateSeed(cfg.Seed, i), false
		if opts.Antithetic {
			seed, anti = rng.ReplicateSeed(cfg.Seed, i/2), i%2 == 1
		}
		a, err := engine.NewArena(cfg)
		if err != nil {
			t.Fatal(err)
		}
		r, err := a.RunAnti(seed, anti)
		if err != nil {
			t.Fatal(err)
		}
		if opts.KeepResults {
			mc.Results = append(mc.Results, r)
		}
		if opts.KeepWasteRatios {
			mc.WasteRatios = append(mc.WasteRatios, r.WasteRatio)
		} else {
			acc.Add(r.WasteRatio)
		}
		util += r.Utilization
		fails += float64(r.Failures)
		n++
		switch {
		case !opts.Antithetic:
			ciAcc.Add(r.WasteRatio)
		case i%2 == 0:
			pairEven = r.WasteRatio
		default:
			ciAcc.Add((pairEven + r.WasteRatio) / 2)
		}
		if seq.HalfWidth > 0 && n >= seq.MinRuns && (!opts.Antithetic || n%2 == 0) &&
			ciAcc.HalfWidth(seq.Confidence) <= seq.HalfWidth {
			break
		}
	}
	if opts.KeepWasteRatios {
		mc.Summary = stats.Summarize(mc.WasteRatios)
	} else {
		mc.Summary = acc.Summary()
	}
	mc.MeanUtilization = util / float64(n)
	mc.MeanFailures = fails / float64(n)
	mc.RunsUsed = n
	mc.Confidence = seq.Confidence
	mc.CIHalfWidth = ciAcc.HalfWidth(seq.Confidence)
	return mc
}

// TestSweepGridBitIdentity pins the grid coordinator's core contract:
// whatever the worker count and steal interleaving, a Sweep delivers
// bit-identical results to the sequential reference — across every
// registered strategy, fixed-runs and sequential-stopping experiments,
// and antithetic pairing. The heap4 level of the subtest names is kept
// from when the test also ran a calendar queue.
func TestSweepGridBitIdentity(t *testing.T) {
	base := tinyConfig(engine.Strategy{}, 7)
	grid := SweepGrid{Strategies: engine.AllStrategies(), Channels: []int{1, 2}}
	ci := TargetCI{HalfWidth: 0.05, MinRuns: 2}
	variants := []struct {
		name string
		opts []SessionOption
		mc   MCOptions // what opts select
		runs int
	}{
		{"fixed", nil, MCOptions{}, 4},
		{"target-ci", []SessionOption{WithTargetCI(0.05, 0, 2, 0)}, MCOptions{TargetCI: ci}, 16},
		{"antithetic", []SessionOption{WithAntithetic(true)}, MCOptions{Antithetic: true}, 4},
		{"antithetic-target-ci", []SessionOption{WithAntithetic(true), WithTargetCI(0.05, 0, 2, 0)},
			MCOptions{TargetCI: ci, Antithetic: true}, 16},
	}
	for _, v := range variants {
		t.Run("heap4/"+v.name, func(t *testing.T) {
			want := referenceSweep(t, base, grid, v.runs, v.mc)
			for _, workers := range []int{1, 3, 7} {
				gridOpts := append([]SessionOption{WithWorkers(workers)}, v.opts...)
				pts, got := collectSweep(t, NewSession(gridOpts...), base, grid, v.runs)
				if len(got) != len(want) {
					t.Fatalf("workers=%d: %d points, want %d", workers, len(got), len(want))
				}
				for i := range want {
					if !reflect.DeepEqual(got[i], want[i]) {
						t.Errorf("workers=%d point %d (%s): grid result diverges from the reference\n got %+v\nwant %+v",
							workers, i, pts[i].Strategy.Name(), got[i], want[i])
					}
				}
			}
		})
	}
}

// TestSweepGridDedupe: grid cells whose content address coincides — the
// token-channel axis of a shared-device strategy — are simulated once and
// served as clones flagged Cached, equal to the sequential reference.
func TestSweepGridDedupe(t *testing.T) {
	base := tinyConfig(engine.Strategy{}, 3)
	grid := SweepGrid{
		Strategies: []engine.Strategy{engine.ObliviousDaly(), engine.OrderedDaly()},
		Channels:   []int{1, 2, 4},
	}
	pts, mcs := collectSweep(t, NewSession(WithWorkers(2)), base, grid, 4)
	canonical := map[string]MCResult{}
	for i, mc := range mcs {
		shared := !pts[i].Strategy.Discipline.UsesToken()
		name := pts[i].Strategy.Name()
		first, seen := canonical[name]
		switch {
		case shared && seen:
			if !mc.Cached {
				t.Errorf("point %d (%s k=%d): duplicate shared-device cell not flagged Cached", i, name, pts[i].Channels)
			}
			got := mc
			got.Cached = false
			if !reflect.DeepEqual(got, first) {
				t.Errorf("point %d (%s k=%d): deduplicated cell differs from canonical", i, name, pts[i].Channels)
			}
		case mc.Cached:
			t.Errorf("point %d (%s k=%d): unexpected Cached flag", i, name, pts[i].Channels)
		}
		if !seen {
			canonical[name] = mc
		}
	}
	if want := referenceSweep(t, base, grid, 4, MCOptions{}); !reflect.DeepEqual(mcs, want) {
		t.Errorf("deduplicated sweep diverges from the sequential reference:\n got %+v\nwant %+v", mcs, want)
	}
}

// TestSweepGridResultCache: with a cache attached, the first sweep stores
// every unique cell and a second session's identical sweep is served
// entirely from it — every row flagged Cached, values bit-identical.
func TestSweepGridResultCache(t *testing.T) {
	base := tinyConfig(engine.Strategy{}, 5)
	grid := SweepGrid{Strategies: []engine.Strategy{engine.ObliviousDaly(), engine.OrderedDaly(), engine.LeastWaste()}, Channels: []int{1, 2}}
	cache := &countingCache{}

	_, first := collectSweep(t, NewSession(WithWorkers(2), WithResultCache(cache)), base, grid, 3)
	// Oblivious-Daly k=2 deduplicates in-grid: 5 unique cells of 6.
	if cache.puts != 5 {
		t.Errorf("first sweep stored %d cells, want 5", cache.puts)
	}

	_, second := collectSweep(t, NewSession(WithWorkers(3), WithResultCache(cache)), base, grid, 3)
	for i, mc := range second {
		if !mc.Cached {
			t.Errorf("second sweep point %d not served from cache", i)
		}
		mc.Cached = false
		want := first[i]
		want.Cached = false
		if !reflect.DeepEqual(mc, want) {
			t.Errorf("second sweep point %d differs from first", i)
		}
	}
	if cache.puts != 5 {
		t.Errorf("second sweep stored %d new cells, want 0", cache.puts-5)
	}
}

// TestSweepGridCancelMidPoint: cancelling in the middle of a replicate
// chunk stops the grid scheduler promptly, surfaces context.Canceled
// attributed to the first undelivered point, and drains every worker.
func TestSweepGridCancelMidPoint(t *testing.T) {
	before := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	s := NewSession(WithWorkers(4), WithProgress(func(done, total int) {
		if done == 5 {
			cancel()
		}
	}))
	points, errf := s.Sweep(ctx, tinyConfig(engine.OrderedDaly(), 5), SweepGrid{Strategies: engine.AllStrategies()}, 50)
	seen := 0
	for range points {
		seen++
	}
	err := errf()
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled grid Sweep error = %v, want context.Canceled", err)
	}
	if !strings.Contains(err.Error(), fmt.Sprintf("sweep point %d", seen)) {
		t.Errorf("error %q does not name the first undelivered point %d", err, seen)
	}
	checkNoGoroutineLeak(t, before)
}

// TestSweepGridEarlyBreak: abandoning the pull iterator mid-grid halts
// the scheduler and leaks no goroutine; errf reports no error.
func TestSweepGridEarlyBreak(t *testing.T) {
	before := runtime.NumGoroutine()
	s := NewSession(WithWorkers(4))
	points, errf := s.Sweep(context.Background(), tinyConfig(engine.OrderedDaly(), 5), SweepGrid{Strategies: engine.AllStrategies()}, 8)
	for range points {
		break
	}
	if err := errf(); err != nil {
		t.Fatalf("errf after early break = %v, want nil", err)
	}
	checkNoGoroutineLeak(t, before)
	// The session stays usable after an abandoned sweep.
	if _, err := s.MonteCarlo(context.Background(), tinyConfig(engine.OrderedDaly(), 5), 2); err != nil {
		t.Fatalf("MonteCarlo after abandoned sweep: %v", err)
	}
}

// TestSweepGridDispatchFaultError: a SiteWorkerReplicate hook failing
// one point's replicates aborts the sweep at exactly that point — earlier
// points still deliver, the error names the point, and the workers drain.
func TestSweepGridDispatchFaultError(t *testing.T) {
	before := runtime.NumGoroutine()
	boom := errors.New("injected dispatch failure")
	restore := faultinject.Set(faultinject.SiteWorkerReplicate, func(_ context.Context, detail any) error {
		if d := detail.(faultinject.WorkerReplicate); d.Point == 2 {
			return boom
		}
		return nil
	})
	defer restore()

	s := NewSession(WithWorkers(3))
	points, errf := s.Sweep(context.Background(), tinyConfig(engine.OrderedDaly(), 5), SweepGrid{Strategies: engine.AllStrategies()}, 3)
	seen := 0
	for range points {
		seen++
	}
	if seen != 2 {
		t.Fatalf("iterator yielded %d points before the failed one, want 2", seen)
	}
	err := errf()
	if !errors.Is(err, boom) {
		t.Fatalf("errf = %v, want the injected failure", err)
	}
	if !strings.Contains(err.Error(), "sweep point 2") {
		t.Errorf("error %q does not name the failed point", err)
	}
	checkNoGoroutineLeak(t, before)
}

// TestSweepGridDispatchFaultPanic: a panicking replicate hook is caught
// by the worker's guard and surfaces as a PanicError on that point.
func TestSweepGridDispatchFaultPanic(t *testing.T) {
	before := runtime.NumGoroutine()
	restore := faultinject.Set(faultinject.SiteWorkerReplicate, faultinject.PanicOn("injected dispatch panic", func(detail any) bool {
		return detail.(faultinject.WorkerReplicate).Point == 1
	}))
	defer restore()

	s := NewSession(WithWorkers(3))
	points, errf := s.Sweep(context.Background(), tinyConfig(engine.OrderedDaly(), 5), SweepGrid{Strategies: engine.AllStrategies()}, 3)
	seen := 0
	for range points {
		seen++
	}
	if seen != 1 {
		t.Fatalf("iterator yielded %d points before the panicking one, want 1", seen)
	}
	err := errf()
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("errf = %v, want a *PanicError", err)
	}
	if !strings.Contains(err.Error(), "sweep point 1") {
		t.Errorf("error %q does not name the panicking point", err)
	}
	checkNoGoroutineLeak(t, before)
}

// TestSweepGridDispatchFaultHang: a replicate hook blocking on ctx
// simulates a stalled worker; an expiring deadline reaps it and the sweep
// reports DeadlineExceeded without leaking.
func TestSweepGridDispatchFaultHang(t *testing.T) {
	before := runtime.NumGoroutine()
	restore := faultinject.Set(faultinject.SiteWorkerReplicate, faultinject.HangUntilCancel())
	defer restore()

	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	s := NewSession(WithWorkers(2))
	points, errf := s.Sweep(ctx, tinyConfig(engine.OrderedDaly(), 5), SweepGrid{Strategies: engine.AllStrategies()}, 3)
	for range points {
		t.Fatal("a point completed despite every replicate hanging")
	}
	if err := errf(); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("errf = %v, want context.DeadlineExceeded", err)
	}
	checkNoGoroutineLeak(t, before)
}

// TestExperimentKey pins the content-addressing rules the caches rely on.
func TestExperimentKey(t *testing.T) {
	cfg := tinyConfig(engine.OrderedDaly(), 9)
	key := func(c engine.Config, runs int, opts MCOptions) string {
		t.Helper()
		k, ok := ExperimentKey(c, runs, opts)
		if !ok {
			t.Fatalf("ExperimentKey unexpectedly uncacheable for %+v", opts)
		}
		return k
	}

	base := key(cfg, 4, MCOptions{})
	if base != key(cfg, 4, MCOptions{}) {
		t.Error("equal experiments hash to different keys")
	}

	seeded := cfg
	seeded.Seed = 10
	if key(seeded, 4, MCOptions{}) == base {
		t.Error("seed change did not change the key")
	}
	if key(cfg, 5, MCOptions{}) == base {
		t.Error("run-count change did not change the key")
	}
	if key(cfg, 4, MCOptions{Antithetic: true}) == base {
		t.Error("antithetic change did not change the key")
	}
	if key(cfg, 4, MCOptions{TargetCI: TargetCI{HalfWidth: 0.01}}) == base {
		t.Error("stopping-rule change did not change the key")
	}

	// Token channels are dead configuration for shared-device strategies:
	// the k axis collapses for them and only for them.
	shared1, shared2 := tinyConfig(engine.ObliviousDaly(), 9), tinyConfig(engine.ObliviousDaly(), 9)
	shared2.Channels = 2
	if key(shared1, 4, MCOptions{}) != key(shared2, 4, MCOptions{}) {
		t.Error("channel count changed a shared-device strategy's key")
	}
	token2 := cfg
	token2.Channels = 2
	if key(token2, 4, MCOptions{}) == base {
		t.Error("channel count did not change a token strategy's key")
	}

	// Uncacheable experiments: per-run observation hooks, traces, and
	// non-positive run counts.
	if _, ok := ExperimentKey(cfg, 4, MCOptions{onResult: func(int, engine.Result) {}}); ok {
		t.Error("onResult experiment reported cacheable")
	}
	traced := cfg
	traced.Trace = func(engine.TraceEvent) {}
	if _, ok := ExperimentKey(traced, 4, MCOptions{}); ok {
		t.Error("traced experiment reported cacheable")
	}
	if _, ok := ExperimentKey(cfg, 0, MCOptions{}); ok {
		t.Error("zero-run experiment reported cacheable")
	}
}

// collectPoints runs pts through SweepPoints and returns every point's
// result and failure, failing the test on a run-level error.
func collectPoints(t *testing.T, s *Session, pts []GridPoint, runs int) ([]MCResult, []error) {
	t.Helper()
	mcs := make([]MCResult, len(pts))
	errs := make([]error, len(pts))
	next := 0
	err := s.SweepPoints(context.Background(), pts, runs, func(p int, mc MCResult, err error) bool {
		if p != next {
			t.Fatalf("SweepPoints yielded point %d, want %d", p, next)
		}
		next++
		mcs[p], errs[p] = mc, err
		return true
	})
	if err != nil {
		t.Fatalf("SweepPoints: %v", err)
	}
	if next != len(pts) {
		t.Fatalf("SweepPoints yielded %d of %d points", next, len(pts))
	}
	return mcs, errs
}

// TestSweepPointsFailuresInBand: a failed point is reported in band and
// the grid runs on. A poisoned point's repeated cell takes its failure
// without being simulated, a cell repeating a point whose resume
// snapshot is rejected at setup fails with it, a point past its Timeout
// fails with context.DeadlineExceeded, and every other point matches
// the plain sweep.
func TestSweepPointsFailuresInBand(t *testing.T) {
	before := runtime.NumGoroutine()
	base := tinyConfig(engine.ObliviousDaly(), 13)
	const runs = 4
	var cfgs []engine.Config
	for _, k := range []int{1, 2} {
		for _, strat := range []engine.Strategy{engine.ObliviousDaly(), engine.OrderedDaly()} {
			cfg := base
			cfg.Channels, cfg.Strategy = k, strat
			cfgs = append(cfgs, cfg)
		}
	}
	// Points 0 and 2 are the same cell (Oblivious-Daly ignores k), as
	// are 4 and 5; 1 and 3 are distinct.
	other := base
	other.Seed++
	cfgs = append(cfgs, other, other)
	_, want := collectSweep(t, NewSession(WithWorkers(2)), base,
		SweepGrid{Channels: []int{1, 2}, Strategies: []engine.Strategy{engine.ObliviousDaly(), engine.OrderedDaly()}}, runs)

	var simulated [6]atomic.Int64
	restore := faultinject.Set(faultinject.SiteWorkerReplicate, func(ctx context.Context, detail any) error {
		d := detail.(faultinject.WorkerReplicate)
		simulated[d.Point].Add(1)
		switch d.Point {
		case 0:
			if d.Run == 1 {
				panic("poisoned cell")
			}
		case 3:
			<-ctx.Done()
			return ctx.Err()
		}
		return nil
	})
	defer restore()
	pts := make([]GridPoint, len(cfgs))
	for i, cfg := range cfgs {
		pts[i] = GridPoint{Config: cfg}
	}
	pts[3].Timeout = 20 * time.Millisecond
	pts[4].Resume = &MCSnapshot{Folded: runs + 1}
	for _, workers := range []int{1, 3} {
		for i := range simulated {
			simulated[i].Store(0)
		}
		mcs, errs := collectPoints(t, NewSession(WithWorkers(workers)), pts, runs)
		var pe *PanicError
		if !errors.As(errs[0], &pe) || errs[2] != errs[0] {
			t.Fatalf("workers=%d: poisoned cell %v, its repeat %v; want one shared *PanicError", workers, errs[0], errs[2])
		}
		if n := simulated[2].Load(); n != 0 {
			t.Fatalf("workers=%d: the repeat of the poisoned cell simulated %d replicates", workers, n)
		}
		if errs[1] != nil || !reflect.DeepEqual(mcs[1], want[1]) {
			t.Fatalf("workers=%d: clean point 1: %v\n got %+v\nwant %+v", workers, errs[1], mcs[1], want[1])
		}
		if !errors.Is(errs[3], context.DeadlineExceeded) {
			t.Fatalf("workers=%d: timed-out point reported %v, want context.DeadlineExceeded", workers, errs[3])
		}
		if errs[4] == nil || !strings.Contains(errs[4].Error(), "folds") || errs[5] != errs[4] {
			t.Fatalf("workers=%d: rejected snapshot %v, its repeat %v; want one shared error", workers, errs[4], errs[5])
		}
	}
	checkNoGoroutineLeak(t, before)
}

// TestSweepPointsReplayedResult: a point handed in as already done is
// yielded as is without simulating, and it serves a later repeat of its
// cell and the result cache like a simulated result.
func TestSweepPointsReplayedResult(t *testing.T) {
	base := tinyConfig(engine.ObliviousDaly(), 17)
	const runs = 4
	_, want := collectSweep(t, NewSession(WithWorkers(2)), base, SweepGrid{}, runs)
	replayed := want[0]
	replayed.Cached = true // journaled as a cache hit: provenance stays
	k2 := base
	k2.Channels = 2
	restore := faultinject.Set(faultinject.SiteWorkerReplicate,
		faultinject.PanicOn("replayed grid simulated", func(any) bool { return true }))
	defer restore()
	cache := &countingCache{}
	mcs, errs := collectPoints(t, NewSession(WithWorkers(2), WithResultCache(cache)),
		[]GridPoint{{Config: base, Done: &replayed}, {Config: k2}}, runs)
	if errs[0] != nil || errs[1] != nil {
		t.Fatalf("replayed grid failed: %v, %v", errs[0], errs[1])
	}
	if !reflect.DeepEqual(mcs[0], replayed) {
		t.Fatalf("replayed point changed:\n got %+v\nwant %+v", mcs[0], replayed)
	}
	wantDup := want[0]
	wantDup.Cached = true
	if !reflect.DeepEqual(mcs[1], wantDup) {
		t.Fatalf("repeat of the replayed cell:\n got %+v\nwant %+v", mcs[1], wantDup)
	}
	if len(cache.m) != 1 {
		t.Fatalf("cache holds %d entries, want the replayed cell's", len(cache.m))
	}
	for _, mc := range cache.m {
		if mc.Cached || !reflect.DeepEqual(mc, want[0]) {
			t.Fatalf("cache entry %+v, want the canonical result %+v", mc, want[0])
		}
	}
}

// TestSweepMatchesPointwiseMonteCarlo pins Sweep against the ground truth:
// every grid point's MCResult must be bit-identical to an independent
// Session.MonteCarlo of that point's configuration on a fresh session,
// even though the sweep reuses one arena set across the whole grid.
func TestSweepMatchesPointwiseMonteCarlo(t *testing.T) {
	base := tinyConfig(engine.OrderedDaly(), 29)
	grid := SweepGrid{
		BandwidthsBps: []float64{units.GBps(0.25), units.GBps(0.5)},
		Strategies:    []engine.Strategy{engine.OrderedNBDaly(), engine.LeastWaste()},
	}
	const runs = 3
	pts, got := collectSweep(t, NewSession(WithWorkers(2), WithKeepWasteRatios(true)), base, grid, runs)
	if len(got) != 4 {
		t.Fatalf("sweep delivered %d points, want 4", len(got))
	}
	for i, pt := range pts {
		if pt.Index != i {
			t.Fatalf("point %d delivered with Index %d", i, pt.Index)
		}
		cfg := base
		cfg.Platform.BandwidthBps = pt.BandwidthBps
		cfg.Platform.NodeMTBFSeconds = pt.NodeMTBFSeconds
		cfg.Strategy = pt.Strategy
		want, err := NewSession(WithWorkers(2), WithKeepWasteRatios(true)).MonteCarlo(context.Background(), cfg, runs)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got[i], want) {
			t.Fatalf("point %d (%s @ %v B/s) diverged:\n sweep %+v\n fresh %+v",
				i, pt.Strategy.Name(), pt.BandwidthBps, got[i], want)
		}
	}
}

// TestSweepChannelAxis: the channel-count axis enumerates between the
// failure and strategy axes, each point runs with its k applied, and every
// point's result is bit-identical to an independent evaluation of that
// configuration.
func TestSweepChannelAxis(t *testing.T) {
	base := tinyConfig(engine.OrderedNBDaly(), 43)
	grid := SweepGrid{
		Channels:   []int{1, 2},
		Strategies: []engine.Strategy{engine.OrderedNBDaly(), engine.LeastWaste()},
	}
	const runs = 2
	pts, got := collectSweep(t, NewSession(WithWorkers(2), WithKeepWasteRatios(true)), base, grid, runs)
	if len(pts) != 4 {
		t.Fatalf("sweep delivered %d points, want 4", len(pts))
	}
	wantK := []int{1, 1, 2, 2} // channels outer, strategy inner
	for i, pt := range pts {
		if pt.Channels != wantK[i] {
			t.Fatalf("point %d has Channels %d, want %d", i, pt.Channels, wantK[i])
		}
		cfg := base
		cfg.Channels = pt.Channels
		cfg.Strategy = pt.Strategy
		want, err := NewSession(WithWorkers(2), WithKeepWasteRatios(true)).MonteCarlo(context.Background(), cfg, runs)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got[i], want) {
			t.Fatalf("point %d (%s, k=%d) diverged from pointwise evaluation",
				i, pt.Strategy.Name(), pt.Channels)
		}
	}
	// More channels cannot hurt a token discipline on this workload: the
	// k=2 Ordered-NB mean waste is at most the k=1 mean plus noise slack.
	if got[2].Summary.Mean > got[0].Summary.Mean+0.05 {
		t.Errorf("k=2 mean waste %.4f well above k=1 %.4f", got[2].Summary.Mean, got[0].Summary.Mean)
	}
}

// TestSweepGridDefaults: empty axes inherit the base configuration, and a
// fully empty grid is a single point.
func TestSweepGridDefaults(t *testing.T) {
	base := tinyConfig(engine.LeastWaste(), 31)
	pts := SweepGrid{}.Points(base)
	if len(pts) != 1 {
		t.Fatalf("empty grid has %d points, want 1", len(pts))
	}
	pt := pts[0]
	if pt.BandwidthBps != base.Platform.BandwidthBps ||
		pt.NodeMTBFSeconds != base.Platform.NodeMTBFSeconds ||
		pt.Strategy != base.Strategy ||
		pt.Failure.Model != base.FailureModel {
		t.Fatalf("default point %+v does not match base", pt)
	}
	s := NewSession(WithWorkers(1))
	if _, mcs := collectSweep(t, s, base, SweepGrid{}, 2); len(mcs) != 1 {
		t.Fatalf("empty-grid sweep yielded %d points, want 1", len(mcs))
	}
	points, errf := s.Sweep(context.Background(), base, SweepGrid{}, 0)
	for range points {
		t.Fatal("zero-run sweep yielded a point")
	}
	if errf() == nil {
		t.Fatal("zero runs accepted")
	}
}
