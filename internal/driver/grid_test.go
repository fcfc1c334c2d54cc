package driver

import (
	"context"
	"reflect"
	"sync"
	"testing"

	"repro/internal/engine"
	"repro/internal/platform"
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
