package engine

import (
	"context"
	"reflect"
	"testing"

	"repro/internal/burstbuffer"
	"repro/internal/units"
)

// arenaConfigs returns the configurations the reuse invariant is pinned
// on: every registered strategy (the paper's four disciplines plus the
// registry extensions — Random's reseeded selector and Fair-Share's
// served-time accounting are exactly the state a leaky reset would
// corrupt), a burst-buffer setup, and a multi-channel token device.
func arenaConfigs() map[string]Config {
	bb := tinyConfig(OrderedDaly(), 0)
	bbCfg := burstbuffer.Default()
	bb.BurstBuffer = &bbCfg
	k2 := tinyConfig(LeastWaste(), 0)
	k2.Channels = 2
	// Random + burst buffer routes the stateful selector through the
	// Background wrapper; a reset that failed to forward would leak
	// random state across replicates and break bit-identity here.
	bbRandom := tinyConfig(RandomDaly(), 0)
	bbRandomCfg := burstbuffer.Default()
	bbRandom.BurstBuffer = &bbRandomCfg
	cfgs := map[string]Config{
		"burst-buffer":        bb,
		"burst-buffer-random": bbRandom,
		"least-waste-k2":      k2,
	}
	for _, strat := range AllStrategies() {
		cfgs[strat.Name()] = tinyConfig(strat, 0)
	}
	return cfgs
}

// TestArenaBitIdentity pins the arena reuse invariant: a replicate run in
// a reused arena must be bit-identical to a fresh-build run of the same
// seed, in every Result field, for every discipline and the burst-buffer
// path. Seed A runs fresh; then one arena runs seed B (dirtying every
// pool) followed by seed A again.
func TestArenaBitIdentity(t *testing.T) {
	const seedA, seedB = 12345, 999
	for name, cfg := range arenaConfigs() {
		t.Run(name, func(t *testing.T) {
			cfg.Seed = seedA
			fresh := mustRun(t, cfg)

			a, err := NewArena(cfg)
			if err != nil {
				t.Fatalf("NewArena: %v", err)
			}
			if _, err := a.Run(seedB); err != nil {
				t.Fatalf("arena run (seed B): %v", err)
			}
			reused, err := a.Run(seedA)
			if err != nil {
				t.Fatalf("arena run (seed A): %v", err)
			}
			if !reflect.DeepEqual(fresh, reused) {
				t.Fatalf("reused arena diverged from fresh build:\n fresh  %+v\n reused %+v", fresh, reused)
			}
			// A third pass over the same seed must also be stable.
			again, err := a.Run(seedA)
			if err != nil {
				t.Fatalf("arena rerun: %v", err)
			}
			if !reflect.DeepEqual(fresh, again) {
				t.Fatalf("second reuse of seed A diverged:\n fresh %+v\n again %+v", fresh, again)
			}
		})
	}
}

// TestArenaReconfigureBitIdentity pins the same invariant across
// Reconfigure: an arena cycled through a different scenario (other
// bandwidth, strategy and failure model) and back must reproduce the
// fresh-build result exactly — the property the Sweep driver rests on.
func TestArenaReconfigureBitIdentity(t *testing.T) {
	cfgA := tinyConfig(LeastWaste(), 7)
	cfgB := tinyConfig(OrderedNBDaly(), 7)
	cfgB.Platform = tinyPlatform(0.25, 0.5)

	fresh := mustRun(t, cfgA)

	a, err := NewArena(cfgB)
	if err != nil {
		t.Fatalf("NewArena: %v", err)
	}
	if _, err := a.Run(7); err != nil {
		t.Fatalf("run under config B: %v", err)
	}
	if err := a.Reconfigure(cfgA); err != nil {
		t.Fatalf("Reconfigure: %v", err)
	}
	got, err := a.Run(7)
	if err != nil {
		t.Fatalf("run under config A: %v", err)
	}
	if !reflect.DeepEqual(fresh, got) {
		t.Fatalf("reconfigured arena diverged from fresh build:\n fresh %+v\n got   %+v", fresh, got)
	}
}

// TestArenaPairedBaseline checks the paired-baseline path works through a
// reused arena (the nested baseline arena is itself reused).
func TestArenaPairedBaseline(t *testing.T) {
	cfg := tinyConfig(OrderedNBDaly(), 17)
	cfg.PairedBaseline = true
	fresh := mustRun(t, cfg)

	a, err := NewArena(cfg)
	if err != nil {
		t.Fatalf("NewArena: %v", err)
	}
	if _, err := a.Run(3); err != nil {
		t.Fatal(err)
	}
	got, err := a.Run(17)
	if err != nil {
		t.Fatal(err)
	}
	if got.PairedWasteRatio != fresh.PairedWasteRatio {
		t.Fatalf("paired ratio %v != fresh %v", got.PairedWasteRatio, fresh.PairedWasteRatio)
	}
}

// held returns how many jobRun structs the pool's chunks hold.
func (p *runPool) held() int { return len(p.chunks) * runChunkSize }

// TestArenaPoolFollowsLiveInstances pins the memory bound of instance
// recycling: in a replicate whose killed instances far outnumber the live
// ones, the arena holds fewer jobRun structs than the replicate created.
// A pool that kept every instance ever created would hold at least as many
// structs as it handed out.
func TestArenaPoolFollowsLiveInstances(t *testing.T) {
	cfg := tinyConfig(LeastWaste(), 5)
	cfg.Platform = tinyPlatform(0.5, 0.02) // a system MTBF of about 40 minutes
	a, err := NewArena(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := a.Run(cfg.Seed)
	if err != nil {
		t.Fatal(err)
	}
	created, held := len(a.s.runs), a.pool.held()
	if created != res.JobsGenerated+res.JobsFailed {
		t.Fatalf("%d instances created, want %d generated + %d killed", created, res.JobsGenerated, res.JobsFailed)
	}
	if res.JobsFailed < 2*res.JobsGenerated {
		t.Fatalf("only %d instances killed for %d jobs; the scenario must kill far more instances than are live", res.JobsFailed, res.JobsGenerated)
	}
	if held >= created {
		t.Fatalf("arena holds %d jobRun structs after creating %d instances; finished instances are not recycled", held, created)
	}
	t.Logf("%d jobs, %d instances created, %d structs held", res.JobsGenerated, created, held)
}

// TestArenaInvalidConfig ensures configuration errors surface from both
// NewArena and Reconfigure, and that a failed Reconfigure does not run.
func TestArenaInvalidConfig(t *testing.T) {
	bad := tinyConfig(OrderedDaly(), 1)
	bad.Platform.Nodes = 0
	if _, err := NewArena(bad); err == nil {
		t.Fatal("NewArena accepted an invalid config")
	}
	a, err := NewArena(tinyConfig(OrderedDaly(), 1))
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Reconfigure(bad); err == nil {
		t.Fatal("Reconfigure accepted an invalid config")
	}
}

// TestSweepMatchesPointwiseMonteCarlo pins Sweep against the ground truth:
// every grid point's MCResult must be bit-identical to an independent
// Session.MonteCarlo of that point's configuration on a fresh session,
// even though the sweep reuses one arena set across the whole grid.
func TestSweepMatchesPointwiseMonteCarlo(t *testing.T) {
	base := tinyConfig(OrderedDaly(), 29)
	grid := SweepGrid{
		BandwidthsBps: []float64{units.GBps(0.25), units.GBps(0.5)},
		Strategies:    []Strategy{OrderedNBDaly(), LeastWaste()},
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
	base := tinyConfig(OrderedNBDaly(), 43)
	grid := SweepGrid{
		Channels:   []int{1, 2},
		Strategies: []Strategy{OrderedNBDaly(), LeastWaste()},
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
	base := tinyConfig(LeastWaste(), 31)
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
