package engine

import (
	"reflect"
	"testing"

	"repro/internal/burstbuffer"
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
