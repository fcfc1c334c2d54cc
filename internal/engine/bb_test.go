package engine

import (
	"math"
	"testing"

	"repro/internal/burstbuffer"
	"repro/internal/units"
)

func bbConfig(strat Strategy, seed uint64, bb *burstbuffer.Config) Config {
	cfg := tinyConfig(strat, seed)
	cfg.BurstBuffer = bb
	return cfg
}

func defaultBB() *burstbuffer.Config {
	bb := burstbuffer.Default()
	return &bb
}

func TestBurstBufferRunsAllStrategies(t *testing.T) {
	for _, strat := range AllStrategies() {
		res := mustRun(t, bbConfig(strat, 3, defaultBB()))
		if res.Checkpoints == 0 {
			t.Errorf("%s: no buffer commits", strat.Name())
		}
		if res.Drains == 0 {
			t.Errorf("%s: no drains landed", strat.Name())
		}
		if res.WasteRatio < 0 || res.WasteRatio > 1 {
			t.Errorf("%s: waste ratio %v out of range", strat.Name(), res.WasteRatio)
		}
	}
}

// The §8 effect has two working regimes, and one genuine failure mode the
// model exposes (recorded in EXPERIMENTS.md):
//
//  1. a resilient buffer makes checkpoints durable at (cheap) commit
//     time, slashing waste whenever failures matter;
//  2. a node-local buffer pays off when the PFS can absorb its drain
//     traffic at the shortened Daly period;
//  3. a node-local buffer against a starved PFS is a TRAP: drains rarely
//     land, durability collapses, and rollbacks grow — waste increases.
func TestResilientBufferReducesWasteUnderFrequentFailures(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-seed comparison in -short mode")
	}
	mean := func(bb *burstbuffer.Config) float64 {
		sum := 0.0
		const n = 4
		for seed := uint64(0); seed < n; seed++ {
			cfg := bbConfig(OrderedDaly(), seed, bb)
			cfg.Platform = tinyPlatform(0.5, 0.1) // ~3.4 h system MTBF
			sum += mustRun(t, cfg).WasteRatio
		}
		return sum / n
	}
	resilient := burstbuffer.Default()
	resilient.Resilient = true
	with := mean(&resilient)
	without := mean(nil)
	if with >= without {
		t.Errorf("resilient buffer did not reduce waste under frequent failures: %.3f with vs %.3f without", with, without)
	}
}

func TestNodeLocalBufferReducesWasteWithAdequatePFS(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-seed comparison in -short mode")
	}
	mean := func(bb *burstbuffer.Config) float64 {
		sum := 0.0
		const n = 4
		for seed := uint64(0); seed < n; seed++ {
			cfg := bbConfig(OrderedDaly(), seed, bb)
			// A PFS that can absorb the drain traffic of the shortened
			// period, with failures frequent enough to matter.
			cfg.Platform = tinyPlatform(5, 0.1)
			sum += mustRun(t, cfg).WasteRatio
		}
		return sum / n
	}
	with := mean(defaultBB())
	without := mean(nil)
	if with >= without {
		t.Errorf("node-local buffer did not pay off on an adequate PFS: %.3f with vs %.3f without", with, without)
	}
}

func TestNaiveNodeLocalBufferOnStarvedPFSBackfires(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-seed comparison in -short mode")
	}
	mean := func(bb *burstbuffer.Config) float64 {
		sum := 0.0
		const n = 4
		for seed := uint64(0); seed < n; seed++ {
			cfg := bbConfig(OrderedDaly(), seed, bb)
			cfg.Platform = tinyPlatform(0.5, 0.1)
			sum += mustRun(t, cfg).WasteRatio
		}
		return sum / n
	}
	naive := burstbuffer.Default()
	naive.Period = burstbuffer.PeriodNaive
	with := mean(&naive)
	without := mean(nil)
	if with <= without {
		t.Errorf("expected the starved-PFS naive-period trap: %.3f with vs %.3f without", with, without)
	}
}

// The cooperative period model (generalised Theorem 1 pricing the I/O
// constraint at drain occupancy) must repair the naive trap: on the same
// starved PFS it may not be meaningfully worse than no buffer at all.
func TestCooperativePeriodRepairsTheTrap(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-seed comparison in -short mode")
	}
	mean := func(bb *burstbuffer.Config) float64 {
		sum := 0.0
		const n = 4
		for seed := uint64(0); seed < n; seed++ {
			cfg := bbConfig(OrderedDaly(), seed, bb)
			cfg.Platform = tinyPlatform(0.5, 0.1)
			sum += mustRun(t, cfg).WasteRatio
		}
		return sum / n
	}
	naive := burstbuffer.Default()
	naive.Period = burstbuffer.PeriodNaive
	coop := mean(defaultBB()) // default = PeriodCooperative
	if nv := mean(&naive); coop >= nv {
		t.Errorf("cooperative periods (%.3f) not better than naive (%.3f)", coop, nv)
	}
	if without := mean(nil); coop > without+0.05 {
		t.Errorf("cooperative buffer (%.3f) clearly worse than no buffer (%.3f)", coop, without)
	}
}

// A resilient buffer can only improve on a node-local one: checkpoints
// are durable at buffer-commit time and recovery reads skip the PFS.
func TestResilientBufferBeatsNodeLocal(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-seed comparison in -short mode")
	}
	mean := func(resilient bool) float64 {
		sum := 0.0
		const n = 4
		for seed := uint64(0); seed < n; seed++ {
			bb := burstbuffer.Default()
			bb.Resilient = resilient
			sum += mustRun(t, bbConfig(LeastWaste(), seed, &bb)).WasteRatio
		}
		return sum / n
	}
	if res, local := mean(true), mean(false); res > local+0.02 {
		t.Errorf("resilient buffer (%.3f) clearly worse than node-local (%.3f)", res, local)
	}
}

// Conservation must survive the two-tier path.
func TestBurstBufferConservation(t *testing.T) {
	for _, resilient := range []bool{false, true} {
		bb := burstbuffer.Default()
		bb.Resilient = resilient
		res := mustRun(t, bbConfig(LeastWaste(), 9, &bb))
		sum := res.UsefulNodeSeconds + res.WasteNodeSeconds
		alloc := res.Utilization * float64(tinyPlatform(0.5, 1).Nodes) * units.Days(5)
		if math.Abs(sum-alloc) > 1e-6*alloc {
			t.Errorf("resilient=%v: useful+waste %.6g != allocated %.6g", resilient, sum, alloc)
		}
	}
}

// Burst-buffer commits shorten the experienced commit time C, so the Daly
// period shrinks and checkpoints become more frequent (§8).
func TestBurstBufferIncreasesCheckpointFrequency(t *testing.T) {
	with := mustRun(t, bbConfig(OrderedNBDaly(), 21, defaultBB()))
	without := mustRun(t, bbConfig(OrderedNBDaly(), 21, nil))
	if with.Checkpoints <= without.Checkpoints {
		t.Errorf("buffer commits %d not more frequent than PFS commits %d",
			with.Checkpoints, without.Checkpoints)
	}
}

// With a node-local buffer, a checkpoint whose drain has not landed is not
// durable: killing the job must roll back to the last drained image. We
// verify indirectly: under a drain-starved PFS (huge drains, tiny PFS),
// lost work must exceed the resilient-buffer case where every buffer
// commit is durable.
func TestDrainDurabilitySemantics(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-seed comparison in -short mode")
	}
	lost := func(resilient bool) float64 {
		sum := 0.0
		const n = 4
		for seed := uint64(0); seed < n; seed++ {
			bb := burstbuffer.Default()
			bb.Resilient = resilient
			cfg := bbConfig(OrderedNBDaly(), seed, &bb)
			cfg.Platform = tinyPlatform(0.05, 0.5) // starved PFS, frequent failures
			res := mustRun(t, cfg)
			sum += res.WasteByCategory()["lost-work"]
		}
		return sum / n
	}
	local, resilient := lost(false), lost(true)
	if local <= resilient {
		t.Errorf("node-local lost work (%.3g) not above resilient (%.3g)", local, resilient)
	}
}

func TestBurstBufferResilientNoDrain(t *testing.T) {
	bb := burstbuffer.Config{PerNodeBandwidthBps: 1e9, Resilient: true, DrainToPFS: false}
	res := mustRun(t, bbConfig(OrderedDaly(), 27, &bb))
	if res.Drains != 0 {
		t.Fatalf("drain-free config landed %d drains", res.Drains)
	}
	if res.Checkpoints == 0 {
		t.Fatal("no buffer commits")
	}
}

func TestBurstBufferInvalidConfigRejected(t *testing.T) {
	bb := burstbuffer.Config{PerNodeBandwidthBps: 0, DrainToPFS: true}
	cfg := bbConfig(OrderedDaly(), 1, &bb)
	if _, err := NewArena(cfg); err == nil {
		t.Fatal("invalid burst-buffer config accepted")
	}
}

func TestBurstBufferDeterminism(t *testing.T) {
	a := mustRun(t, bbConfig(LeastWaste(), 33, defaultBB()))
	b := mustRun(t, bbConfig(LeastWaste(), 33, defaultBB()))
	if a.WasteRatio != b.WasteRatio || a.Drains != b.Drains || a.Events != b.Events {
		t.Fatalf("burst-buffer runs not deterministic: %+v vs %+v", a, b)
	}
}
