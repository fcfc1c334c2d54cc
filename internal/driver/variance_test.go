package driver

import (
	"context"
	"errors"
	"math"
	"reflect"
	"runtime"
	"testing"

	"repro/internal/engine"
	"repro/internal/rng"
	"repro/internal/stats"
)

// TestCompareCRNBitIdentity pins the common-random-numbers schedule for
// every registered strategy: run i of any experiment is the arena
// replicate of rng.ReplicateSeed(cfg.Seed, i) — so Compare provably pairs
// draws across strategies — and Session.Compare's per-strategy result is
// bit-identical to a standalone Session.MonteCarlo of that strategy.
func TestCompareCRNBitIdentity(t *testing.T) {
	ctx := context.Background()
	base := tinyConfig(engine.Strategy{}, 29)
	strategies := engine.AllStrategies()
	const runs = 3

	s := NewSession(WithWorkers(2), WithKeepResults(true), WithKeepWasteRatios(true))
	compared, err := s.Compare(ctx, base, strategies, runs)
	if err != nil {
		t.Fatal(err)
	}
	for k, strat := range strategies {
		cfg := base
		cfg.Strategy = strat
		solo, err := NewSession(WithWorkers(2), WithKeepResults(true), WithKeepWasteRatios(true)).
			MonteCarlo(ctx, cfg, runs)
		if err != nil {
			t.Fatalf("%s: %v", strat.Name(), err)
		}
		if !reflect.DeepEqual(compared[k], solo) {
			t.Fatalf("%s: Compare entry diverged from standalone MonteCarlo", strat.Name())
		}
		arena, err := engine.NewArena(cfg)
		if err != nil {
			t.Fatalf("%s: %v", strat.Name(), err)
		}
		for i := 0; i < runs; i++ {
			want, err := arena.Run(rng.ReplicateSeed(base.Seed, i))
			if err != nil {
				t.Fatalf("%s run %d: %v", strat.Name(), i, err)
			}
			if !reflect.DeepEqual(compared[k].Results[i], want) {
				t.Fatalf("%s run %d is not the CRN replicate of ReplicateSeed(%d, %d)",
					strat.Name(), i, base.Seed, i)
			}
		}
	}
}

// TestSessionTargetCIStopsEarly: a generous target halts the experiment
// at the minimum replicate count, with every materialisation truncated
// consistently to the delivered prefix.
func TestSessionTargetCIStopsEarly(t *testing.T) {
	before := runtime.NumGoroutine()
	var streamed []int
	s := NewSession(
		WithWorkers(3),
		WithKeepResults(true),
		WithKeepWasteRatios(true),
		WithOnResult(func(i int, r engine.Result) { streamed = append(streamed, i) }),
		WithTargetCI(10, 0, 0, 0), // waste ratios are O(1): satisfied immediately
	)
	mc, err := s.MonteCarlo(context.Background(), tinyConfig(engine.OrderedNBDaly(), 3), 10_000)
	if err != nil {
		t.Fatal(err)
	}
	if mc.RunsUsed != 8 { // the documented MinRuns default
		t.Fatalf("RunsUsed = %d, want the default MinRuns 8", mc.RunsUsed)
	}
	if len(mc.Results) != 8 || len(mc.WasteRatios) != 8 || mc.Summary.N != 8 {
		t.Fatalf("materialisations not truncated to the stopped prefix: results %d, ratios %d, summary N %d",
			len(mc.Results), len(mc.WasteRatios), mc.Summary.N)
	}
	for i, d := range streamed {
		if d != i {
			t.Fatalf("streamed order %v is not the in-order prefix", streamed)
		}
	}
	if len(streamed) != 8 {
		t.Fatalf("streamed %d results, want 8", len(streamed))
	}
	if mc.CIHalfWidth > 10 || mc.Confidence != 0.95 {
		t.Fatalf("stopped CI (%v at %v) inconsistent with the target", mc.CIHalfWidth, mc.Confidence)
	}
	checkNoGoroutineLeak(t, before)
}

// TestSessionTargetCIBounds: an unreachable target runs to the cap —
// the runs argument by default, TargetCI.MaxRuns when set (which may
// exceed the runs argument) — and MinRuns delays the first stopping
// decision.
func TestSessionTargetCIBounds(t *testing.T) {
	ctx := context.Background()
	cfg := tinyConfig(engine.OrderedNBDaly(), 5)

	unreachable := NewSession(WithTargetCI(1e-12, 0, 0, 0))
	mc, err := unreachable.MonteCarlo(ctx, cfg, 12)
	if err != nil {
		t.Fatal(err)
	}
	if mc.RunsUsed != 12 {
		t.Fatalf("unreachable target stopped at %d runs, want the full 12", mc.RunsUsed)
	}

	extended := NewSession(WithTargetCI(1e-12, 0, 0, 17))
	mc, err = extended.MonteCarlo(ctx, cfg, 5)
	if err != nil {
		t.Fatal(err)
	}
	if mc.RunsUsed != 17 {
		t.Fatalf("MaxRuns=17 ran %d replicates, want 17 (beyond the runs argument)", mc.RunsUsed)
	}

	minimum := NewSession(WithTargetCI(10, 0, 11, 0))
	mc, err = minimum.MonteCarlo(ctx, cfg, 100)
	if err != nil {
		t.Fatal(err)
	}
	if mc.RunsUsed != 11 {
		t.Fatalf("MinRuns=11 stopped at %d runs, want 11", mc.RunsUsed)
	}
}

// TestSessionTargetCIPrefixBitIdentity: a sequentially stopped experiment
// is byte-identical to the fixed-runs experiment of exactly RunsUsed
// replicates — stopping changes where the experiment ends, never what any
// replicate computes.
func TestSessionTargetCIPrefixBitIdentity(t *testing.T) {
	ctx := context.Background()
	cfg := tinyConfig(engine.LeastWaste(), 43)
	stopped, err := NewSession(WithWorkers(2), WithKeepResults(true), WithKeepWasteRatios(true),
		WithTargetCI(10, 0, 0, 0)).MonteCarlo(ctx, cfg, 1000)
	if err != nil {
		t.Fatal(err)
	}
	fixed, err := NewSession(WithWorkers(2), WithKeepResults(true), WithKeepWasteRatios(true)).
		MonteCarlo(ctx, cfg, stopped.RunsUsed)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(stopped, fixed) {
		t.Fatalf("stopped experiment diverged from its fixed-runs prefix:\n stopped %+v\n fixed   %+v", stopped, fixed)
	}
}

// TestSessionAntitheticArenaPairing: antithetic runs 2i and 2i+1 are the
// plain and complemented arena replicates of the same CRN seed, and the
// experiment's CI comes from the pair-average estimator while the summary
// stays per-replicate.
func TestSessionAntitheticArenaPairing(t *testing.T) {
	ctx := context.Background()
	cfg := tinyConfig(engine.OrderedNBDaly(), 17)
	const runs = 6
	mc, err := NewSession(WithWorkers(2), WithKeepResults(true), WithKeepWasteRatios(true),
		WithAntithetic(true)).MonteCarlo(ctx, cfg, runs)
	if err != nil {
		t.Fatal(err)
	}
	arena, err := engine.NewArena(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < runs; i++ {
		want, err := arena.RunAnti(rng.ReplicateSeed(cfg.Seed, i/2), i%2 == 1)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(mc.Results[i], want) {
			t.Fatalf("antithetic run %d is not RunAnti(ReplicateSeed(seed, %d), %v)", i, i/2, i%2 == 1)
		}
	}
	// The pair members must actually differ — complemented draws change
	// the trajectory — while sharing the seed's job mix size.
	if mc.Results[0].WasteRatio == mc.Results[1].WasteRatio &&
		mc.Results[2].WasteRatio == mc.Results[3].WasteRatio {
		t.Fatal("antithetic twins are identical to their plain members; complements not applied")
	}
	var pairAvg stats.Accumulator
	for i := 0; i+1 < runs; i += 2 {
		pairAvg.Add((mc.WasteRatios[i] + mc.WasteRatios[i+1]) / 2)
	}
	if want := pairAvg.HalfWidth(0.95); math.Abs(mc.CIHalfWidth-want) > 1e-15 {
		t.Fatalf("antithetic CIHalfWidth = %v, want pair-average half-width %v", mc.CIHalfWidth, want)
	}
	if mc.Summary.N != runs {
		t.Fatalf("summary N = %d, want per-replicate %d", mc.Summary.N, runs)
	}
}

// TestSessionAntitheticTargetCIPairBoundary: with antithetic variates the
// stopping rule only fires at pair boundaries, so RunsUsed is always
// even.
func TestSessionAntitheticTargetCIPairBoundary(t *testing.T) {
	mc, err := NewSession(WithAntithetic(true), WithTargetCI(10, 0, 9, 0)).
		MonteCarlo(context.Background(), tinyConfig(engine.OrderedNBDaly(), 11), 100)
	if err != nil {
		t.Fatal(err)
	}
	if mc.RunsUsed%2 != 0 {
		t.Fatalf("antithetic experiment stopped mid-pair at %d runs", mc.RunsUsed)
	}
	if mc.RunsUsed != 10 { // MinRuns 9 rounds up to the pair boundary
		t.Fatalf("RunsUsed = %d, want 10 (MinRuns 9 rounded to a pair boundary)", mc.RunsUsed)
	}
}

// TestSessionTargetCICancelDrain: cancelling an experiment that is also
// under a sequential-stopping rule drains workers and reports ctx.Err()
// through the same path as a plain cancellation.
func TestSessionTargetCICancelDrain(t *testing.T) {
	before := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	delivered := 0
	s := NewSession(
		WithWorkers(4),
		WithTargetCI(1e-12, 0, 0, 0), // unreachable: only cancel can stop it
		WithOnResult(func(i int, r engine.Result) {
			delivered++
			if delivered == 5 {
				cancel()
			}
		}),
	)
	_, err := s.MonteCarlo(ctx, tinyConfig(engine.OrderedNBDaly(), 3), 10_000)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled sequential experiment returned %v, want context.Canceled", err)
	}
	checkNoGoroutineLeak(t, before)
}

// TestSessionComparePaired cross-validates the paired comparison: the
// reference entry carries the CI on its own mean, each comparison entry
// carries the CI on the per-replicate differences, and the diagnostics
// match a PairedAccumulator fed the two materialised series.
func TestSessionComparePaired(t *testing.T) {
	ctx := context.Background()
	base := tinyConfig(engine.Strategy{}, 37)
	strategies := []engine.Strategy{engine.OrderedNBDaly(), engine.LeastWaste(), engine.OrderedDaly()}
	const runs = 8

	s := NewSession(WithWorkers(2), WithKeepWasteRatios(true))
	mcs, cmps, err := s.ComparePaired(ctx, base, strategies, runs)
	if err != nil {
		t.Fatal(err)
	}
	if len(mcs) != 3 || len(cmps) != 2 {
		t.Fatalf("got %d results and %d comparisons, want 3 and 2", len(mcs), len(cmps))
	}

	refCfg := base
	refCfg.Strategy = strategies[0]
	solo, err := NewSession(WithWorkers(2), WithKeepWasteRatios(true)).MonteCarlo(ctx, refCfg, runs)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(mcs[0], solo) {
		t.Fatal("paired reference diverged from a standalone MonteCarlo (CI must be on its own mean)")
	}

	for k, cmp := range cmps {
		mc := mcs[k+1]
		if cmp.Strategy != mc.Strategy || cmp.Reference != mcs[0].Strategy {
			t.Fatalf("comparison %d names (%s vs %s), want (%s vs %s)",
				k, cmp.Strategy, cmp.Reference, mc.Strategy, mcs[0].Strategy)
		}
		var pa stats.PairedAccumulator
		var diff stats.Accumulator
		for i := range mc.WasteRatios {
			pa.Add(mc.WasteRatios[i], mcs[0].WasteRatios[i])
			diff.Add(mc.WasteRatios[i] - mcs[0].WasteRatios[i])
		}
		if cmp.N != runs {
			t.Fatalf("comparison %d N = %d, want %d", k, cmp.N, runs)
		}
		if math.Abs(cmp.MeanDiff-pa.MeanDiff()) > 1e-15 {
			t.Fatalf("comparison %d MeanDiff = %v, want %v", k, cmp.MeanDiff, pa.MeanDiff())
		}
		if want := diff.HalfWidth(0.95); math.Abs(cmp.CIHalfWidth-want) > 1e-15 ||
			math.Abs(mc.CIHalfWidth-want) > 1e-15 {
			t.Fatalf("comparison %d CI half-width = %v (mc %v), want paired %v",
				k, cmp.CIHalfWidth, mc.CIHalfWidth, want)
		}
		if math.Abs(cmp.Correlation-pa.Correlation()) > 1e-12 ||
			math.Abs(cmp.VarianceReduction-pa.VarianceReduction()) > 1e-9 {
			t.Fatalf("comparison %d diagnostics diverged from PairedAccumulator", k)
		}
	}

	if _, _, err := s.ComparePaired(ctx, base, strategies[:1], runs); err == nil {
		t.Fatal("ComparePaired accepted a single strategy")
	}
}

// TestSessionComparePairedTargetCI: under sequential stopping the
// reference resolves its own mean first and every comparison strategy
// stops on the paired difference without ever outrunning the reference's
// replicate count (pairing needs both series at every index).
func TestSessionComparePairedTargetCI(t *testing.T) {
	ctx := context.Background()
	base := tinyConfig(engine.Strategy{}, 59)
	strategies := []engine.Strategy{engine.OrderedNBDaly(), engine.LeastWaste()}
	s := NewSession(WithWorkers(2), WithTargetCI(0.02, 0, 0, 0))
	mcs, cmps, err := s.ComparePaired(ctx, base, strategies, 60)
	if err != nil {
		t.Fatal(err)
	}
	if mcs[1].RunsUsed > mcs[0].RunsUsed {
		t.Fatalf("comparison used %d runs, beyond the reference's %d", mcs[1].RunsUsed, mcs[0].RunsUsed)
	}
	if cmps[0].N != mcs[1].RunsUsed {
		t.Fatalf("comparison N = %d, want its RunsUsed %d", cmps[0].N, mcs[1].RunsUsed)
	}
	if mcs[1].RunsUsed < mcs[0].RunsUsed && cmps[0].CIHalfWidth > 0.02 {
		t.Fatalf("comparison stopped early at CI %v, above the 0.02 target", cmps[0].CIHalfWidth)
	}
}

// TestSessionMinBandwidthTargetCI: the bisection honours the session's
// sequential-stopping rule — with a generous target every probe resolves
// in MinRuns replicates and the search still brackets a bandwidth.
func TestSessionMinBandwidthTargetCI(t *testing.T) {
	if testing.Short() {
		t.Skip("bisection search in -short mode")
	}
	cfg := tinyConfig(engine.OrderedNBDaly(), 19)
	cfg.HorizonDays = 4
	cfg.Gen.MinDays = 4
	s := NewSession(WithWorkers(2), WithTargetCI(10, 0, 2, 0))
	got, err := s.MinBandwidth(context.Background(), cfg, 0.6, 0.05e9, 50e9, 8, 5)
	if err != nil {
		t.Fatal(err)
	}
	if got <= 0.05e9 || got > 50e9 {
		t.Fatalf("MinBandwidth under TargetCI = %v, outside the bracket", got)
	}
}
