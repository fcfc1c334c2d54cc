package driver

import (
	"context"
	"sync/atomic"
	"testing"

	"repro/internal/engine"
	"repro/internal/faultinject"
	"repro/internal/platform"
	"repro/internal/workload"
)

// dispatchState is a hand-built 8-run grid point for next: its options
// and scheduling counters.
type dispatchState struct {
	opts              MCOptions
	cursor, foldedPub int
}

// dispatchGrid builds a running grid over the given points, every one
// active and inside the dispatch horizon, with a window of 4 runs. Every
// case leaves some run eligible, so next never waits (the grid has no
// condition variable to wait on).
func dispatchGrid(points ...dispatchState) *gridSweep {
	g := &gridSweep{ctx: context.Background(), window: 4, lookahead: len(points)}
	for _, d := range points {
		cfg := tinyConfig(engine.LeastWaste(), 1)
		pt := gridPoint{GridPoint: GridPoint{Config: cfg}, runs: 8, opts: d.opts}
		fold := newMCFold(cfg, pt.runs, pt.opts)
		g.pts = append(g.pts, pt)
		chunk := 1
		if d.opts.Antithetic {
			chunk = 2
		}
		g.states = append(g.states, &gridPointState{
			fold: fold, total: fold.total, chunk: chunk, active: true,
			cursor: d.cursor, foldedPub: d.foldedPub,
		})
	}
	return g
}

// TestSweepGridSureWorkFirst pins the claim order: a worker whose point
// waits on a stopping decision takes another point's sure run before it
// speculates, speculates on its own point only when no sure run is
// eligible anywhere, and a fixed-runs point is always sure.
func TestSweepGridSureWorkFirst(t *testing.T) {
	seq := MCOptions{TargetCI: TargetCI{HalfWidth: 0.05, MinRuns: 2, MaxRuns: 8}}
	anti := seq
	anti.Antithetic = true
	fixed := MCOptions{}
	fresh := dispatchState{opts: seq}
	for _, c := range []struct {
		name   string
		points []dispatchState
		lastP  int
		wantP  int
		wantI  int
	}{
		// Point 0 folded 2 runs (its floor) and run 2 is out: run 3
		// waits on the decision at 3 folds. Point 1 is below its floor.
		{"speculative own point yields to sure work", []dispatchState{{seq, 3, 2}, fresh}, 0, 1, 0},
		{"sure work of the lowest point", []dispatchState{fresh, {seq, 3, 2}, fresh}, 1, 0, 0},
		{"own sure run first", []dispatchState{fresh, {seq, 1, 0}}, 1, 1, 1},
		{"below the floor is sure", []dispatchState{{seq, 1, 0}, fresh}, 0, 0, 1},
		{"next decision's run is sure", []dispatchState{{seq, 3, 3}, fresh}, 0, 0, 3},
		{"no sure run: speculate on own point", []dispatchState{{seq, 3, 2}, {seq, 4, 3}}, 1, 1, 4},
		{"no sure run, no point: lowest", []dispatchState{{seq, 3, 2}, {seq, 4, 3}}, -1, 0, 3},
		{"fixed runs are always sure", []dispatchState{{fixed, 3, 0}, fresh}, 0, 0, 3},
		// Antithetic decisions fall at even fold counts: after 2 folds
		// the next is at 4, after 3 folds it is at 4 too. (An odd cursor
		// follows a resume from an odd snapshot.)
		{"antithetic even frontier: pair past decision", []dispatchState{{anti, 4, 2}, fresh}, 0, 1, 0},
		{"antithetic even frontier: twin before decision", []dispatchState{{anti, 3, 2}, fresh}, 0, 0, 3},
		{"antithetic odd frontier: pair past decision", []dispatchState{{anti, 4, 3}, fresh}, 0, 1, 0},
		{"antithetic odd frontier: twin before decision", []dispatchState{{anti, 3, 3}, fresh}, 0, 0, 3},
		{"antithetic no sure run: speculate", []dispatchState{{anti, 4, 2}, {anti, 6, 5}}, 0, 0, 4},
	} {
		t.Run(c.name, func(t *testing.T) {
			g := dispatchGrid(c.points...)
			if p, i, _, _ := g.next(c.lastP); p != c.wantP || i != c.wantI {
				t.Errorf("next(%d) = point %d run %d; want point %d run %d", c.lastP, p, i, c.wantP, c.wantI)
			}
		})
	}
}

// TestSweepGridSpeculationWaste counts the replicates one-worker target-CI
// Figure-1 sweeps simulate against those they fold. Workers claim sure
// work before speculating past a stopping decision, so almost every
// simulated replicate is folded (typically under 1% are discarded here;
// the bound leaves room for a loaded machine and the race detector).
// Claiming a point's next run before its decision discarded about a
// quarter of them.
func TestSweepGridSpeculationWaste(t *testing.T) {
	var simulated atomic.Int64
	restore := faultinject.Set(faultinject.SiteWorkerReplicate, func(context.Context, any) error {
		simulated.Add(1)
		return nil
	})
	defer restore()
	s := NewSession(WithWorkers(1), WithTargetCI(0.05, 0.95, 2, 4))
	grid := SweepGrid{
		BandwidthsBps: []float64{40e9, 100e9, 160e9},
		Strategies:    engine.LegendStrategies(),
		Channels:      []int{1, 2, 4},
	}
	folded := 0
	for seed := uint64(1); seed <= 3; seed++ {
		base := engine.Config{
			Platform:    platform.Cielo(40, 2),
			Classes:     workload.APEXClasses(),
			HorizonDays: 5,
			Seed:        seed,
		}
		_, mcs := collectSweep(t, s, base, grid, 4)
		for _, mc := range mcs {
			if !mc.Cached {
				folded += mc.RunsUsed
			}
		}
	}
	sim := int(simulated.Load())
	if sim < folded {
		t.Fatalf("simulated %d replicates but folded %d", sim, folded)
	}
	if waste := float64(sim-folded) / float64(sim); waste > 0.07 {
		t.Errorf("simulated %d replicates, folded %d: %.1f%% discarded, want at most 7%%", sim, folded, 100*waste)
	}
}
