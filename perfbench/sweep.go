package main

import (
	"context"
	"fmt"
	"time"

	"repro"
)

// The sweep-fig1 scenario: the quick Figure-1 grid on short horizons,
// stopped per cell by a target CI that some cells reach before the cap.
const (
	sweepDays      = 5
	sweepWorkers   = 1
	sweepHalfWidth = 0.05
	sweepMinRuns   = 2
	sweepMaxRuns   = 4
)

func fig1Grid() repro.SweepGrid {
	return repro.SweepGrid{
		BandwidthsBps: []float64{40e9, 100e9, 160e9},
		Strategies:    repro.LegendStrategies(),
		Channels:      []int{1, 2, 4},
	}
}

func sweepTargetCI() repro.TargetCI {
	return repro.TargetCI{HalfWidth: sweepHalfWidth, Confidence: 0.95, MinRuns: sweepMinRuns, MaxRuns: sweepMaxRuns}
}

func sweepSession(workers int, opts ...repro.SessionOption) *repro.Session {
	t := sweepTargetCI()
	opts = append(opts, repro.WithWorkers(workers), repro.WithTargetCI(t.HalfWidth, t.Confidence, t.MinRuns, t.MaxRuns))
	return repro.NewSession(opts...)
}

type cell struct {
	pt repro.SweepPoint
	mc repro.MCResult
}

// sweepWorkload runs one complete Session.Sweep per result.
type sweepWorkload struct {
	*env
	session *repro.Session
	got     [][]cell
	walls   map[int]time.Duration // traced results: sweep wall time
	keyTime []time.Duration
}

func newSweep(e *env) *sweepWorkload { return &sweepWorkload{env: e, walls: map[int]time.Duration{}} }

// base is result i's configuration; i = -1 is the warm-up.
func (w *sweepWorkload) base(i int) repro.Config {
	cfg := baseConfig(sweepDays)
	cfg.Seed = derive(w.seed, uint64(i+1))
	return cfg
}

func (w *sweepWorkload) setup(ctx context.Context) (string, error) {
	w.session = sweepSession(sweepWorkers)
	cells, _, err := w.sweep(ctx, -1, 0)
	var d digester
	for _, c := range cells {
		d.add(canon(c.mc))
	}
	return d.sum(), err
}

func (w *sweepWorkload) sweep(ctx context.Context, i int, parent int64) ([]cell, time.Duration, error) {
	tr := w.tracer()
	id, end := tr.open(i, parent, "Session.Sweep")
	t0 := time.Now()
	seq, errf := w.session.Sweep(ctx, w.base(i), fig1Grid(), sweepMaxRuns)
	var cells []cell
	var first time.Duration
	for pt, mc := range seq {
		if cells == nil {
			first = time.Since(t0)
			tr.add(i, id, "Sweep.first_point", t0, t0.Add(first))
		}
		cells = append(cells, cell{pt, mc})
	}
	end()
	return cells, first, errf()
}

func (w *sweepWorkload) result(ctx context.Context, i int) outcome {
	t0 := time.Now()
	cells, first, err := w.sweep(ctx, i, spanOf(ctx))
	d := time.Since(t0)
	w.got = append(w.got, cells)
	if err == nil && len(cells) != len(fig1Grid().Points(w.base(i))) {
		err = fmt.Errorf("sweep %d yielded %d cells", i, len(cells))
	}
	if tr := w.tracer(); tr != nil {
		w.walls[i] = d
		// Content-address every cell, outside the result's timing.
		b := w.base(i)
		opts := repro.MCOptions{TargetCI: sweepTargetCI()}
		for _, c := range cells {
			_, end := tr.open(i, spanOf(ctx), "ExperimentKey")
			t := time.Now()
			repro.ExperimentKey(c.pt.Apply(b), sweepMaxRuns, opts)
			w.keyTime = append(w.keyTime, time.Since(t))
			end()
		}
	}
	return outcome{latency: d, firstFrame: first, err: err}
}

// check runs Session.MonteCarlo on every cell of every sweep and compares
// it with the cell the sweep yielded. The cells of traced sweeps come
// first and run on one worker, since engine.grid_efficiency needs their
// single-worker time; the rest run on both CPUs.
func (w *sweepWorkload) check(ctx context.Context, n int) (report, error) {
	type item struct{ i, c int }
	var items []item
	single := 0 // items[:single] are the cells of traced sweeps
	for _, traced := range []bool{true, false} {
		for i := 0; i < n; i++ {
			if _, ok := w.walls[i]; ok == traced {
				for c := range w.got[i] {
					items = append(items, item{i, c})
				}
			}
		}
		if traced {
			single = len(items)
		}
	}
	sessions := make([]*repro.Session, gateWorkers)
	for g := range sessions {
		sessions[g] = sweepSession(1, repro.WithKeepResults(true))
	}
	ok := make([]bool, len(items))
	events := make([]uint64, len(items))
	cellTime := make([]time.Duration, len(items))
	tr := w.tracer()
	checkCell := func(g, k int) error {
		it := items[k]
		c := w.got[it.i][it.c]
		_, end := tr.open(it.i, 0, "Session.MonteCarlo")
		t0 := time.Now()
		ref, err := sessions[g].MonteCarlo(ctx, c.pt.Apply(w.base(it.i)), sweepMaxRuns)
		cellTime[k] = time.Since(t0)
		end()
		if err != nil {
			return fmt.Errorf("sweep %d cell %d: %w", it.i, it.c, err)
		}
		for _, r := range ref.Results {
			events[k] += r.Events
		}
		ok[k] = w.matches(it.i, ref, c.mc)
		return nil
	}
	err := parallel(ctx, 1, single, checkCell)
	if err == nil {
		err = parallel(ctx, gateWorkers, len(items)-single, func(g, k int) error { return checkCell(g, single+k) })
	}
	if err != nil {
		return report{}, err
	}
	rep := report{bad: make([]bool, n), counts: map[string]float64{}, layers: map[string]float64{}}
	var d digester
	var ev uint64
	var runs, simulated, dedup int
	cellsTime := map[int]time.Duration{}
	for k, it := range items {
		c := w.got[it.i][it.c]
		if !ok[k] {
			rep.bad[it.i] = true
		}
		ev += events[k]
		runs += c.mc.RunsUsed
		if c.mc.Cached {
			dedup++
		} else {
			simulated += c.mc.RunsUsed
			cellsTime[it.i] += cellTime[k]
		}
	}
	for i := 0; i < n; i++ {
		for _, c := range w.got[i] {
			d.add(canon(c.mc))
		}
	}
	rep.digest = d.sum()
	rep.counts["engine.events_per_replicate"] = float64(ev) / float64(runs)
	rep.counts["engine.replicates_per_result"] = float64(simulated) / float64(n)
	rep.counts["engine.dedup_cells"] = float64(dedup) / float64(n)
	if tr != nil {
		var num, den time.Duration
		for i, wall := range w.walls {
			num += cellsTime[i]
			den += time.Duration(sweepWorkers) * wall
		}
		if den > 0 {
			rep.layers["engine.grid_efficiency"] = float64(num) / float64(den)
		}
		var us []float64
		for _, t := range w.keyTime {
			us = append(us, float64(t)/float64(time.Microsecond))
		}
		rep.layers["engine.key_us"] = quantile(us, 0.5)
	}
	return rep, nil
}

func (w *sweepWorkload) close() { w.session = nil }
