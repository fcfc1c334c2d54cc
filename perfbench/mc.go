package main

import (
	"context"
	"fmt"
	"time"

	"repro"
	"repro/internal/rng"
)

// The horizon-3y scenario: 3-year segments, long enough that auto picks
// the calendar queue, one replicate per result so that 100 results and
// their check fit a run.
const (
	horizonDays = 1095
	horizonRuns = 1
)

// mcWorkload is horizon-3y: one Session.MonteCarlo candlestick per
// result on one worker, cycling through the legend strategies, each
// result on its own seed.
type mcWorkload struct {
	*env
	session *repro.Session
	got     []repro.MCResult
	mcSpans map[int]time.Duration // traced results: Session.MonteCarlo time
}

func newMC(e *env) *mcWorkload {
	return &mcWorkload{env: e, mcSpans: map[int]time.Duration{}}
}

// input is result i's configuration; i = -1 is the warm-up.
func (w *mcWorkload) input(i int) repro.Config {
	cfg := baseConfig(horizonDays)
	legend := repro.LegendStrategies()
	cfg.Strategy = legend[(i+1)%len(legend)]
	cfg.Seed = derive(w.seed, uint64(i+1))
	return cfg
}

func (w *mcWorkload) setup(ctx context.Context) (string, error) {
	w.session = repro.NewSession(repro.WithWorkers(1))
	mc, err := w.session.MonteCarlo(ctx, w.input(-1), horizonRuns)
	return canon(mc), err
}

func (w *mcWorkload) result(ctx context.Context, i int) outcome {
	cfg := w.input(i)
	tr := w.tracer()
	_, end := tr.open(i, spanOf(ctx), "Session.MonteCarlo")
	t0 := time.Now()
	mc, err := w.session.MonteCarlo(ctx, cfg, horizonRuns)
	d := time.Since(t0)
	end()
	if tr != nil {
		w.mcSpans[i] = d
	}
	w.got = append(w.got, mc)
	return outcome{latency: d, firstFrame: d, err: err}
}

// check folds Arena.Run over the CRN replicate seeds of every result and
// compares the candlestick with the one Session.MonteCarlo returned.
func (w *mcWorkload) check(ctx context.Context, n int) (report, error) {
	workers := gateWorkers
	if w.traced {
		workers = 1 // the Arena.Run spans time single-worker replicates
	}
	arenas := make([]*repro.Arena, workers)
	refs := make([]repro.MCResult, n)
	events := make([]uint64, n)
	runTime := make([]time.Duration, n)
	tr := w.tracer()
	err := parallel(ctx, workers, n, func(g, i int) error {
		cfg := w.input(i)
		if arenas[g] == nil {
			a, err := repro.NewArena(cfg)
			if err != nil {
				return err
			}
			arenas[g] = a
		} else if err := arenas[g].Reconfigure(cfg); err != nil {
			return err
		}
		var acc repro.Accumulator
		var util, fails float64
		for r := 0; r < horizonRuns; r++ {
			t0 := time.Now()
			res, err := arenas[g].Run(rng.ReplicateSeed(cfg.Seed, r))
			t1 := time.Now()
			if err != nil {
				return fmt.Errorf("result %d replicate %d: %w", i, r, err)
			}
			tr.add(i, 0, "Arena.Run", t0, t1)
			runTime[i] += t1.Sub(t0)
			acc.Add(res.WasteRatio)
			util += res.Utilization
			fails += float64(res.Failures)
			events[i] += res.Events
		}
		refs[i] = repro.MCResult{
			Strategy:        cfg.Strategy.Name(),
			Summary:         acc.Summary(),
			MeanUtilization: util / float64(horizonRuns),
			MeanFailures:    fails / float64(horizonRuns),
			RunsUsed:        horizonRuns,
			CIHalfWidth:     acc.HalfWidth(0.95),
			Confidence:      0.95,
		}
		return nil
	})
	if err != nil {
		return report{}, err
	}
	rep := report{bad: make([]bool, n), counts: map[string]float64{}, layers: map[string]float64{}}
	var d digester
	var ev uint64
	var covNum, covDen time.Duration
	for i := 0; i < n; i++ {
		rep.bad[i] = !w.matches(i, refs[i], w.got[i])
		d.add(canon(w.got[i]))
		ev += events[i]
		if mc, ok := w.mcSpans[i]; ok {
			covNum += runTime[i]
			covDen += mc
		}
	}
	rep.digest = d.sum()
	reps := n * horizonRuns
	rep.counts["engine.events_per_replicate"] = float64(ev) / float64(reps)
	rep.counts["engine.replicates_per_result"] = float64(horizonRuns)
	rep.counts["engine.dedup_cells"] = 0
	if tr != nil {
		runs := durationsMs(tr.named("Arena.Run"))
		rep.layers["engine.replicate_ms_p50"] = quantile(runs, 0.5)
		var total time.Duration
		for _, t := range runTime {
			total += t
		}
		rep.layers["engine.ns_per_event"] = float64(total) / float64(ev)
		if covDen > 0 {
			rep.layers["engine.arena_run_coverage"] = float64(covNum) / float64(covDen)
		}
	}
	return rep, nil
}

func (w *mcWorkload) close() { w.session = nil }
