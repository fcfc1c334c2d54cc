// Package driver is the experiment driver of the paper's evaluation
// (§6): a Session replicates the simulator of package engine over many
// initial conditions and strategies on one grid coordinator. The
// layering is one-way: driver imports engine, never the reverse.
package driver

import (
	"context"
	"fmt"
	"iter"

	"repro/internal/engine"
	"repro/internal/stats"
)

// Session is the experiment driver: one context-aware entry point for
// everything the paper's evaluation pipeline does — single runs,
// Monte-Carlo replication, paired strategy comparisons, scenario-grid
// sweeps and the Figure 3 bandwidth bisection. A Session owns a pool of
// per-worker simulation arenas for its whole lifetime, so a campaign that
// chains several experiments (fig1 + fig2 + fig3, or a long bisection)
// reuses one warm set of pools instead of rebuilding the simulation state
// per entry point.
//
// Every method takes a context.Context and honours cancellation and
// deadlines at replicate boundaries: no new replicate starts once the
// context is done, in-flight workers drain, and the method returns
// ctx.Err() without leaking goroutines. Results delivered through
// WithOnResult before the cancellation was observed form an exact,
// in-order prefix of the experiment.
//
// A Session is not safe for concurrent use: its arenas are single-owner
// workspaces. Run concurrent campaigns from separate Sessions.
//
// The zero-argument NewSession() is ready to use: GOMAXPROCS workers and
// the fully streaming O(1)-memory aggregation path.
type Session struct {
	// workers bounds parallelism (0 means GOMAXPROCS); the effective
	// worker count of an experiment never exceeds its replication count.
	workers int
	// opts selects what experiments materialise (see MCOptions).
	opts MCOptions
	// progress, when set, observes campaign progress as (done, total)
	// replicate counts on the caller's goroutine.
	progress func(done, total int)
	// arenas is the per-worker pool, grown on demand and retained for the
	// Session's lifetime. Slot w belongs to worker w; an arena configured
	// for an earlier scenario is reconfigured in place, never rebuilt.
	arenas []*engine.Arena
	// cache, when non-nil, serves and stores cacheable sweep points by
	// content address (WithResultCache).
	cache ResultCache
}

// SessionOption configures a Session at construction.
type SessionOption func(*Session)

// WithWorkers bounds an experiment's parallelism to n goroutines. Zero or
// negative means GOMAXPROCS (the default). The per-run results do not
// depend on the worker count: run i's seed is a pure function of the
// configuration seed and i.
func WithWorkers(n int) SessionOption {
	return func(s *Session) { s.workers = n }
}

// WithKeepResults retains every per-run Result in MCResult.Results —
// convenient for small experiments, O(runs) memory.
func WithKeepResults(keep bool) SessionOption {
	return func(s *Session) { s.opts.KeepResults = keep }
}

// WithKeepWasteRatios retains the per-run waste ratios and computes each
// Summary by the exact sorted path (bit-identical to the classic batch
// API) at 8 bytes per run. Without it the Summary comes from the online
// stats.Accumulator in O(1) memory.
func WithKeepWasteRatios(keep bool) SessionOption {
	return func(s *Session) { s.opts.KeepWasteRatios = keep }
}

// WithOnResult streams every run's Result to fn in strict run order
// (i ascending, 0-based) on the caller's goroutine, then drops it —
// the O(1)-memory observation hook. Across the points of a Sweep or
// Compare the order is whole-experiment: such a session runs the points
// one at a time, point p+1 starting only once point p is complete.
func WithOnResult(fn func(i int, r engine.Result)) SessionOption {
	return func(s *Session) { s.opts.OnResult = fn }
}

// WithTargetCI enables sequential stopping for the session's experiments:
// each Monte-Carlo experiment (including every Sweep/Compare point and
// every MinBandwidth probe) halts at the first replicate boundary where
// the confidence interval on its estimator mean is no wider than
// ±halfWidth at the given confidence level, bounded below by minRuns and
// above by maxRuns. Zeros select the documented TargetCI defaults
// (confidence 0.95, minRuns 8, maxRuns = the experiment's runs argument).
// A non-positive halfWidth disables sequential stopping. MCResult.RunsUsed
// and MCResult.CIHalfWidth record each experiment's outcome. Workers
// simulate a replicate past a pending stopping decision only when no
// experiment of the grid has a replicate it is sure to keep, so at one
// worker a sweep simulates essentially only the replicates it folds.
func WithTargetCI(halfWidth, confidence float64, minRuns, maxRuns int) SessionOption {
	return func(s *Session) {
		s.opts.TargetCI = TargetCI{
			HalfWidth:  halfWidth,
			Confidence: confidence,
			MinRuns:    minRuns,
			MaxRuns:    maxRuns,
		}
	}
}

// WithAntithetic runs the session's Monte-Carlo experiments with
// antithetic variates: replicates (2i, 2i+1) share replicate seed i, the
// odd member drawing the complemented uniform streams, and the CI
// estimator (hence sequential stopping) operates on the pair averages.
// Per-run outputs stay per-replicate; see MCOptions.Antithetic.
func WithAntithetic(on bool) SessionOption {
	return func(s *Session) { s.opts.Antithetic = on }
}

// WithProgress reports campaign progress to fn as (done, total) replicate
// counts, on the caller's goroutine. Within MonteCarlo the total is the
// replicate budget (the replication count, or TargetCI's MaxRuns when
// set); within Sweep, Compare and ComparePaired it spans every point
// (points × budget), so one callback renders a whole-campaign progress
// bar. done strictly increases, once per folded replicate, and never
// passes total; points that stop early or are served from a cache leave
// it short of total. A point resumed from a snapshot (GridPoint.Resume)
// counts the snapshot's replicates as done.
// MinBandwidth does not report progress: its bisection probes are an
// open-ended search, not a campaign with a known total.
func WithProgress(fn func(done, total int)) SessionOption {
	return func(s *Session) { s.progress = fn }
}

// WithResultCache memoises the session's cacheable sweep points (Sweep,
// Compare and SweepPoints, hence campaigns) in c: before simulating a
// point the sweep consults the cache by the point's ExperimentKey, and
// every computed or replayed point is stored back. A hit is
// returned with MCResult.Cached set; its values are bit-identical to the
// simulation it replaced. Points with per-run observers (WithOnResult,
// Config.Trace) bypass the cache — see ExperimentKey. Repeated cells
// within one grid are deduplicated even without a cache installed.
func WithResultCache(c ResultCache) SessionOption {
	return func(s *Session) { s.cache = c }
}

// NewSession builds an experiment driver. The arena pool starts empty and
// is populated lazily by the first experiment; it is retained across
// calls for the Session's lifetime.
func NewSession(opts ...SessionOption) *Session {
	s := &Session{}
	for _, o := range opts {
		o(s)
	}
	return s
}

// arenasFor returns the per-worker arena slice for an experiment of the
// given replication count, growing the session pool when the experiment
// needs more workers than any before it. Slots keep their arenas across
// calls — that is the whole point of a Session.
func (s *Session) arenasFor(runs int) []*engine.Arena {
	w := normWorkers(runs, s.workers)
	for len(s.arenas) < w {
		s.arenas = append(s.arenas, nil)
	}
	return s.arenas[:w]
}

// Run executes one simulation of the configuration through the session
// pool (worker 0's arena, built or reconfigured in place) and returns its
// measurements. The result is bit-identical to engine.Run. A
// done context returns ctx.Err() before the simulation starts; a
// single simulation is not interrupted mid-run.
func (s *Session) Run(ctx context.Context, cfg engine.Config) (engine.Result, error) {
	if err := ctx.Err(); err != nil {
		return engine.Result{}, err
	}
	arenas := s.arenasFor(1)
	if arenas[0] == nil {
		a, err := engine.NewArena(cfg)
		if err != nil {
			return engine.Result{}, err
		}
		arenas[0] = a
	} else if err := arenas[0].Reconfigure(cfg); err != nil {
		return engine.Result{}, err
	}
	return arenas[0].Run(cfg.Seed)
}

// MonteCarlo replicates the configuration over `runs` independent seeds
// (derived from cfg.Seed and the run index, so extending an experiment
// reuses earlier runs' results exactly) and aggregates the waste ratios
// according to the session's options. Results are delivered in strict run
// order. Cancelling ctx stops dispatch at the next replicate boundary,
// drains the workers and returns ctx.Err().
func (s *Session) MonteCarlo(ctx context.Context, cfg engine.Config, runs int) (MCResult, error) {
	return s.monteCarlo(ctx, cfg, runs, s.opts, s.reporter(0, s.opts.budget(runs)))
}

// monteCarlo runs one experiment as a one-point grid that never consults
// the cache.
func (s *Session) monteCarlo(ctx context.Context, cfg engine.Config, runs int, opts MCOptions, progress func(done int)) (MCResult, error) {
	var mc MCResult
	pts := []gridPoint{{GridPoint: GridPoint{Config: cfg}, runs: runs, opts: opts}}
	_, err := stopAtFailure(func(y func(int, MCResult, error) bool) error {
		return s.runGrid(ctx, pts, false, progress, y)
	}, func(_ int, r MCResult) bool {
		mc = r
		return true
	})
	if err != nil {
		return MCResult{}, err
	}
	return mc, nil
}

// stopAtFailure drives a grid run through run, delivering results to
// yield until the first failure, and returns the first undelivered
// point's index (the count delivered) with the point's or the run's error.
func stopAtFailure(run func(yield func(int, MCResult, error) bool) error, yield func(int, MCResult) bool) (int, error) {
	delivered := 0
	var failed error
	err := run(func(p int, mc MCResult, e error) bool {
		if e != nil {
			failed = e
			return false
		}
		delivered++
		return yield(p, mc)
	})
	if err == nil {
		err = failed
	}
	return delivered, err
}

// reporter maps the grid's running count of folded replicates onto the
// session's progress hook as (base+done, total), or returns nil when the
// session has no hook.
func (s *Session) reporter(base, total int) func(done int) {
	if s.progress == nil {
		return nil
	}
	return func(done int) { s.progress(base+done, total) }
}

// Sweep evaluates the same Monte-Carlo experiment at every point of the
// grid over the base configuration, yielding (point, result) pairs in
// grid order as a pull iterator: each point is computed on demand, so
// breaking out of the range loop stops the remaining grid. Every point
// reconfigures the session's warm arenas instead of rebuilding them, and
// every point sees the same per-run seed sequence, making all comparisons
// across the grid paired.
//
// The iterator cannot carry an error in its yield signature; the second
// return value reports it. A failure (including ctx.Err() on
// cancellation) ends the iteration early, and the error function returns
// the cause once iteration has stopped:
//
//	points, err := session.Sweep(ctx, base, grid, runs)
//	for pt, mc := range points {
//		// consume, or break early
//	}
//	if err() != nil { ... }
//
// The sequence is single-use: re-ranging it re-runs the experiments.
//
// Sweep is SweepPoints over the grid's points, stopping at the first
// failed point.
func (s *Session) Sweep(ctx context.Context, base engine.Config, grid SweepGrid, runs int) (iter.Seq2[SweepPoint, MCResult], func() error) {
	var err error
	seq := func(yield func(SweepPoint, MCResult) bool) {
		err = nil
		pts := grid.Points(base)
		gps := make([]GridPoint, len(pts))
		for i, pt := range pts {
			gps[i] = GridPoint{Config: pt.Apply(base)}
		}
		p, e := stopAtFailure(func(y func(int, MCResult, error) bool) error {
			return s.SweepPoints(ctx, gps, runs, y)
		}, func(p int, mc MCResult) bool { return yield(pts[p], mc) })
		if e != nil {
			err = fmt.Errorf("engine: sweep point %d (%s): %w", pts[p].Index, pts[p].Strategy.Name(), e)
		}
	}
	return seq, func() error { return err }
}

// SweepPoints evaluates the same Monte-Carlo experiment (runs replicates
// under the session's options) at every point, reporting each point's
// outcome in point order on the caller's goroutine: yield(p, mc, nil),
// or yield(p, MCResult{}, err) for the point's own failure (a replicate
// error or *PanicError, an invalid configuration, its Timeout). A failed
// point does not stop the others; yield returning false does. It returns
// ctx.Err() if the context ends the run first, otherwise nil.
//
// The whole list runs as one experiment: workers steal (point,
// replicate-chunk) work items across point boundaries, and cacheable
// points are keyed once each — served from and stored to the session's
// result cache, with a repeated cell simulated once and returned as a
// Cached clone of its first cell (or with that cell's failure). Neither
// changes a result: each replicate is a pure function of the
// configuration seed and run index, and each point folds in run order.
// A session with WithOnResult runs the points one at a time.
func (s *Session) SweepPoints(ctx context.Context, pts []GridPoint, runs int, yield func(p int, mc MCResult, err error) bool) error {
	gps := make([]gridPoint, len(pts))
	for i, pt := range pts {
		gps[i] = gridPoint{GridPoint: pt, runs: runs, opts: s.opts}
	}
	return s.runGrid(ctx, gps, true, s.reporter(0, len(pts)*s.opts.budget(runs)), yield)
}

// Compare runs the same Monte-Carlo experiment for every given strategy —
// each strategy sees identical per-run seeds, hence identical job mixes
// and failure traces (the paired design of §5's comparisons) — through
// the session's warm arenas, returning one MCResult per strategy in
// order.
func (s *Session) Compare(ctx context.Context, base engine.Config, strategies []engine.Strategy, runs int) ([]MCResult, error) {
	out := make([]MCResult, 0, len(strategies))
	if len(strategies) == 0 {
		return out, nil
	}
	points, errf := s.Sweep(ctx, base, SweepGrid{Strategies: strategies}, runs)
	for _, mc := range points {
		out = append(out, mc)
	}
	if err := errf(); err != nil {
		return nil, err
	}
	return out, nil
}

// PairedComparison reports one strategy of Session.ComparePaired against
// the reference: the paired-difference statistics that common random
// numbers make tight, plus the variance-reduction diagnostics.
type PairedComparison struct {
	// Strategy and Reference name the compared pair; the mean difference
	// is Strategy minus Reference, so a negative MeanDiff means the
	// strategy wastes less than the reference.
	Strategy, Reference string
	// N is the number of replicate pairs folded into the statistics.
	N int
	// MeanDiff is the mean per-replicate waste-ratio difference.
	MeanDiff float64
	// CIHalfWidth bounds the confidence interval on MeanDiff at
	// Confidence: the strategy's MCResult.CIHalfWidth, which under
	// sequential stopping is also what the stopping rule gated on.
	CIHalfWidth float64
	// Confidence is the level CIHalfWidth was computed at.
	Confidence float64
	// Correlation is the sample correlation the common random numbers
	// induced between the two waste-ratio series (the closer to 1, the
	// more the pairing helps).
	Correlation float64
	// VarianceReduction is how many times fewer replicates the paired
	// design needs than an independent two-sample design for the same
	// interval on the mean difference: (Var(x)+Var(y))/Var(x-y).
	VarianceReduction float64
}

// ComparePaired is Compare with the comparison itself as the estimand:
// the first strategy is the reference, and every other strategy's CI —
// and, under WithTargetCI, its stopping rule — is computed on the
// per-replicate *difference* of its waste ratio against the reference's
// on the same seed. Common random numbers make those differences far less
// variable than either series, so the paired design resolves "is strategy
// A better than strategy B, and by how much" in several-fold fewer
// replicates than comparing two independent confidence intervals (the
// paper's §5 evaluation design). It returns one MCResult per strategy in
// order (the reference's CI is on its own mean) and one PairedComparison
// per non-reference strategy.
//
// The reference replicates are materialised (O(runs) memory) to serve as
// the difference baseline, so its Summary is the exact sorted statistic.
// Under sequential stopping the reference stops on its own mean first and
// the other strategies never run past its replicate count — pairing needs
// both series at every index.
func (s *Session) ComparePaired(ctx context.Context, base engine.Config, strategies []engine.Strategy, runs int) ([]MCResult, []PairedComparison, error) {
	if len(strategies) < 2 {
		return nil, nil, fmt.Errorf("engine: paired comparison needs at least two strategies, got %d", len(strategies))
	}
	budget := s.opts.budget(runs)
	total := len(strategies) * budget

	refOpts := s.opts
	refOpts.KeepWasteRatios = true
	refCfg := base
	refCfg.Strategy = strategies[0]
	refMC, err := s.monteCarlo(ctx, refCfg, runs, refOpts, s.reporter(0, total))
	if err != nil {
		return nil, nil, fmt.Errorf("engine: paired reference (%s): %w", strategies[0].Name(), err)
	}
	refVals := refMC.WasteRatios
	if !s.opts.KeepWasteRatios {
		refMC.WasteRatios = nil
	}

	// The other strategies run as one grid on the reference's replicate
	// count, each point folding its paired differences.
	rest := strategies[1:]
	pas := make([]stats.PairedAccumulator, len(rest))
	pts := make([]gridPoint, len(rest))
	for k, strat := range rest {
		opts := s.opts
		pa := &pas[k]
		user := opts.OnResult
		opts.OnResult = func(i int, r engine.Result) {
			pa.Add(r.WasteRatio, refVals[i])
			if user != nil {
				user(i, r)
			}
		}
		opts.ciValue = func(i int, wasteRatio float64) float64 {
			return wasteRatio - refVals[i]
		}
		if opts.TargetCI.HalfWidth > 0 &&
			(opts.TargetCI.MaxRuns <= 0 || opts.TargetCI.MaxRuns > refMC.RunsUsed) {
			opts.TargetCI.MaxRuns = refMC.RunsUsed
		}
		cfg := base
		cfg.Strategy = strat
		pts[k] = gridPoint{GridPoint: GridPoint{Config: cfg}, runs: refMC.RunsUsed, opts: opts}
	}
	out := append(make([]MCResult, 0, len(strategies)), refMC)
	cmps := make([]PairedComparison, 0, len(rest))
	k, err := stopAtFailure(func(y func(int, MCResult, error) bool) error {
		return s.runGrid(ctx, pts, false, s.reporter(budget, total), y)
	}, func(k int, mc MCResult) bool {
		out = append(out, mc)
		cmps = append(cmps, PairedComparison{
			Strategy:          mc.Strategy,
			Reference:         refMC.Strategy,
			N:                 pas[k].N(),
			MeanDiff:          pas[k].MeanDiff(),
			CIHalfWidth:       mc.CIHalfWidth,
			Confidence:        mc.Confidence,
			Correlation:       pas[k].Correlation(),
			VarianceReduction: pas[k].VarianceReduction(),
		})
		return true
	})
	if err != nil {
		return nil, nil, fmt.Errorf("engine: paired comparison (%s): %w", rest[k].Name(), err)
	}
	return out, cmps, nil
}

// MinBandwidth searches the smallest aggregated bandwidth (in bytes/s,
// within [loBps, hiBps]) at which the strategy's mean waste ratio stays
// at or below 1-targetEfficiency — the Figure 3 experiment ("the required
// aggregated practical bandwidth necessary to provide a sustained 80%
// efficiency"). The mean waste is monotone in bandwidth up to Monte-Carlo
// noise; `runs` controls that noise, `steps` the bisection depth (<= 0
// selects 12). Every probe of the bisection reconfigures the session's
// warm arenas and streams its replications in O(1) memory; the
// accumulator's mean is the same ordered sum as the batch path, so the
// bisection decisions are bit-identical to materialising every run. The
// probes bypass the session's WithOnResult and WithProgress hooks (the
// probe count is search-dependent, so there is no campaign total to
// report against) but honour WithTargetCI and WithAntithetic: a target
// CI lets every probe stop as soon as its mean is resolved tightly
// enough, which is where sequential stopping pays off most — the
// bisection multiplies any per-probe saving by its depth.
func (s *Session) MinBandwidth(ctx context.Context, cfg engine.Config, targetEfficiency, loBps, hiBps float64, runs, steps int) (float64, error) {
	if targetEfficiency <= 0 || targetEfficiency >= 1 {
		return 0, fmt.Errorf("engine: target efficiency %v outside (0,1)", targetEfficiency)
	}
	if loBps <= 0 || hiBps <= loBps {
		return 0, fmt.Errorf("engine: invalid bandwidth bracket [%v, %v]", loBps, hiBps)
	}
	if steps <= 0 {
		steps = 12
	}
	maxWaste := 1 - targetEfficiency
	// Bisection probes stream through the lean path regardless of the
	// session's materialisation options: only the mean decides, and the
	// per-run hooks are experiment observers, not probe observers.
	meanWaste := func(bps float64) (float64, error) {
		c := cfg
		c.Platform.BandwidthBps = bps
		mc, err := s.monteCarlo(ctx, c, runs,
			MCOptions{TargetCI: s.opts.TargetCI, Antithetic: s.opts.Antithetic}, nil)
		if err != nil {
			return 0, err
		}
		return mc.Summary.Mean, nil
	}
	w, err := meanWaste(hiBps)
	if err != nil {
		return 0, err
	}
	if w > maxWaste {
		return 0, fmt.Errorf("engine: %s cannot reach %.0f%% efficiency below %v B/s (waste %.3f)",
			cfg.Strategy.Name(), targetEfficiency*100, hiBps, w)
	}
	if w, err := meanWaste(loBps); err != nil {
		return 0, err
	} else if w <= maxWaste {
		return loBps, nil
	}
	lo, hi := loBps, hiBps
	for i := 0; i < steps; i++ {
		mid := (lo + hi) / 2
		w, err := meanWaste(mid)
		if err != nil {
			return 0, err
		}
		if w > maxWaste {
			lo = mid
		} else {
			hi = mid
		}
	}
	return hi, nil
}
