package driver

import (
	"context"
	"fmt"
	"runtime"
	"runtime/debug"

	"repro/internal/engine"
	"repro/internal/faultinject"
	"repro/internal/rng"
	"repro/internal/stats"
)

// MCResult aggregates a Monte-Carlo experiment: one strategy evaluated
// over many independently seeded runs (§5: "a large set of initial
// conditions ... is randomly chosen, and we simulate the execution of the
// system over each element of this set for each strategy").
type MCResult struct {
	Strategy string
	// WasteRatios holds each run's waste ratio, in run order (nil unless
	// MCOptions.KeepWasteRatios).
	WasteRatios []float64
	// Summary is the candlestick statistic of the waste ratios (mean,
	// deciles, quartiles). With KeepWasteRatios it is the exact sorted
	// statistic; on the fully streaming path the quantiles are online P²
	// estimates while N, mean, min and max stay exact.
	Summary stats.Summary
	// MeanUtilization and MeanFailures summarise secondary outputs.
	MeanUtilization float64
	MeanFailures    float64
	// Results keeps the per-run details, in run order (nil unless
	// MCOptions.KeepResults).
	Results []engine.Result
	// RunsUsed is the number of replicates actually simulated and folded
	// into the aggregates: the requested count on a fixed-runs
	// experiment, possibly fewer under sequential stopping (TargetCI).
	RunsUsed int
	// CIHalfWidth is the half-width of the two-sided confidence interval
	// on the estimator mean at Confidence, from the Welford standard
	// error: the mean waste ratio normally, the mean of antithetic pair
	// averages in antithetic mode, and the mean paired difference for
	// the non-reference entries of Session.ComparePaired. +Inf below two
	// estimator observations.
	CIHalfWidth float64
	// Confidence is the level CIHalfWidth was computed at (default 0.95).
	Confidence float64
	// Cached marks a result served from a result cache — or deduplicated
	// against an identical earlier cell of the same grid — instead of
	// being simulated. The values are bit-identical to a fresh
	// simulation either way; the flag only records provenance.
	Cached bool
}

// MCOptions selects what a Monte-Carlo experiment materialises. The zero
// value is the fully streaming path: O(1) result memory regardless of the
// replication count. Session configures the same choices through the
// WithKeepResults / WithKeepWasteRatios options.
type MCOptions struct {
	// KeepResults retains every per-run Result in MCResult.Results —
	// convenient for small experiments, O(runs) memory.
	KeepResults bool
	// KeepWasteRatios retains the per-run waste ratios and computes
	// Summary by the exact sorted path (bit-identical to the classic
	// batch API) at 8 bytes per run. When false the Summary comes from
	// the online stats.Accumulator in O(1) memory.
	KeepWasteRatios bool
	// TargetCI enables sequential stopping: the experiment halts at the
	// first replicate boundary where the confidence interval on the
	// estimator mean is at least as tight as TargetCI.HalfWidth. The
	// zero value keeps the fixed-runs behaviour.
	TargetCI TargetCI
	// Antithetic pairs replicates (2i, 2i+1) on the same replicate seed
	// with the odd member drawing from the complemented uniform streams
	// (rng.SetAntithetic): pair averages estimate the same mean with the
	// first-order noise cancelled. Per-run outputs (Results, WasteRatios,
	// Summary) stay per-replicate; only the CI estimator and sequential
	// stopping operate on the pair averages. Use an even run count — a
	// trailing unpaired replicate still counts in the summary but not in
	// the CI estimator.
	Antithetic bool
	// onResult, when non-nil, receives every run's Result in strict run
	// order (i ascending, 0-based) on the caller's goroutine — the hook
	// ComparePaired folds each strategy's paired differences through.
	onResult func(i int, r engine.Result)
	// ciValue, when non-nil, maps run i's waste ratio to the value the
	// CI estimator (and sequential stopping) accumulates — the hook
	// ComparePaired uses to stop on the paired difference against a
	// reference series instead of the raw mean.
	ciValue func(i int, wasteRatio float64) float64
}

// TargetCI configures sequential stopping for a Monte-Carlo experiment:
// run at least MinRuns and at most MaxRuns replicates, halting as soon
// as the Welford-based confidence interval on the estimator mean is no
// wider than ±HalfWidth at the Confidence level. The half-width uses
// the normal critical value, so MinRuns also guards small-sample
// validity. A zero HalfWidth disables sequential stopping.
type TargetCI struct {
	// HalfWidth is the target half-width of the confidence interval on
	// the estimator mean (same units as the waste ratio). <= 0 disables.
	HalfWidth float64
	// Confidence is the interval's confidence level; 0 selects 0.95.
	Confidence float64
	// MinRuns is the minimum replicate count before the stopping rule is
	// consulted; 0 selects 8 (and it is never below 2 — the variance
	// needs two observations).
	MinRuns int
	// MaxRuns caps the experiment; 0 falls back to the runs argument of
	// the experiment, so a plain MonteCarlo(ctx, cfg, n) with a target
	// CI never exceeds its requested budget.
	MaxRuns int
}

// withDefaults resolves the documented zero-value defaults.
func (t TargetCI) withDefaults() TargetCI {
	if t.Confidence == 0 {
		t.Confidence = 0.95
	}
	if t.MinRuns == 0 {
		t.MinRuns = 8
	}
	if t.MinRuns < 2 {
		t.MinRuns = 2
	}
	return t
}

// budget is the experiment's replicate budget: TargetCI.MaxRuns under
// sequential stopping when it is set, else the requested run count.
func (o MCOptions) budget(runs int) int {
	if o.TargetCI.HalfWidth > 0 && o.TargetCI.MaxRuns > 0 {
		return o.TargetCI.MaxRuns
	}
	return runs
}

// normWorkers resolves the worker count: 0 means GOMAXPROCS, and never
// more workers than runs (never negative — an invalid run count resolves
// to zero workers and is rejected by the grid coordinator's setup).
func normWorkers(runs, workers int) int {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > runs {
		workers = runs
	}
	if workers < 0 {
		workers = 0
	}
	return workers
}

// mcFold is the aggregation state of one Monte-Carlo experiment: every
// run's Result folds in strict run order through fold, and finalize
// produces the MCResult. It is the single home of the fold semantics:
// the grid coordinator folds every experiment through it, so results do
// not depend on which worker simulated which replicate.
type mcFold struct {
	opts    MCOptions
	seq     TargetCI
	seqOn   bool
	total   int // replicate budget (MaxRuns under sequential stopping)
	minRuns int // stopping-rule floor, rounded up to a pair boundary
	// progress, when set, is called after each folded run, once its
	// onResult delivery has been made.
	progress func()
	// onSnapshot, when set, receives the fold state after every
	// snapshotEvery-th folded run (GridPoint's hook; snapshotEvery >= 1).
	onSnapshot    func(MCSnapshot)
	snapshotEvery int

	mc          MCResult
	acc         stats.Accumulator
	ciAcc       stats.Accumulator
	pairEven    float64 // the even member awaiting its antithetic twin
	util, fails float64
	folded      int
	stopped     bool
}

// newMCFold builds the fold state for one experiment over cfg.
func newMCFold(cfg engine.Config, runs int, opts MCOptions) *mcFold {
	seq := opts.TargetCI.withDefaults()
	seqOn := seq.HalfWidth > 0
	total := opts.budget(runs)
	minRuns := seq.MinRuns
	if opts.Antithetic && minRuns%2 == 1 {
		minRuns++ // stopping decisions only at pair boundaries
	}
	f := &mcFold{opts: opts, seq: seq, seqOn: seqOn, total: total, minRuns: minRuns}
	f.mc = MCResult{Strategy: cfg.Strategy.Name()}
	if opts.KeepResults {
		f.mc.Results = make([]engine.Result, total)
	}
	if opts.KeepWasteRatios {
		f.mc.WasteRatios = make([]float64, total)
	}
	return f
}

// restore rehydrates the fold from a snapshot: continuing from it is
// bit-identical to never having been interrupted, because every fold past
// this point sees the same accumulator state and the CRN schedule
// reproduces replicates Folded..total-1 exactly.
func (f *mcFold) restore(rs *MCSnapshot) error {
	if err := f.acc.Restore(rs.Acc); err != nil {
		return fmt.Errorf("engine: resume: %w", err)
	}
	if err := f.ciAcc.Restore(rs.CIAcc); err != nil {
		return fmt.Errorf("engine: resume: %w", err)
	}
	f.util, f.fails, f.pairEven = rs.Util, rs.Fails, rs.PairEven
	f.folded = rs.Folded
	return nil
}

// fold incorporates run i's result and reports whether the sequential
// stopping rule fired on it. Runs must arrive in strict run order.
func (f *mcFold) fold(i int, r engine.Result) (stop bool) {
	if f.opts.onResult != nil {
		f.opts.onResult(i, r)
	}
	if f.mc.Results != nil {
		f.mc.Results[i] = r
	}
	if f.mc.WasteRatios != nil {
		f.mc.WasteRatios[i] = r.WasteRatio
	} else {
		f.acc.Add(r.WasteRatio)
	}
	f.util += r.Utilization
	f.fails += float64(r.Failures)
	f.folded++
	v := r.WasteRatio
	if f.opts.ciValue != nil {
		v = f.opts.ciValue(i, v)
	}
	if f.opts.Antithetic {
		if i%2 == 0 {
			f.pairEven = v
		} else {
			f.ciAcc.Add((f.pairEven + v) / 2)
		}
	} else {
		f.ciAcc.Add(v)
	}
	if f.progress != nil {
		f.progress()
	}
	if f.onSnapshot != nil && f.folded%f.snapshotEvery == 0 {
		f.onSnapshot(MCSnapshot{
			Folded:   f.folded,
			Util:     f.util,
			Fails:    f.fails,
			PairEven: f.pairEven,
			Acc:      f.acc.State(),
			CIAcc:    f.ciAcc.State(),
		})
	}
	if f.seqOn && f.folded >= f.minRuns && f.folded < f.total &&
		(!f.opts.Antithetic || f.folded%2 == 0) &&
		f.ciAcc.HalfWidth(f.seq.Confidence) <= f.seq.HalfWidth {
		f.stopped = true
	}
	return f.stopped
}

// finalize closes the experiment over the folded prefix.
func (f *mcFold) finalize() MCResult {
	mc := f.mc
	if mc.Results != nil {
		mc.Results = mc.Results[:f.folded]
	}
	if mc.WasteRatios != nil {
		mc.WasteRatios = mc.WasteRatios[:f.folded]
		mc.Summary = stats.Summarize(mc.WasteRatios)
	} else {
		mc.Summary = f.acc.Summary()
	}
	mc.MeanUtilization = f.util / float64(f.folded)
	mc.MeanFailures = f.fails / float64(f.folded)
	mc.RunsUsed = f.folded
	mc.Confidence = f.seq.Confidence
	mc.CIHalfWidth = f.ciAcc.HalfWidth(f.seq.Confidence)
	return mc
}

// replicateDraw resolves run index i under the CRN schedule
// (rng.ReplicateSeed: independent of the total run count, so extending
// an experiment reuses earlier runs exactly). In antithetic mode runs
// 2i and 2i+1 share replicate seed i, the odd member drawing the
// complemented uniform streams.
func replicateDraw(masterSeed uint64, i int, antithetic bool) (seed uint64, anti bool) {
	if antithetic {
		return rng.ReplicateSeed(masterSeed, i/2), i%2 == 1
	}
	return rng.ReplicateSeed(masterSeed, i), false
}

// runReplicate simulates run i on worker w's arena under a panic guard: a
// panic anywhere in the simulation (a user-registered strategy, arbiter
// or checkpoint policy) is recovered into a *PanicError instead of taking
// down the process, and the worker's arena — whose mid-replicate state is
// unrecoverable — is dropped so the next replicate rebuilds it from the
// configuration. The faultinject site fires inside the guard, so injected
// panics exercise exactly the recovery path a user panic takes.
func runReplicate(ctx context.Context, arenas []*engine.Arena, w int, reconfigured *bool, cfg engine.Config, p, i int, antithetic bool) (r engine.Result, err error) {
	defer func() {
		if p := recover(); p != nil {
			arenas[w] = nil
			*reconfigured = false
			err = &PanicError{Run: i, Value: p, Stack: debug.Stack()}
		}
	}()
	if faultinject.Armed() {
		if ferr := faultinject.Fire(ctx, faultinject.SiteWorkerReplicate,
			faultinject.WorkerReplicate{Point: p, Run: i}); ferr != nil {
			return engine.Result{}, ferr
		}
	}
	a := arenas[w]
	switch {
	case a == nil:
		if a, err = engine.NewArena(cfg); err != nil {
			return engine.Result{}, fmt.Errorf("worker %d: build arena: %w", w, err)
		}
		arenas[w] = a
		*reconfigured = true
	case !*reconfigured:
		if err = a.Reconfigure(cfg); err != nil {
			return engine.Result{}, fmt.Errorf("worker %d: reconfigure arena: %w", w, err)
		}
		*reconfigured = true
	}
	seed, anti := replicateDraw(cfg.Seed, i, antithetic)
	return a.RunAnti(seed, anti)
}
