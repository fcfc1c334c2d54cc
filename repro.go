// Package repro is a from-scratch Go reproduction of "Optimal Cooperative
// Checkpointing for Shared High-Performance Computing Platforms" (Hérault,
// Robert, Bouteiller, Arnold, Ferreira, Bosilca, Dongarra — IPDPS 2018,
// INRIA RR-9109).
//
// The library provides:
//
//   - a discrete-event simulator of a space-shared HPC platform whose
//     parallel-file-system bandwidth is time-shared between application
//     I/O and checkpoint/restart traffic (§2, §5 of the paper);
//   - the four I/O scheduling disciplines — Oblivious, Ordered (blocking
//     FCFS), Ordered-NB (non-blocking FCFS), and Least-Waste — combined
//     with Fixed and Young/Daly checkpoint periods into the seven strategy
//     variants of the evaluation (§3);
//   - the steady-state theoretical lower bound on platform waste under an
//     I/O-bandwidth constraint (Theorem 1, §4), including the numerical
//     KKT multiplier;
//   - the LANL APEX workload (Table 1) instantiated on the Cielo and
//     prospective-system platforms, plus Monte-Carlo machinery to
//     regenerate every figure of §6.
//
// # Quick start
//
// A Session is the experiment driver: it owns a warm pool of per-worker
// simulation arenas for its lifetime, and every method takes a
// context.Context so long campaigns are abortable.
//
//	cfg := repro.Config{
//		Platform: repro.Cielo(40, 2),      // 40 GB/s PFS, 2-year node MTBF
//		Classes:  repro.APEXClasses(),     // Table 1 workload
//		Strategy: repro.LeastWaste(),
//		Seed:     1,
//	}
//	ctx := context.Background()
//	s := repro.NewSession(repro.WithKeepWasteRatios(true))
//	res, err := s.Run(ctx, cfg)               // one 60-day simulation
//	mc, err := s.MonteCarlo(ctx, cfg, 100)    // candlestick over 100 runs
//
//	// A scenario grid yields a pull iterator; every point reuses the
//	// session's arenas, and breaking out stops the remaining grid.
//	points, errf := s.Sweep(ctx, cfg, repro.SweepGrid{
//		BandwidthsBps: []float64{40e9, 80e9, 160e9},
//		Strategies:    repro.LegendStrategies(),
//	}, 100)
//	for pt, mc := range points {
//		_ = pt
//		_ = mc
//	}
//	err = errf()
//
// For one fresh simulation per call without a Session, build an Arena:
// NewArena(cfg) then Arena.Run(seed).
//
// The exported identifiers are aliases over the internal packages, so the
// whole public surface lives here. The Examples run the paper's reduced
// Figures 1 and 3, the §8 burst buffer and a custom workload with their
// output pinned.
package repro

import (
	"repro/internal/burstbuffer"
	"repro/internal/campaign"
	"repro/internal/ckpt"
	"repro/internal/driver"
	"repro/internal/engine"
	"repro/internal/failure"
	"repro/internal/iomodel"
	"repro/internal/iosched"
	"repro/internal/lowerbound"
	"repro/internal/platform"
	"repro/internal/stats"
	"repro/internal/workload"
)

// Core configuration and result types (see the engine package for the
// model's types and the driver package for the experiment driver's).
type (
	// Platform describes a machine: nodes, memory, PFS bandwidth, node
	// MTBF.
	Platform = platform.Platform
	// Class is a machine-independent application-class description.
	Class = workload.Class
	// ClassParams is a Class instantiated on a platform.
	ClassParams = workload.ClassParams
	// GenConfig controls workload generation (§5).
	GenConfig = workload.GenConfig
	// Job is one generated application instance.
	Job = workload.Job
	// Config specifies one simulation run.
	Config = engine.Config
	// Result is one run's measurements.
	Result = engine.Result
	// Strategy pairs an I/O discipline with a checkpoint policy.
	Strategy = engine.Strategy
	// MCResult aggregates a Monte-Carlo experiment.
	MCResult = driver.MCResult
	// MCOptions selects what a Monte-Carlo experiment materialises; the
	// zero value is the fully streaming O(1)-memory path. Sessions set it
	// through their options; ExperimentKey hashes it.
	MCOptions = driver.MCOptions
	// TargetCI configures sequential stopping: halt a Monte-Carlo
	// experiment once the confidence interval on the estimator mean is no
	// wider than ±HalfWidth (see Session option WithTargetCI).
	TargetCI = driver.TargetCI
	// PairedComparison reports one strategy of Session.ComparePaired
	// against the reference: paired-difference mean and CI plus the
	// CRN correlation and variance-reduction diagnostics.
	PairedComparison = driver.PairedComparison
	// Session is the context-aware experiment driver: one warm per-worker
	// arena pool shared by Run, MonteCarlo, Sweep, SweepPoints, Compare,
	// ComparePaired and MinBandwidth for the session's lifetime. Not safe
	// for concurrent use.
	Session = driver.Session
	// GridPoint is one experiment of Session.SweepPoints: a configuration
	// plus a campaign runner's hooks (replay, resume, snapshots, deadline).
	GridPoint = driver.GridPoint
	// SessionOption configures a Session at construction (WithWorkers,
	// WithKeepResults, WithKeepWasteRatios, WithOnResult, WithProgress,
	// WithTargetCI, WithAntithetic, WithResultCache).
	SessionOption = driver.SessionOption
	// ResultCache is the content-addressed Monte-Carlo result store a
	// session consults under WithResultCache; resultcache.New builds the
	// standard memory+disk implementation.
	ResultCache = driver.ResultCache
	// Arena is a reusable simulation workspace: built once, re-seeded per
	// replicate, so steady-state Monte-Carlo replicates allocate near
	// zero. Replicates are bit-identical to fresh Run calls.
	Arena = engine.Arena
	// SweepGrid spans a scenario grid (bandwidth × MTBF × failure model ×
	// strategy) over a base configuration.
	SweepGrid = driver.SweepGrid
	// SweepPoint is one resolved cell of a sweep grid.
	SweepPoint = driver.SweepPoint
	// FailureSpec is one point of a sweep's failure-model axis.
	FailureSpec = driver.FailureSpec
	// Summary is the candlestick statistic set (mean, deciles,
	// quartiles).
	Summary = stats.Summary
	// Accumulator folds samples into candlestick statistics online in
	// O(1) memory (exact mean/min/max, Welford variance, P² quantiles).
	Accumulator = stats.Accumulator
	// PairedAccumulator folds a common-random-numbers comparison online:
	// the statistics of the per-replicate differences of two estimators
	// evaluated on the same seeds, plus variance-reduction diagnostics.
	PairedAccumulator = stats.PairedAccumulator
	// TraceEvent is one observable simulation transition.
	TraceEvent = engine.TraceEvent
	// LowerBoundInput parameterises the §4 steady-state model.
	LowerBoundInput = lowerbound.Input
	// LowerBoundClass is one class of the steady-state model.
	LowerBoundClass = lowerbound.Class
	// LowerBoundSolution is Theorem 1's constrained optimum.
	LowerBoundSolution = lowerbound.Solution
	// InterferenceModel shapes bandwidth sharing on the Oblivious
	// discipline.
	InterferenceModel = iomodel.InterferenceModel
	// Discipline is the I/O-arbitration interface a strategy's
	// discipline implements (blocking behaviour + token-grant order);
	// implement it and RegisterStrategy a pairing with a policy to add a
	// discipline with no engine edits.
	Discipline = iosched.Discipline
	// ArbitrationScenario carries the per-scenario parameters a
	// Discipline receives when instantiating its token selector.
	ArbitrationScenario = iosched.Scenario
	// Selector orders token grants among waiting transfers; stateful
	// implementations should also satisfy iomodel.StatefulSelector.
	Selector = iomodel.Selector
	// Transfer is one I/O operation on a device — the unit a Selector
	// orders.
	Transfer = iomodel.Transfer
	// CheckpointPolicy derives per-job checkpoint periods (§3.4).
	CheckpointPolicy = ckpt.Policy
	// FailureModel selects the failure inter-arrival law.
	FailureModel = failure.Model
	// BurstBuffer parameterises the §8 two-tier checkpoint extension
	// (set Config.BurstBuffer to enable).
	BurstBuffer = burstbuffer.Config
)

// Crash-resilient campaign layer: durable sweeps that journal progress,
// resume bit-identically after a crash, and quarantine failing points
// instead of aborting the grid (see the campaign package docs).
type (
	// Campaign is the durable sweep driver built by NewCampaign.
	Campaign = campaign.Campaign
	// CampaignOptions configures a Campaign: journal path and resume,
	// the per-point deadline, the session-level knobs (workers,
	// antithetic pairing, sequential stopping) and the result cache.
	CampaignOptions = campaign.Options
	// PointResult is one grid point's campaign outcome: the MCResult on
	// success, or the failure with its error.
	PointResult = campaign.PointResult
	// PointStatus classifies a PointResult (StatusDone, StatusFailed).
	PointStatus = campaign.PointStatus
	// PointError quarantines a grid point whose attempt failed; it
	// unwraps to the attempt's error (a *PanicError when a simulation
	// worker panicked).
	PointError = campaign.PointError
	// JournalState is the replayed content of a campaign journal, as
	// returned by ReadJournal — per-point progress plus whether the
	// campaign sealed cleanly.
	JournalState = campaign.ReplayState
	// JournalPointState is one point's replayed journal state.
	JournalPointState = campaign.PointState
	// MCSnapshot is a resumable mid-experiment Monte-Carlo state: the
	// exact accumulator bits after folding replicates [0, Folded), as a
	// campaign journals it and GridPoint.Resume takes it back.
	MCSnapshot = driver.MCSnapshot
	// PanicError wraps a recovered simulation-worker panic with its
	// stack; campaign quarantines it, bare Session methods return it.
	PanicError = driver.PanicError
)

// PointResult dispositions.
const (
	// StatusDone marks a point that completed (or replayed) successfully.
	StatusDone = campaign.StatusDone
	// StatusFailed marks a point whose attempt failed.
	StatusFailed = campaign.StatusFailed
)

// NewCampaign builds a durable sweep driver. Campaign.RunSweep and
// Campaign.Run mirror Session.Sweep and Session.MonteCarlo but journal
// progress to CampaignOptions.JournalPath, resume bit-identically when
// CampaignOptions.Resume is set, and degrade gracefully — a panicking or
// timed-out point is quarantined as a PointResult instead of aborting
// the campaign, and a resume re-attempts it from its last journaled
// snapshot.
func NewCampaign(opts CampaignOptions) *Campaign { return campaign.New(opts) }

// ReadJournal replays a campaign journal read-only — for inspecting
// progress or a post-mortem without touching the file.
func ReadJournal(path string) (*JournalState, error) { return campaign.ReadJournal(path) }

// Interference models for Config.Interference.
type (
	// LinearShare is the paper's proportional-share interference model.
	LinearShare = iomodel.LinearShare
	// Unlimited disables interference (baseline runs).
	Unlimited = iomodel.Unlimited
	// Degraded is the adversarial model of footnote 2: total throughput
	// decays geometrically with the number of concurrent streams.
	Degraded = iomodel.Degraded
)

// Failure models for Config.FailureModel.
const (
	// FailuresExponential is the paper's memoryless failure process.
	FailuresExponential = failure.Exponential
	// FailuresWeibull enables Weibull inter-arrivals with
	// Config.WeibullShape (extension).
	FailuresWeibull = failure.Weibull
)

// Burst-buffer period models for BurstBuffer.Period.
const (
	// BurstBufferPeriodCooperative derives checkpoint periods from the
	// generalised Theorem 1 (overhead at buffer speed, I/O constraint at
	// drain occupancy) — the default.
	BurstBufferPeriodCooperative = burstbuffer.PeriodCooperative
	// BurstBufferPeriodNaive applies Young/Daly to the buffer-commit
	// time alone. On a starved PFS a non-resilient buffer with this
	// period backfires: drains rarely land, and waste rises above direct
	// checkpointing.
	BurstBufferPeriodNaive = burstbuffer.PeriodNaive
)

// Cielo returns the Cielo platform (143 104 cores as 17 888 8-core
// failure units, 286 TB memory) with the given PFS bandwidth (GB/s) and
// node MTBF (years).
func Cielo(bandwidthGBps, nodeMTBFYears float64) Platform {
	return platform.Cielo(bandwidthGBps, nodeMTBFYears)
}

// Prospective returns the §6.2 future system (50 000 nodes, 7 PB).
func Prospective(bandwidthGBps, nodeMTBFYears float64) Platform {
	return platform.Prospective(bandwidthGBps, nodeMTBFYears)
}

// APEXClasses returns the LANL workload of Table 1 (EAP, LAP, Silverton,
// VPIC).
func APEXClasses() []Class { return workload.APEXClasses() }

// InstantiateClasses resolves classes on a platform (node counts, byte
// volumes).
func InstantiateClasses(p Platform, classes []Class) ([]ClassParams, error) {
	return workload.Instantiate(p, classes)
}

// DefaultGenConfig returns the paper's workload-generation parameters.
func DefaultGenConfig() GenConfig { return workload.DefaultGenConfig() }

// FixedPolicy returns the fixed-period checkpoint policy (seconds; 0
// selects the paper's one-hour default).
func FixedPolicy(seconds float64) CheckpointPolicy { return ckpt.FixedPolicy(seconds) }

// DalyPolicy returns the Young/Daly optimal-period checkpoint policy.
func DalyPolicy() CheckpointPolicy { return ckpt.DalyPolicy() }

// The seven strategy variants of §6, in the paper's legend order.
func ObliviousFixed() Strategy { return engine.ObliviousFixed() }

// ObliviousDaly is uncoordinated I/O with Young/Daly periods.
func ObliviousDaly() Strategy { return engine.ObliviousDaly() }

// OrderedFixed is blocking FCFS with one-hour periods.
func OrderedFixed() Strategy { return engine.OrderedFixed() }

// OrderedDaly is blocking FCFS with Young/Daly periods.
func OrderedDaly() Strategy { return engine.OrderedDaly() }

// OrderedNBFixed is non-blocking FCFS with one-hour periods.
func OrderedNBFixed() Strategy { return engine.OrderedNBFixed() }

// OrderedNBDaly is non-blocking FCFS with Young/Daly periods.
func OrderedNBDaly() Strategy { return engine.OrderedNBDaly() }

// LeastWaste is the paper's cooperative waste-minimising strategy (§3.5).
func LeastWaste() Strategy { return engine.LeastWaste() }

// Registry extensions beyond the paper's seven variants.

// ShortestFirstDaly grants the token to the smallest pending transfer
// (SPT order), non-blocking, with Daly periods.
func ShortestFirstDaly() Strategy { return engine.ShortestFirstDaly() }

// RandomDaly grants the token uniformly at random — the strawman control
// for grant-ordering intelligence — non-blocking, with Daly periods.
func RandomDaly() Strategy { return engine.RandomDaly() }

// FairShare is Least-Waste with any one workload class bounded to half of
// the granted token time (Daly periods).
func FairShare() Strategy { return engine.FairShare() }

// AllStrategies returns every registered strategy in registration order:
// the paper's seven legend variants first, then the extensions.
func AllStrategies() []Strategy { return engine.AllStrategies() }

// LegendStrategies returns exactly the paper's seven §6 legend variants,
// in legend order — the set the figure reproductions evaluate.
func LegendStrategies() []Strategy { return engine.LegendStrategies() }

// StrategyByName resolves a registered label like "Ordered-NB-Daly".
func StrategyByName(name string) (Strategy, bool) { return engine.StrategyByName(name) }

// StrategyNames returns the registered strategy names in registration
// order.
func StrategyNames() []string { return engine.StrategyNames() }

// RegisterStrategy adds a named strategy to the registry consumed by
// AllStrategies, StrategyByName, the sweep drivers and the CLIs. Pair a
// custom iosched.Discipline with a checkpoint policy and
// every driver picks it up by name. Registration is meant for init time.
func RegisterStrategy(name string, mk func() Strategy) { engine.RegisterStrategy(name, mk) }

// NewSession builds an experiment driver: a warm per-worker arena pool
// plus functional options, shared by every experiment the session runs.
// The zero-argument form is ready to use (GOMAXPROCS workers, fully
// streaming O(1)-memory aggregation).
func NewSession(opts ...SessionOption) *Session { return driver.NewSession(opts...) }

// WithWorkers bounds an experiment's parallelism (0 = GOMAXPROCS). The
// per-run results do not depend on the worker count.
func WithWorkers(n int) SessionOption { return driver.WithWorkers(n) }

// WithKeepResults retains every per-run Result in MCResult.Results
// (O(runs) memory).
func WithKeepResults(keep bool) SessionOption { return driver.WithKeepResults(keep) }

// WithKeepWasteRatios retains per-run waste ratios and computes each
// Summary by the exact sorted path (8 bytes per run).
func WithKeepWasteRatios(keep bool) SessionOption { return driver.WithKeepWasteRatios(keep) }

// WithOnResult streams every run's Result to fn in strict run order on
// the caller's goroutine — the O(1)-memory observation hook.
func WithOnResult(fn func(i int, r Result)) SessionOption { return driver.WithOnResult(fn) }

// WithProgress reports campaign progress as (done, total) replicate
// counts; within Sweep and Compare the total spans the whole grid.
// MinBandwidth's open-ended bisection probes do not report progress.
func WithProgress(fn func(done, total int)) SessionOption { return driver.WithProgress(fn) }

// WithTargetCI enables sequential stopping: every experiment of the
// session halts at the first replicate boundary where the confidence
// interval on its estimator mean is no wider than ±halfWidth at the given
// confidence level, bounded by minRuns and maxRuns (zeros select the
// TargetCI defaults). MCResult.RunsUsed and MCResult.CIHalfWidth record
// each experiment's outcome. A replicate past a pending stopping decision
// is simulated only when no experiment of the grid has a replicate it is
// sure to keep, so at one worker a sweep simulates essentially only the
// replicates it folds.
func WithTargetCI(halfWidth, confidence float64, minRuns, maxRuns int) SessionOption {
	return driver.WithTargetCI(halfWidth, confidence, minRuns, maxRuns)
}

// WithAntithetic pairs replicates (2i, 2i+1) on the same replicate seed
// with the odd member drawing complemented uniform streams; the CI
// estimator and sequential stopping operate on the pair averages while
// per-run outputs stay per-replicate.
func WithAntithetic(on bool) SessionOption { return driver.WithAntithetic(on) }

// WithResultCache attaches a content-addressed Monte-Carlo result cache
// (see resultcache.New) to the session: every cacheable sweep point
// (Sweep, Compare, SweepPoints, and so every campaign) is looked up by
// ExperimentKey before simulating and stored after, and served results
// carry MCResult.Cached. Within one sweep, grid cells with identical
// content addresses (e.g. the token-channel axis of a shared-device
// strategy) deduplicate even without a cache attached.
func WithResultCache(c ResultCache) SessionOption { return driver.WithResultCache(c) }

// ExperimentKey returns the content address of a Monte-Carlo experiment —
// a hash of the resolved configuration, seed schedule, stopping rule and
// materialisation options — and whether the experiment is cacheable.
// Equal keys mean bit-identical results under the pinned CRN schedule.
func ExperimentKey(cfg Config, runs int, opts MCOptions) (string, bool) {
	return driver.ExperimentKey(cfg, runs, opts)
}

// NewArena builds a reusable simulation workspace for the configuration.
// Arena.Run(seed) executes one replicate reusing every pool, and
// Arena.Reconfigure swaps the scenario while keeping them. Not safe for
// concurrent use; a Session holds one arena per worker.
func NewArena(cfg Config) (*Arena, error) { return engine.NewArena(cfg) }

// LowerBound solves Theorem 1 for a platform and class set: the optimal
// checkpoint periods under the I/O constraint and the platform-waste lower
// bound.
func LowerBound(p Platform, classes []Class) (LowerBoundSolution, error) {
	params, err := workload.Instantiate(p, classes)
	if err != nil {
		return LowerBoundSolution{}, err
	}
	return lowerbound.Solve(lowerbound.FromWorkload(p, params))
}

// SolveLowerBound solves Theorem 1 for explicit model inputs.
func SolveLowerBound(in LowerBoundInput) (LowerBoundSolution, error) {
	return lowerbound.Solve(in)
}

// LowerBoundMinBandwidth returns the theory series of Figure 3: the
// smallest bandwidth (bytes/s) at which the lower bound meets the target
// waste, searched within [loBps, hiBps].
func LowerBoundMinBandwidth(p Platform, classes []Class, targetWaste, loBps, hiBps float64) (float64, error) {
	return lowerbound.MinBandwidthForWaste(p, classes, targetWaste, loBps, hiBps)
}

// Summarize computes candlestick statistics over arbitrary samples.
func Summarize(xs []float64) Summary { return stats.Summarize(xs) }

// DefaultBurstBuffer returns a typical node-local NVRAM burst-buffer
// configuration (1 GB/s per node, PFS drains enabled).
func DefaultBurstBuffer() BurstBuffer { return burstbuffer.Default() }
