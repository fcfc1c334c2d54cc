package engine

import (
	"context"
	"fmt"

	"repro/internal/stats"
)

// PanicError is a worker panic recovered at the Monte-Carlo worker
// boundary: a panicking strategy, arbiter or policy no longer takes down
// the process — the panic surfaces as this error on the one experiment it
// poisoned, the remaining workers drain cleanly, and the worker's arena
// (whose mid-replicate state is unrecoverable) is discarded and rebuilt
// on its next use.
type PanicError struct {
	// Run is the replicate index whose simulation panicked (-1 when the
	// panic struck arena construction rather than a replicate).
	Run int
	// Value is the recovered panic value.
	Value any
	// Stack is the panicking goroutine's stack trace.
	Stack []byte
}

// Error implements error.
func (e *PanicError) Error() string {
	return fmt.Sprintf("engine: worker panic on run %d: %v", e.Run, e.Value)
}

// MCSnapshot captures the complete streaming-path state of a Monte-Carlo
// experiment at a replicate boundary: everything needed to resume the
// experiment at replicate Folded under the pinned CRN seed schedule and
// produce results bit-identical to the uninterrupted run. Snapshots are
// only defined on the fully streaming aggregation path (no KeepResults /
// KeepWasteRatios) — the path journaled campaigns run on.
type MCSnapshot struct {
	// Folded is how many replicates (run indices 0..Folded-1, delivered
	// in order) the snapshot folds; resume dispatches replicate Folded
	// next.
	Folded int `json:"folded"`
	// Util and Fails are the running sums behind MeanUtilization and
	// MeanFailures.
	Util  float64 `json:"util"`
	Fails float64 `json:"fails"`
	// PairEven is the even pair member awaiting its antithetic twin
	// (meaningful only when Folded is odd in antithetic mode).
	PairEven float64 `json:"pair_even,omitempty"`
	// Acc is the waste-ratio summary accumulator; CIAcc the estimator
	// accumulator behind CIHalfWidth and sequential stopping.
	Acc   stats.AccumulatorState `json:"acc"`
	CIAcc stats.AccumulatorState `json:"ci_acc"`
}

// ResumeSpec threads crash-resilience hooks through one Monte-Carlo
// experiment: resume it from a prior snapshot, and/or observe fresh
// snapshots as replicates fold.
type ResumeSpec struct {
	// From, when non-nil, resumes the experiment from the snapshot:
	// replicates 0..From.Folded-1 are taken as already folded and
	// dispatch starts at From.Folded under the same CRN schedule —
	// bit-identical to never having been interrupted. Requires the
	// streaming path.
	From *MCSnapshot
	// OnSnapshot, when non-nil, receives the experiment state after
	// every SnapshotEvery-th folded replicate, on the caller's
	// goroutine, in folding order. Requires the streaming path.
	OnSnapshot func(MCSnapshot)
	// SnapshotEvery is the folding cadence of OnSnapshot; <= 0 means
	// every replicate.
	SnapshotEvery int
}

// MonteCarloResume is Session.MonteCarlo with crash-resilience hooks: it
// resumes from spec.From (when non-nil) and streams state snapshots to
// spec.OnSnapshot — the seam the campaign journal records through. The
// resumed experiment is bit-identical to the uninterrupted one: the CRN
// schedule makes replicate i a pure function of (cfg.Seed, i), and the
// snapshot restores the exact accumulator states.
func (s *Session) MonteCarloResume(ctx context.Context, cfg Config, runs int, spec ResumeSpec) (MCResult, error) {
	opts := s.opts
	opts.resume = spec.From
	opts.onSnapshot = spec.OnSnapshot
	opts.snapshotEvery = spec.SnapshotEvery
	// Progress counts the replicates the snapshot already folds, so a
	// resumed experiment reports done = From.Folded+1 … onwards.
	base := 0
	if spec.From != nil {
		base = spec.From.Folded
	}
	return s.monteCarlo(ctx, cfg, runs, opts, s.reporter(base, opts.budget(runs)))
}
