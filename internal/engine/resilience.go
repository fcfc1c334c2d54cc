package engine

import (
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
// produce results bit-identical to the uninterrupted run (see
// GridPoint.Resume and GridPoint.OnSnapshot). Snapshots are only defined
// on the fully streaming aggregation path (no KeepResults /
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
