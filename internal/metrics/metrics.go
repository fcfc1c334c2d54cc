// Package metrics implements the resource-waste accounting of §5: every
// allocated node-second inside the measurement window is classified as
// useful (progress that survives, plus non-CR I/O at its interference-free
// duration) or as one of several waste categories. The waste ratio of the
// figures is waste / (useful + waste) over the window.
//
// The window excludes the first and last day of the simulated segment
// ("during the first day, jobs may be synchronized artificially ... and
// during the last day, large amounts of resources may not be used").
// The Add* methods that take an interval clip it to the window, so callers
// simply report real intervals.
package metrics

import (
	"fmt"
	"math"
)

// Category classifies wasted node-time.
type Category int

const (
	// CatCheckpoint is time spent committing checkpoints (including
	// contention dilation of the commit itself).
	CatCheckpoint Category = iota
	// CatWait is time a job idles blocked on the I/O token.
	CatWait
	// CatDilation is the part of a non-CR I/O beyond its
	// interference-free duration (bandwidth-sharing slowdown).
	CatDilation
	// CatRecovery is restart recovery-read time.
	CatRecovery
	// CatLostWork is committed-to-nothing compute time discarded by a
	// failure (work since the last committed checkpoint).
	CatLostWork
	// CatAbortedIO is I/O time on transfers a failure destroyed.
	CatAbortedIO

	numCategories
)

// NumCategories is the number of waste categories: the size of a fixed
// per-category accumulator array indexable by Category.
const NumCategories = int(numCategories)

func (c Category) String() string {
	switch c {
	case CatCheckpoint:
		return "checkpoint"
	case CatWait:
		return "wait"
	case CatDilation:
		return "dilation"
	case CatRecovery:
		return "recovery"
	case CatLostWork:
		return "lost-work"
	case CatAbortedIO:
		return "aborted-io"
	default:
		return fmt.Sprintf("Category(%d)", int(c))
	}
}

// categories is the fixed category list backing Categories.
var categories = [numCategories]Category{
	CatCheckpoint, CatWait, CatDilation, CatRecovery, CatLostWork, CatAbortedIO,
}

// Categories lists all waste categories in order. The returned slice is a
// view of a package-level array shared by every caller — read-only; callers
// that need to mutate must copy it.
func Categories() []Category { return categories[:] }

// Ledger accumulates classified node-seconds over a measurement window.
type Ledger struct {
	w0, w1    float64
	useful    float64
	waste     [numCategories]float64
	allocated float64
}

// NewLedger returns a ledger measuring over [w0, w1]. It panics if the
// window is empty or reversed.
func NewLedger(w0, w1 float64) *Ledger {
	l := &Ledger{}
	l.Reset(w0, w1)
	return l
}

// Reset re-initialises the ledger in place for a new measurement over
// [w0, w1], zeroing every accumulator — equivalent to NewLedger without the
// allocation, for reuse across simulation replicates. The same window
// validation panic applies.
func (l *Ledger) Reset(w0, w1 float64) {
	if !(w1 > w0) || math.IsNaN(w0) || math.IsNaN(w1) {
		panic(fmt.Sprintf("metrics: invalid window [%v, %v]", w0, w1))
	}
	*l = Ledger{w0: w0, w1: w1}
}

// Clip returns the length of [a, b] ∩ [w0, w1] (zero if disjoint or
// reversed).
func (l *Ledger) Clip(a, b float64) float64 {
	lo := max(a, l.w0)
	hi := min(b, l.w1)
	if hi <= lo {
		return 0
	}
	return hi - lo
}

// AddUsefulSeconds credits pre-clipped useful node-seconds directly (used
// when flushing a provisional-work ledger kept by the caller).
func (l *Ledger) AddUsefulSeconds(nodeSeconds float64) {
	l.useful += nodeSeconds
}

// AddWaste charges q nodes over [a, b] to the given waste category.
func (l *Ledger) AddWaste(cat Category, q int, a, b float64) {
	l.waste[cat] += float64(q) * l.Clip(a, b)
}

// AddWasteSeconds charges pre-clipped wasted node-seconds directly.
func (l *Ledger) AddWasteSeconds(cat Category, nodeSeconds float64) {
	l.waste[cat] += nodeSeconds
}

// AddAllocated records that q nodes were held (allocated to a job) over
// [a, b], for utilisation reporting.
func (l *Ledger) AddAllocated(q int, a, b float64) {
	l.allocated += float64(q) * l.Clip(a, b)
}

// Useful returns accumulated useful node-seconds.
func (l *Ledger) Useful() float64 { return l.useful }

// Waste returns total wasted node-seconds.
func (l *Ledger) Waste() float64 {
	total := 0.0
	for _, w := range l.waste {
		total += w
	}
	return total
}

// WasteIn returns the wasted node-seconds in one category.
func (l *Ledger) WasteIn(cat Category) float64 { return l.waste[cat] }

// Allocated returns the allocated node-seconds recorded.
func (l *Ledger) Allocated() float64 { return l.allocated }

// WasteRatio returns waste / (useful + waste), the figure-of-merit of the
// paper's plots, or 0 when nothing was recorded.
func (l *Ledger) WasteRatio() float64 {
	total := l.useful + l.Waste()
	if total <= 0 {
		return 0
	}
	return l.Waste() / total
}

// Utilization returns allocated node-seconds over the window capacity of a
// platform with the given node count.
func (l *Ledger) Utilization(nodes int) float64 {
	capacity := float64(nodes) * (l.w1 - l.w0)
	if capacity <= 0 {
		return 0
	}
	return l.allocated / capacity
}
