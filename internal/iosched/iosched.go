// Package iosched implements the I/O-arbitration layer of the paper (§3):
// the Discipline interface every discipline satisfies (see arbiter.go), the
// canonical discipline values shared by the engine, and the Least-Waste
// token selector of §3.5.
//
// The paper's four disciplines are:
//
//   - Oblivious (§3.1): uncoordinated I/O on a shared device; blocking.
//   - Ordered (§3.2): blocking FCFS token.
//   - Ordered-NB (§3.3): FCFS token, non-blocking checkpoint wait.
//   - Least-Waste (§3.5): non-blocking checkpoint wait with the token
//     granted to the candidate that minimises the expected platform waste
//     of Equations (1) and (2).
//
// Combined with the Fixed and Daly checkpoint periods (§3.4) these yield
// the seven strategy variants evaluated in §6 (Least-Waste is only
// meaningful with Daly periods — footnote 4). Beyond the paper, the
// package adds ShortestFirst (SPT grant order), RandomToken (the strawman
// control) and FairShare (Least-Waste with a per-class token-time cap).
package iosched

import (
	"math"

	"repro/internal/iomodel"
)

// LeastWasteSelector implements §3.5: at each token release, grant the
// candidate whose execution would inflict the least expected waste on the
// other waiting candidates.
//
// Candidates split into two categories. IO-candidates (input, output,
// recovery, regular I/O) have been idle since their request d_j seconds
// ago; granting a transfer of duration v makes each of them idle v more
// seconds, wasting q_j(d_j+v) node-seconds (deterministic). Checkpoint
// candidates keep computing but remain exposed to failure; over v more
// seconds a failure arrives with probability v/µ_j = v·q_j/µ_ind and costs
// recovery plus the d_j+v/2 expected seconds of work to re-execute, i.e.
// q_j²/µ_ind · (R_j + d_j + v/2) node-seconds in expectation.
type LeastWasteSelector struct {
	// MuInd is the per-node MTBF µ_ind in seconds.
	MuInd float64
	// Bandwidth converts candidate volumes into durations (v_i or C_i).
	Bandwidth float64
}

// NewLeastWasteSelector returns the selector; it panics on non-positive
// parameters.
func NewLeastWasteSelector(muInd, bandwidth float64) *LeastWasteSelector {
	if muInd <= 0 || bandwidth <= 0 {
		panic("iosched: non-positive Least-Waste parameter")
	}
	return &LeastWasteSelector{MuInd: muInd, Bandwidth: bandwidth}
}

// Name implements iomodel.Selector.
func (s *LeastWasteSelector) Name() string { return "least-waste" }

// Pick implements iomodel.Selector using Equations (1) and (2).
func (s *LeastWasteSelector) Pick(now float64, pending []*iomodel.Transfer) int {
	best := 0
	bestWaste := math.Inf(1)
	for i := range pending {
		if w := s.ExpectedWaste(now, pending, i); w < bestWaste {
			best, bestWaste = i, w
		}
	}
	return best
}

// ExpectedWaste evaluates Equation (1) (IO candidate) or Equation (2)
// (checkpoint candidate) for pending[i] against the other candidates.
// Exported for direct testing and for diagnostic tooling.
func (s *LeastWasteSelector) ExpectedWaste(now float64, pending []*iomodel.Transfer, i int) float64 {
	cand := pending[i]
	dur := cand.Volume / s.Bandwidth // v_i for IO, C_i for checkpoints
	sum := 0.0
	for j, other := range pending {
		if j == i {
			continue
		}
		q := float64(other.Nodes)
		if other.Kind == iomodel.Checkpoint || other.Kind == iomodel.Drain {
			// Equation (2) term: probabilistic waste of a computing,
			// failure-exposed checkpoint candidate. Burst-buffer drains
			// behave identically: the owner computes while exposed to
			// failures that cost recovery plus re-execution since its
			// last durable checkpoint.
			d := now - other.LastCkptEnd
			if d < 0 {
				d = 0
			}
			sum += q * q / s.MuInd * (other.RecoverySeconds + d + dur/2)
		} else {
			// Equation (1) term: deterministic idle waste of a blocked
			// IO candidate.
			d := now - other.Arrival()
			if d < 0 {
				d = 0
			}
			sum += q * (d + dur)
		}
	}
	return dur * sum
}

// FairShareSelector is the per-class fair-share variant of Least-Waste:
// grants follow the §3.5 waste-minimising order, but any workload class
// whose share of granted token time has reached MaxShare becomes
// ineligible while an under-cap candidate waits. This bounds how much of
// the serialised I/O device a single dominant class (by Daly frequency ×
// checkpoint volume) can monopolise — the starvation mode the pure
// expected-waste order permits when one class's candidates always score
// lowest.
//
// Served time is charged at grant, at the transfer's full-bandwidth
// duration; transfers aborted mid-grant (failures) keep their charge, a
// deliberate over-estimate that errs towards fairness.
type FairShareSelector struct {
	lw LeastWasteSelector
	// MaxShare in (0, 1] is the cap on any class's fraction of granted
	// token time.
	MaxShare float64
	served   []float64 // granted token seconds, by class index
	total    float64
}

// NewFairShareSelector returns the selector for a scenario with the given
// number of workload classes; it panics on non-positive parameters or a
// cap outside (0, 1].
func NewFairShareSelector(muInd, bandwidth float64, classes int, maxShare float64) *FairShareSelector {
	if maxShare <= 0 || maxShare > 1 {
		panic("iosched: fair-share cap outside (0, 1]")
	}
	if classes < 0 {
		classes = 0
	}
	return &FairShareSelector{
		lw:       *NewLeastWasteSelector(muInd, bandwidth),
		MaxShare: maxShare,
		served:   make([]float64, classes),
	}
}

// Name implements iomodel.Selector.
func (s *FairShareSelector) Name() string { return "fair-share" }

// ResetSelector implements iomodel.StatefulSelector: the served-time
// accounting starts fresh each replicate (the seed plays no role — the
// selector is deterministic).
func (s *FairShareSelector) ResetSelector(uint64) {
	for i := range s.served {
		s.served[i] = 0
	}
	s.total = 0
}

// eligible reports whether the candidate's class is under the cap.
// Out-of-range class indices are always eligible (and never accounted).
func (s *FairShareSelector) eligible(t *iomodel.Transfer) bool {
	if s.total <= 0 || t.Class < 0 || t.Class >= len(s.served) {
		return true
	}
	return s.served[t.Class] < s.MaxShare*s.total
}

// Pick implements iomodel.Selector: the least-waste candidate among the
// under-cap classes, falling back to the unconstrained least-waste choice
// when every waiting class is over the cap. The grant is charged to the
// winner's class before returning (Pick is called exactly once per
// grant).
func (s *FairShareSelector) Pick(now float64, pending []*iomodel.Transfer) int {
	best, bestWaste := -1, math.Inf(1)
	for i := range pending {
		if !s.eligible(pending[i]) {
			continue
		}
		if w := s.lw.ExpectedWaste(now, pending, i); w < bestWaste {
			best, bestWaste = i, w
		}
	}
	if best < 0 {
		best = s.lw.Pick(now, pending)
	}
	t := pending[best]
	dur := t.Volume / s.lw.Bandwidth
	if t.Class >= 0 && t.Class < len(s.served) {
		s.served[t.Class] += dur
	}
	s.total += dur
	return best
}

// Compile-time checks: the selectors satisfy the iomodel interfaces.
var (
	_ iomodel.Selector         = (*LeastWasteSelector)(nil)
	_ iomodel.StatefulSelector = (*FairShareSelector)(nil)
)
