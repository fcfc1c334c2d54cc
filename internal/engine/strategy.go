// Package engine assembles the full discrete-event simulation of the
// paper (§5): workload generation, online first-fit job scheduling,
// failure injection, the I/O subsystem under a pluggable arbitration
// discipline, checkpoint policies, and waste accounting over a
// measurement segment. One Run or Arena replicate is one platform, one
// workload draw and one failure trace. Replicating it over many seeds
// and strategies to reproduce the figures of §6 is the job of package
// driver, which imports engine; engine imports nothing of the driver.
package engine

import (
	"repro/internal/ckpt"
	"repro/internal/iosched"
)

// Strategy pairs an I/O-arbitration discipline with a checkpoint-period
// policy. The seven variants evaluated in §6 plus the registry extensions
// are pre-registered; see RegisterStrategy for adding more.
type Strategy struct {
	Discipline iosched.Discipline
	Policy     ckpt.Policy
}

// Name returns the strategy's display label, e.g. "Oblivious-Daly" or
// "Least-Waste" — the discipline decides how (or whether) the policy
// label is appended. A zero Strategy names the Oblivious default.
func (s Strategy) Name() string {
	d := s.Discipline
	if d == nil {
		d = iosched.Oblivious
	}
	return d.StrategyLabel(s.Policy.Label())
}

// The seven strategy variants of the evaluation (§3.4, §6). Least-Waste
// always uses Daly periods ("Fixed checkpointing makes little sense in the
// Least-Waste strategy", footnote 4).
func ObliviousFixed() Strategy {
	return Strategy{Discipline: iosched.Oblivious, Policy: ckpt.FixedPolicy(0)}
}

// ObliviousDaly is the uncoordinated discipline with Young/Daly periods.
func ObliviousDaly() Strategy {
	return Strategy{Discipline: iosched.Oblivious, Policy: ckpt.DalyPolicy()}
}

// OrderedFixed is the blocking FCFS token discipline with 1-hour periods.
func OrderedFixed() Strategy {
	return Strategy{Discipline: iosched.Ordered, Policy: ckpt.FixedPolicy(0)}
}

// OrderedDaly is the blocking FCFS token discipline with Daly periods.
func OrderedDaly() Strategy {
	return Strategy{Discipline: iosched.Ordered, Policy: ckpt.DalyPolicy()}
}

// OrderedNBFixed is the non-blocking FCFS discipline with 1-hour periods.
func OrderedNBFixed() Strategy {
	return Strategy{Discipline: iosched.OrderedNB, Policy: ckpt.FixedPolicy(0)}
}

// OrderedNBDaly is the non-blocking FCFS discipline with Daly periods.
func OrderedNBDaly() Strategy {
	return Strategy{Discipline: iosched.OrderedNB, Policy: ckpt.DalyPolicy()}
}

// LeastWaste is the §3.5 waste-minimising discipline (Daly periods).
func LeastWaste() Strategy {
	return Strategy{Discipline: iosched.LeastWaste, Policy: ckpt.DalyPolicy()}
}

// Registry extensions beyond the paper's seven variants.

// ShortestFirstDaly grants the token to the smallest pending transfer
// (SPT order), non-blocking, with Daly periods.
func ShortestFirstDaly() Strategy {
	return Strategy{Discipline: iosched.ShortestFirst, Policy: ckpt.DalyPolicy()}
}

// RandomDaly grants the token uniformly at random (the strawman control
// for grant-ordering intelligence), non-blocking, with Daly periods.
func RandomDaly() Strategy {
	return Strategy{Discipline: iosched.RandomToken, Policy: ckpt.DalyPolicy()}
}

// FairShare is Least-Waste with any one workload class bounded to
// iosched.FairShareCap of the granted token time (Daly periods).
func FairShare() Strategy {
	return Strategy{Discipline: iosched.FairShare, Policy: ckpt.DalyPolicy()}
}

func init() {
	// The paper's legend order first — AllStrategies()[:7] is the §6
	// legend — then the extensions.
	RegisterStrategy("Oblivious-Fixed", ObliviousFixed)
	RegisterStrategy("Oblivious-Daly", ObliviousDaly)
	RegisterStrategy("Ordered-Fixed", OrderedFixed)
	RegisterStrategy("Ordered-Daly", OrderedDaly)
	RegisterStrategy("Ordered-NB-Fixed", OrderedNBFixed)
	RegisterStrategy("Ordered-NB-Daly", OrderedNBDaly)
	RegisterStrategy("Least-Waste", LeastWaste)
	RegisterStrategy("Shortest-First-Daly", ShortestFirstDaly)
	RegisterStrategy("Random-Daly", RandomDaly)
	RegisterStrategy("Fair-Share", FairShare)
}
