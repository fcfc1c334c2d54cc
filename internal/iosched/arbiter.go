package iosched

import (
	"repro/internal/iomodel"
)

// Scenario carries the per-scenario parameters a Discipline needs to
// instantiate its token selector. The engine fills it from the validated
// run configuration at arena (re)configuration time.
type Scenario struct {
	// MuIndSeconds is the per-node MTBF µ_ind in seconds.
	MuIndSeconds float64
	// BandwidthBps is the aggregated device bandwidth in bytes/s.
	BandwidthBps float64
	// Classes is the number of workload classes (sizes the per-class
	// accounting of fair-share disciplines).
	Classes int
	// Background asks the selector to demote burst-buffer Drain transfers
	// behind foreground requests (drain-when-idle). Disciplines whose
	// scoring already arbitrates drains — the Least-Waste family, via
	// Equation (2) — may ignore it.
	Background bool
}

// Discipline is one I/O-arbitration rule of §3 as a value: it owns both
// behaviours the engine needs from §3 — how a due checkpoint waits
// (blocking vs non-blocking) and, for token disciplines, how token grants
// are ordered. Adding a discipline means implementing this interface and
// registering a strategy for it with engine.RegisterStrategy; no engine
// switch is involved.
//
// The canonical disciplines are exported as package-level values
// (Oblivious, Ordered, OrderedNB, LeastWaste, ShortestFirst, RandomToken,
// FairShare); all are comparable, so they can key maps and be compared
// with ==.
type Discipline interface {
	// Name is the discipline's display label, e.g. "Ordered-NB".
	Name() string
	// UsesToken reports whether the discipline serialises I/O behind
	// token channels (false: uncoordinated processor-sharing device).
	UsesToken() bool
	// NonBlockingCheckpoints reports whether jobs keep computing while
	// their checkpoint request waits for a token.
	NonBlockingCheckpoints() bool
	// NewSelector instantiates the grant-ordering selector for one
	// scenario. Called only when UsesToken reports true; stateful
	// selectors should implement iomodel.StatefulSelector so the engine
	// can reset them per replicate.
	NewSelector(sc Scenario) iomodel.Selector
	// StrategyLabel composes a strategy display name from the discipline
	// and a checkpoint-policy label ("Fixed"/"Daly"). Disciplines that
	// only make sense with one policy (footnote 4) return their bare
	// name.
	StrategyLabel(policyLabel string) string
}

// The discipline values of §3 plus the registry extensions.
var (
	// Oblivious is the status-quo uncoordinated discipline (§3.1).
	Oblivious Discipline = oblivious{}
	// Ordered is the blocking FCFS token discipline (§3.2).
	Ordered Discipline = fcfs{}
	// OrderedNB is the non-blocking FCFS token discipline (§3.3).
	OrderedNB Discipline = fcfs{nonBlocking: true}
	// LeastWaste is the waste-minimising token discipline (§3.5).
	LeastWaste Discipline = leastWaste{}
	// ShortestFirst is the non-blocking shortest-transfer-first token
	// discipline: the classic SPT priority rule as a grant order.
	ShortestFirst Discipline = shortestFirst{}
	// RandomToken is the non-blocking random-grant token discipline —
	// the strawman control any informed grant order should beat.
	RandomToken Discipline = randomToken{}
	// FairShare is the per-class fair-share variant of Least-Waste: the
	// waste-minimising grant order, with any one workload class bounded
	// to FairShareCap of the granted token time.
	FairShare Discipline = fairShare{cap: FairShareCap}
)

// FairShareCap is the FairShare discipline's bound on any single class's
// share of granted token time.
const FairShareCap = 0.5

// joinLabel is the default strategy-name composition, e.g.
// "Ordered-NB" + "Daly" → "Ordered-NB-Daly".
func joinLabel(name, policy string) string {
	return name + "-" + policy
}

type oblivious struct{}

func (oblivious) Name() string                          { return "Oblivious" }
func (oblivious) String() string                        { return "Oblivious" }
func (oblivious) UsesToken() bool                       { return false }
func (oblivious) NonBlockingCheckpoints() bool          { return false }
func (oblivious) NewSelector(Scenario) iomodel.Selector { return nil }
func (d oblivious) StrategyLabel(policy string) string  { return joinLabel(d.Name(), policy) }

type fcfs struct{ nonBlocking bool }

func (d fcfs) Name() string {
	if d.nonBlocking {
		return "Ordered-NB"
	}
	return "Ordered"
}
func (d fcfs) String() string               { return d.Name() }
func (fcfs) UsesToken() bool                { return true }
func (d fcfs) NonBlockingCheckpoints() bool { return d.nonBlocking }
func (fcfs) NewSelector(sc Scenario) iomodel.Selector {
	if sc.Background {
		// With burst-buffer drains in the mix, plain FCFS would let long
		// background drains head-of-line-block job I/O behind the token.
		return &iomodel.Background{Inner: iomodel.FCFS{}}
	}
	return iomodel.FCFS{}
}
func (d fcfs) StrategyLabel(policy string) string { return joinLabel(d.Name(), policy) }

type leastWaste struct{}

func (leastWaste) Name() string                 { return "Least-Waste" }
func (leastWaste) String() string               { return "Least-Waste" }
func (leastWaste) UsesToken() bool              { return true }
func (leastWaste) NonBlockingCheckpoints() bool { return true }
func (leastWaste) NewSelector(sc Scenario) iomodel.Selector {
	// Equation (2) already arbitrates drains: a drain candidate's growing
	// failure exposure eventually outweighs foreground requests, so the
	// Background demotion is not needed.
	return NewLeastWasteSelector(sc.MuIndSeconds, sc.BandwidthBps)
}

// StrategyLabel ignores the policy: "Fixed checkpointing makes little
// sense in the Least-Waste strategy" (footnote 4), so the paper's label is
// the bare discipline name.
func (d leastWaste) StrategyLabel(string) string { return d.Name() }

type shortestFirst struct{}

func (shortestFirst) Name() string                 { return "Shortest-First" }
func (shortestFirst) String() string               { return "Shortest-First" }
func (shortestFirst) UsesToken() bool              { return true }
func (shortestFirst) NonBlockingCheckpoints() bool { return true }
func (shortestFirst) NewSelector(sc Scenario) iomodel.Selector {
	// SPT has no native drain handling: large background drains would be
	// ordered as peers of job I/O, so demote them when asked.
	if sc.Background {
		return &iomodel.Background{Inner: iomodel.ShortestFirst{}}
	}
	return iomodel.ShortestFirst{}
}
func (d shortestFirst) StrategyLabel(policy string) string { return joinLabel(d.Name(), policy) }

type randomToken struct{}

func (randomToken) Name() string                 { return "Random" }
func (randomToken) String() string               { return "Random" }
func (randomToken) UsesToken() bool              { return true }
func (randomToken) NonBlockingCheckpoints() bool { return true }
func (randomToken) NewSelector(sc Scenario) iomodel.Selector {
	// The engine reseeds the selector per replicate through
	// iomodel.StatefulSelector, so the construction seed is a
	// placeholder. Random grants have no drain handling either; the
	// Background wrapper forwards the per-replicate reseed.
	if sc.Background {
		return &iomodel.Background{Inner: iomodel.NewRandomSelector(0)}
	}
	return iomodel.NewRandomSelector(0)
}
func (d randomToken) StrategyLabel(policy string) string { return joinLabel(d.Name(), policy) }

type fairShare struct{ cap float64 }

func (fairShare) Name() string                 { return "Fair-Share" }
func (fairShare) String() string               { return "Fair-Share" }
func (fairShare) UsesToken() bool              { return true }
func (fairShare) NonBlockingCheckpoints() bool { return true }
func (d fairShare) NewSelector(sc Scenario) iomodel.Selector {
	return NewFairShareSelector(sc.MuIndSeconds, sc.BandwidthBps, sc.Classes, d.cap)
}

// StrategyLabel ignores the policy for the same footnote-4 reason as
// Least-Waste: the waste scoring presumes Daly periods.
func (d fairShare) StrategyLabel(string) string { return d.Name() }
