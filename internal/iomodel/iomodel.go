// Package iomodel simulates the time-shared I/O subsystem (PFS) of the
// platform: an aggregated bandwidth consumed by job input, output,
// recovery, regular and checkpoint transfers.
//
// Two device disciplines cover the paper's strategies:
//
//   - SharedDevice: every submitted transfer progresses immediately,
//     splitting the aggregated bandwidth according to an interference
//     model. The paper's linear model gives each stream a share
//     proportional to the job's node count (§2); this is the Oblivious
//     discipline, and with the Unlimited model it also provides the
//     interference-free baseline runs.
//   - TokenDevice: k I/O tokens (channels) serialise transfers; each
//     granted transfer runs at full channel bandwidth while the rest wait.
//     A pluggable Selector orders the grants (FCFS for Ordered/Ordered-NB;
//     the Least-Waste heuristic lives in package iosched). k=1 is the
//     paper's single-token device; unbounded channels admit every transfer
//     immediately, degenerating to a SharedDevice under the Unlimited
//     interference model.
package iomodel

import (
	"fmt"
	"math"

	"repro/internal/rng"
	"repro/internal/sim"
)

// Kind classifies an I/O operation for scheduling and waste accounting.
type Kind int

const (
	// Input is a job's initial input load.
	Input Kind = iota
	// Recovery is the checkpoint read of a restarted job.
	Recovery
	// Regular is mid-execution non-CR application I/O.
	Regular
	// Output is a job's final output store.
	Output
	// Checkpoint is a CR checkpoint commit.
	Checkpoint
	// Drain is an asynchronous burst-buffer-to-PFS checkpoint drain
	// (§8 extension); like a non-blocking checkpoint, its owner keeps
	// computing while it waits and transfers.
	Drain
)

func (k Kind) String() string {
	switch k {
	case Input:
		return "input"
	case Recovery:
		return "recovery"
	case Regular:
		return "regular"
	case Output:
		return "output"
	case Checkpoint:
		return "checkpoint"
	case Drain:
		return "drain"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Sink receives a transfer's lifecycle notifications. A long-lived owner
// (the engine's job instance) implements it once, so submitting a transfer
// allocates no callback closures; the transfer itself can also be embedded
// in the owner and recycled across operations.
type Sink interface {
	// TransferStarted fires when the transfer first moves data
	// (immediately on submission for shared devices; at token grant for
	// token devices).
	TransferStarted(t *Transfer, now float64)
	// TransferCompleted fires when the last byte lands.
	TransferCompleted(t *Transfer, now float64)
}

// Transfer is one I/O operation moving Volume bytes for a job of Nodes
// nodes. The same structure serves both device disciplines; Least-Waste
// candidate metadata (LastCkptEnd, RecoverySeconds) is filled by the engine
// for token devices.
type Transfer struct {
	Kind   Kind
	Volume float64 // bytes
	Nodes  int     // q of the owning job: interference weight, waste weight
	// Class is the owning job's workload-class index (fair-share token
	// accounting); selectors must tolerate out-of-range values, so
	// transfers built without one (Class 0) stay valid.
	Class int

	// LastCkptEnd is, for Checkpoint candidates, the time the job's last
	// checkpoint commit ended (or its compute phase started): the d_j
	// origin of Equation (2).
	LastCkptEnd float64
	// RecoverySeconds is the job's interference-free recovery time R_j.
	RecoverySeconds float64

	// Sink receives start/completion notifications. Required.
	Sink Sink

	// Bookkeeping (read-only outside this package).
	arrival float64
	start   float64
	seq     uint64
	state   transferState
}

// valid reports whether the transfer can be submitted. Re-submitting an
// in-flight transfer corrupts device state; owners that recycle structs
// additionally check InFlight before resetting the fields, where the
// stale state is still observable.
func (t *Transfer) valid() bool {
	if t.Volume < 0 || t.Sink == nil {
		return false
	}
	return !t.InFlight()
}

type transferState int

const (
	stateIdle transferState = iota
	statePending
	stateActive
	stateDone
	stateAborted
)

// Arrival returns the submission time.
func (t *Transfer) Arrival() float64 { return t.arrival }

// Start returns the time the transfer first moved data; meaningless unless
// Started.
func (t *Transfer) Start() float64 { return t.start }

// Started reports whether the transfer has begun moving data.
func (t *Transfer) Started() bool { return t.state == stateActive || t.state == stateDone }

// Done reports whether the transfer completed.
func (t *Transfer) Done() bool { return t.state == stateDone }

// Pending reports whether the transfer is waiting for the I/O token.
func (t *Transfer) Pending() bool { return t.state == statePending }

// InFlight reports whether the transfer is queued or moving data on a
// device. Owners that recycle transfer structs must not reuse one that is
// still in flight (Abort it first).
func (t *Transfer) InFlight() bool {
	return t.state == statePending || t.state == stateActive
}

// Device is the engine-facing abstraction over both disciplines.
type Device interface {
	// Submit enqueues (token) or starts (shared) the transfer.
	Submit(t *Transfer)
	// Abort withdraws a pending or in-flight transfer without firing its
	// completion callback (used when the owning job is killed).
	Abort(t *Transfer)
	// Busy returns the number of transfers currently moving data.
	Busy() int
	// Waiting returns the number of transfers queued but not moving.
	Waiting() int
	// Bandwidth returns the aggregated device bandwidth in bytes/s.
	Bandwidth() float64
	// Reset returns the device to its initial idle state (queued and
	// moving transfers are marked aborted without notification),
	// retaining internal capacity for reuse across simulation
	// replicates. The owning sim.Engine must be reset, or at time zero,
	// first: stale wake events are dropped, not cancelled.
	Reset()
}

// InterferenceModel computes stream rates for a shared device. Every
// model shares the bandwidth by the number of streams and their weights
// alone, so streams of one weight (the transfers of jobs of one node
// count) move at one rate, and SharedDevice asks for one rate per
// distinct weight instead of one per transfer.
type InterferenceModel interface {
	// Rates fills out[i] with the rate (bytes/s) of one stream of weight
	// weights[i] while streams transfers of summed weight total share
	// the device. weights holds the distinct weights of those streams;
	// len(out) == len(weights) >= 1. The result must depend on the
	// arguments alone: SharedDevice calls Rates only when its set of
	// transfers changes.
	Rates(bandwidth, total float64, streams int, weights, out []float64)
	Name() string
}

// LinearShare is the paper's linear interference model: the device
// sustains its full aggregated throughput, split proportionally to job
// size (§2: "evenly shared among contending applications, proportional to
// their size").
type LinearShare struct{}

// Rates implements InterferenceModel.
func (LinearShare) Rates(bw, total float64, streams int, weights, out []float64) {
	if total <= 0 {
		// Degenerate zero-weight set: split evenly.
		for i := range out {
			out[i] = bw / float64(streams)
		}
		return
	}
	for i, w := range weights {
		out[i] = bw * w / total
	}
}

func (LinearShare) Name() string { return "linear" }

// Unlimited gives every stream the full bandwidth regardless of
// contention. It models the interference-free baseline of §6.1 used as the
// waste-ratio denominator.
type Unlimited struct{}

// Rates implements InterferenceModel.
func (Unlimited) Rates(bw, _ float64, _ int, _, out []float64) {
	for i := range out {
		out[i] = bw
	}
}

func (Unlimited) Name() string { return "unlimited" }

// Degraded is the "more adversarial interference model" the paper's
// footnote 2 allows substituting: with k concurrent streams the device
// sustains only bw×Gamma^(k-1) total throughput, split linearly. Gamma=1
// reduces to LinearShare.
type Degraded struct {
	// Gamma in (0,1] is the per-additional-stream efficiency factor.
	Gamma float64
}

// Rates implements InterferenceModel.
func (d Degraded) Rates(bw, total float64, streams int, weights, out []float64) {
	eff := bw * math.Pow(d.Gamma, float64(streams-1))
	LinearShare{}.Rates(eff, total, streams, weights, out)
}

func (d Degraded) Name() string { return fmt.Sprintf("degraded(%.2f)", d.Gamma) }

// volumeEpsilon is the residual byte count below which a transfer is
// complete; sub-millibyte residue only ever arises from float round-off.
const volumeEpsilon = 1e-3

// minWake returns the smallest schedulable progress interval at the given
// instant. An event scheduled closer than one float64 ulp of `now` lands
// on the same timestamp, the elapsed time reads as zero, no bytes drain,
// and the device would re-arm forever at a frozen clock (a Zeno loop).
// Transfers within this horizon of completion are completed immediately;
// at simulation scales (days) the interval is well under a millisecond, so
// the truncation is physically meaningless.
func minWake(now float64) float64 {
	return max(1e-9, now*0x1p-33)
}

// SharedDevice implements processor-sharing I/O: all submitted transfers
// progress concurrently at rates set by the interference model. Used for
// the Oblivious strategies and baseline runs.
//
// A transfer's rate depends only on its own weight (its job's node
// count), the summed weight and the number of transfers, so the device
// keeps its rate bookkeeping per weight class: the active transfers of
// one weight. Per class it holds the rate, recomputed only after the
// active set changes (ratesOK false), and the least remaining volume,
// from which it finds the next completion without a division per
// transfer. Per transfer it keeps only rem, the bytes still to move, and
// its class, in slices parallel to active; a time advance is one
// subtraction pass over them. A class's transfers all move at one rate,
// and rounding is monotone, so the least rem after an advance is the
// least rem before it advanced by the same expression: the minimum
// advances with the class, and only a removal of the transfer holding it
// calls for a pass to find it again. Weights are node counts, whole
// numbers, so the running total is exact and equals the sum of the active
// weights in any order.
type SharedDevice struct {
	eng    *sim.Engine
	bw     float64
	model  InterferenceModel
	active []*Transfer
	rem    []float64
	class  []int32 // index of active[i]'s weight class
	// The weight classes, in no particular order; an emptied class is
	// dropped, so each has at least one member.
	weights   []float64 // the class's weight
	members   []int     // its active transfers
	rates     []float64 // the rate of each of them
	mins      []float64 // least rem among them, unless minsStale
	total     float64   // summed weight of the active transfers
	ratesOK   bool
	minsStale bool
	last      float64 // time active transfers were last advanced
	wake      *sim.Event
	seq       uint64
	// rescheduling guards against re-entrant reschedule calls from
	// completion callbacks (which may Submit or Abort): nested calls fold
	// into the outer completion loop.
	rescheduling bool
}

// NewSharedDevice returns a shared device on the given engine with the
// given aggregated bandwidth (bytes/s) and interference model.
func NewSharedDevice(eng *sim.Engine, bandwidth float64, model InterferenceModel) *SharedDevice {
	if bandwidth <= 0 {
		panic("iomodel: non-positive bandwidth")
	}
	if model == nil {
		model = LinearShare{}
	}
	return &SharedDevice{eng: eng, bw: bandwidth, model: model, last: eng.Now()}
}

// Bandwidth implements Device.
func (d *SharedDevice) Bandwidth() float64 { return d.bw }

// Busy implements Device.
func (d *SharedDevice) Busy() int { return len(d.active) }

// Waiting implements Device. Shared devices never queue.
func (d *SharedDevice) Waiting() int { return 0 }

// Submit implements Device: the transfer starts moving immediately.
func (d *SharedDevice) Submit(t *Transfer) {
	if !t.valid() {
		panic("iomodel: invalid transfer")
	}
	now := d.eng.Now()
	d.advance(now)
	t.arrival = now
	t.start = now
	t.seq = d.seq
	d.seq++
	t.state = stateActive
	w := float64(t.Nodes)
	c := d.classOf(w)
	d.active = append(d.active, t)
	d.rem = append(d.rem, t.Volume)
	d.class = append(d.class, int32(c))
	d.mins[c] = min(d.mins[c], t.Volume)
	d.total += w
	d.ratesOK = false
	t.Sink.TransferStarted(t, now)
	d.reschedule(now, 0)
}

// classOf returns the index of the weight class of w, creating it when no
// active transfer has that weight, and counts one more member in it.
func (d *SharedDevice) classOf(w float64) int {
	for c, cw := range d.weights {
		if cw == w {
			d.members[c]++
			return c
		}
	}
	d.weights = append(d.weights, w)
	d.members = append(d.members, 1)
	d.rates = append(d.rates, 0)
	d.mins = append(d.mins, math.Inf(1))
	return len(d.weights) - 1
}

// Abort implements Device.
func (d *SharedDevice) Abort(t *Transfer) {
	now := d.eng.Now()
	d.advance(now)
	for i, a := range d.active {
		if a == t {
			d.removeActive(i)
			t.state = stateAborted
			d.reschedule(now, 0)
			return
		}
	}
}

// removeActive swap-removes entry i of the parallel slices in O(1), and
// drops its class when it empties (re-pointing the members of the class
// moved into its place). Active order decides which of several finished
// transfers completes first, so every removal takes this one path.
func (d *SharedDevice) removeActive(i int) {
	c, rem := d.class[i], d.rem[i]
	last := len(d.active) - 1
	d.active[i] = d.active[last]
	d.active[last] = nil
	d.active = d.active[:last]
	d.rem[i] = d.rem[last]
	d.rem = d.rem[:last]
	d.class[i] = d.class[last]
	d.class = d.class[:last]
	d.total -= d.weights[c]
	d.ratesOK = false
	if d.members[c]--; d.members[c] > 0 {
		if rem <= d.mins[c] {
			d.minsStale = true
		}
		return
	}
	// Move the last class into the emptied one's place; its rate is
	// recomputed before it is read again.
	lc := int32(len(d.weights) - 1)
	if c != lc {
		d.weights[c], d.members[c], d.mins[c] = d.weights[lc], d.members[lc], d.mins[lc]
		for j, cj := range d.class {
			if cj == lc {
				d.class[j] = c
			}
		}
	}
	d.weights = d.weights[:lc]
	d.members = d.members[:lc]
	d.rates = d.rates[:lc]
	d.mins = d.mins[:lc]
}

// Reset returns the device to its initial idle state, retaining the slice
// capacity. Transfers still active are marked aborted without
// notification. The simulation engine must be reset (or at time zero)
// first: the device's pending wake event is dropped, not cancelled, on the
// assumption that the engine reset already recycled it.
func (d *SharedDevice) Reset() {
	for i := range d.active {
		d.active[i].state = stateAborted
		d.active[i] = nil
	}
	d.active = d.active[:0]
	d.rem = d.rem[:0]
	d.class = d.class[:0]
	d.weights = d.weights[:0]
	d.members = d.members[:0]
	d.rates = d.rates[:0]
	d.mins = d.mins[:0]
	d.total = 0
	d.ratesOK = false
	d.minsStale = false
	d.wake = nil
	d.last = d.eng.Now()
	d.seq = 0
	d.rescheduling = false
}

// ensureRates brings the class rates up to date with the active set,
// which must be non-empty.
func (d *SharedDevice) ensureRates() {
	if d.ratesOK {
		return
	}
	d.model.Rates(d.bw, d.total, len(d.active), d.weights, d.rates)
	d.ratesOK = true
}

// advance applies progress accrued since the last update at the current
// rates.
func (d *SharedDevice) advance(now float64) {
	dt := now - d.last
	d.last = now
	if dt > 0 && len(d.active) > 0 {
		d.drain(dt)
	}
}

// drain moves every transfer, and each class minimum, dt seconds forward
// at the current rates. The minimum takes the expression its transfer
// takes, so it stays bit-equal to that transfer's rem.
func (d *SharedDevice) drain(dt float64) {
	d.ensureRates()
	rates := d.rates
	rems := d.rem[:len(d.class)]
	for i, c := range d.class {
		rem := rems[i]
		rem -= rates[c] * dt
		if rem < 0 {
			rem = 0
		}
		rems[i] = rem
	}
	mins := d.mins[:len(rates)]
	for c, m := range mins {
		m -= rates[c] * dt
		if m < 0 {
			m = 0
		}
		mins[c] = m
	}
}

// findMins recomputes the class minima after a removal took one away.
func (d *SharedDevice) findMins() {
	mins := d.mins
	for c := range mins {
		mins[c] = math.Inf(1)
	}
	rems := d.rem[:len(d.class)]
	for i, c := range d.class {
		mins[c] = min(mins[c], rems[i])
	}
	d.minsStale = false
}

// progress moves every transfer dt seconds forward at the current rates
// (none when dt is 0) and returns the index of the first finished
// transfer in active order — drained, or within the minimum schedulable
// interval of draining — or -1, and the time until the earliest projected
// completion. Both come from each class's least rem: a transfer is
// finished when its rem is within its class's threshold, and the earliest
// completion is the least class minimum over its rate (division by a
// positive rate is monotone, so this equals the least rem/rate over the
// transfers). Only when some class holds a finished transfer does
// progress scan the transfers for the first one. The active set must be
// non-empty.
func (d *SharedDevice) progress(now, dt float64) (done int, next float64) {
	if dt > 0 {
		d.drain(dt)
	} else {
		d.ensureRates()
	}
	if d.minsStale {
		d.findMins()
	}
	floor := minWake(now)
	next = math.Inf(1)
	due := false
	for c, r := range d.rates {
		m := d.mins[c]
		if m <= max(volumeEpsilon, r*floor) {
			due = true
		}
		if r > 0 {
			if eta := m / r; eta < next {
				next = eta
			}
		}
	}
	if due {
		for i, c := range d.class {
			if d.rem[i] <= max(volumeEpsilon, d.rates[c]*floor) {
				return i, next
			}
		}
	}
	return -1, next
}

// reschedule applies dt seconds of progress, completes any finished
// transfers and re-arms the wake-up event for the next completion, in
// place when it is still queued or firing. Finished transfers complete
// one at a time with the rates recomputed in between (completing one
// raises the survivors' rates, which can make more eligible). Completion
// callbacks may submit or abort transfers re-entrantly; the rescheduling
// guard folds those nested calls into this loop, keeping the cascade
// iterative and stack-safe when many transfers complete at one instant.
func (d *SharedDevice) reschedule(now, dt float64) {
	if d.rescheduling {
		return
	}
	d.rescheduling = true
	defer func() { d.rescheduling = false }()
	for len(d.active) > 0 {
		done, next := d.progress(now, dt)
		dt = 0
		if done < 0 {
			if math.IsInf(next, 1) {
				panic("iomodel: active transfers with zero aggregate rate")
			}
			d.wake = d.eng.Rekey(d.wake, d.eng.Now()+next, d)
			return
		}
		t := d.active[done]
		d.removeActive(done)
		t.state = stateDone
		t.Sink.TransferCompleted(t, now)
		now = d.eng.Now()
	}
	if d.wake != nil {
		d.wake.Cancel()
		d.wake = nil
	}
}

// Fire implements sim.Handler: the device wakes at the next projected
// completion and applies the accrued progress in the same pass that looks
// for finished transfers. Implementing the handler on the device itself
// keeps the periodic wake-up allocation-free. d.wake stays the firing
// handle, so reschedule re-arms it in place (or drops it once the device
// is idle, and the engine recycles it).
func (d *SharedDevice) Fire() {
	now := d.eng.Now()
	dt := now - d.last
	d.last = now
	d.reschedule(now, dt)
}

// Selector orders token grants among waiting transfers.
type Selector interface {
	// Pick returns the index within pending of the transfer to grant
	// next. pending is non-empty and in arrival order. Pick is called
	// exactly once per grant, so stateful selectors may account the
	// granted transfer inside it.
	Pick(now float64, pending []*Transfer) int
	Name() string
}

// StatefulSelector is a Selector carrying per-run state (randomness,
// served-share accounting). The engine resets it at the start of every
// replicate with the replicate's seed, which keeps arena-reused runs
// bit-identical to fresh builds.
type StatefulSelector interface {
	Selector
	// ResetSelector returns the selector to its initial state for a run
	// driven by the given seed.
	ResetSelector(seed uint64)
}

// FCFS grants the token in request-arrival order (the Ordered and
// Ordered-NB disciplines, §3.2–3.3).
type FCFS struct{}

// Pick implements Selector.
func (FCFS) Pick(_ float64, pending []*Transfer) int { return 0 }

func (FCFS) Name() string { return "fcfs" }

// Background wraps any Selector with the drain-when-idle policy: the
// inner selector orders only the foreground candidates, and burst-buffer
// Drain transfers are considered solely when nothing else waits. Use it
// for grant orders with no native way to arbitrate drains (selectors that
// score candidates against each other, like Least-Waste, handle drains
// themselves and do not need it).
type Background struct {
	Inner Selector
	// scratch buffers reused across picks
	fg  []*Transfer
	idx []int
}

// Pick implements Selector.
func (b *Background) Pick(now float64, pending []*Transfer) int {
	b.fg, b.idx = b.fg[:0], b.idx[:0]
	for i, t := range pending {
		if t.Kind != Drain {
			b.fg = append(b.fg, t)
			b.idx = append(b.idx, i)
		}
	}
	if len(b.fg) == 0 || len(b.fg) == len(pending) {
		// All drains (serve them) or no drains: nothing to demote.
		return b.Inner.Pick(now, pending)
	}
	return b.idx[b.Inner.Pick(now, b.fg)]
}

// Name implements Selector.
func (b *Background) Name() string { return b.Inner.Name() + "-background" }

// ResetSelector implements StatefulSelector, forwarding to the inner
// selector when it is stateful (a no-op otherwise).
func (b *Background) ResetSelector(seed uint64) {
	if ss, ok := b.Inner.(StatefulSelector); ok {
		ss.ResetSelector(seed)
	}
}

// ShortestFirst grants the pending transfer with the smallest volume —
// shortest service time at full channel bandwidth — breaking ties in
// arrival order. The classic SPT discipline: small job I/O and checkpoints
// overtake bulk transfers, minimising mean wait at the cost of delaying
// the largest candidates.
type ShortestFirst struct{}

// Pick implements Selector.
func (ShortestFirst) Pick(_ float64, pending []*Transfer) int {
	best := 0
	for i, t := range pending[1:] {
		if t.Volume < pending[best].Volume {
			best = i + 1
		}
	}
	return best
}

func (ShortestFirst) Name() string { return "shortest-first" }

// RandomSelector grants the token uniformly at random among the waiting
// transfers: the strawman control for grant-ordering intelligence — any
// informed selector should beat it. Deterministic per run: the engine
// reseeds it from the replicate seed through ResetSelector.
type RandomSelector struct {
	rng rng.RNG
}

// randomSelectorStream keeps the selector's random stream disjoint from
// the engine's workload-generation (1) and failure (2) streams of the same
// replicate seed.
const randomSelectorStream = 3

// NewRandomSelector returns a random-grant selector seeded for one run.
func NewRandomSelector(seed uint64) *RandomSelector {
	s := &RandomSelector{}
	s.ResetSelector(seed)
	return s
}

// Pick implements Selector.
func (s *RandomSelector) Pick(_ float64, pending []*Transfer) int {
	if len(pending) == 1 {
		return 0
	}
	return s.rng.Intn(len(pending))
}

// Name implements Selector.
func (s *RandomSelector) Name() string { return "random" }

// ResetSelector implements StatefulSelector.
func (s *RandomSelector) ResetSelector(seed uint64) {
	s.rng.ReseedStream(seed, randomSelectorStream)
}

// TokenDevice serialises transfers behind k I/O tokens (channels): up to k
// transfers at a time each move at full channel bandwidth while the rest
// wait; the Selector chooses the next owner at each release. k=1 is the
// paper's single-token device. The model is a partitioned checkpoint store
// with k parallel write lanes, each lane sustaining the full aggregated
// bandwidth, so aggregate capacity grows with k; with unbounded channels
// every transfer is admitted immediately, degenerating to a SharedDevice
// under the Unlimited interference model.
type TokenDevice struct {
	eng *sim.Engine
	bw  float64
	sel Selector
	k   int // channel count; <= 0 means unbounded
	// pending[head:] are the waiting transfers in arrival order; a grant
	// or abort at the front only advances head.
	pending []*Transfer
	head    int
	// slots are the channel slots, grown on demand up to k (or without
	// bound when unbounded) and retained across Reset; free stacks the
	// idle ones, the most recently freed on top.
	slots []*tokenSlot
	free  []*tokenSlot
	busy  int
	seq   uint64
}

// tokenSlot is one granted channel: the in-flight transfer and its
// completion wake-up. Implementing sim.Handler on the slot keeps per-grant
// event scheduling allocation-free once the slot exists. A slot granted
// again inside its own completion re-arms its firing wake in place.
type tokenSlot struct {
	dev  *TokenDevice
	t    *Transfer
	wake *sim.Event
}

// Fire implements sim.Handler: this slot's transfer completes.
func (sl *tokenSlot) Fire() { sl.dev.complete(sl) }

// NewTokenDevice returns a single-token device on the given engine — the
// paper's serialised I/O discipline.
func NewTokenDevice(eng *sim.Engine, bandwidth float64, sel Selector) *TokenDevice {
	return NewTokenDeviceK(eng, bandwidth, sel, 1)
}

// NewTokenDeviceK returns a token device with k concurrent channels;
// k <= 0 means unbounded (every submission is granted immediately).
func NewTokenDeviceK(eng *sim.Engine, bandwidth float64, sel Selector, k int) *TokenDevice {
	if bandwidth <= 0 {
		panic("iomodel: non-positive bandwidth")
	}
	if sel == nil {
		sel = FCFS{}
	}
	return &TokenDevice{eng: eng, bw: bandwidth, sel: sel, k: k}
}

// Bandwidth implements Device.
func (d *TokenDevice) Bandwidth() float64 { return d.bw }

// Channels returns the channel count (<= 0 means unbounded).
func (d *TokenDevice) Channels() int { return d.k }

// Busy implements Device.
func (d *TokenDevice) Busy() int { return d.busy }

// Waiting implements Device.
func (d *TokenDevice) Waiting() int { return len(d.pending) - d.head }

// Current returns the transfer holding the first busy channel, if any (the
// token holder of a k=1 device).
func (d *TokenDevice) Current() *Transfer {
	for _, sl := range d.slots {
		if sl.t != nil {
			return sl.t
		}
	}
	return nil
}

// Pending returns the waiting transfers in arrival order. The caller must
// not mutate the slice.
func (d *TokenDevice) Pending() []*Transfer { return d.pending[d.head:] }

// Submit implements Device: the transfer queues for the token and is
// granted immediately if the device is idle.
func (d *TokenDevice) Submit(t *Transfer) {
	if !t.valid() {
		panic("iomodel: invalid transfer")
	}
	t.arrival = d.eng.Now()
	t.seq = d.seq
	d.seq++
	t.state = statePending
	if n := len(d.pending); n == cap(d.pending) && d.head*2 >= n {
		// At least half the array is spent front: reclaim it instead of
		// growing, which keeps the copy amortised O(1) per grant.
		live := copy(d.pending, d.pending[d.head:])
		clear(d.pending[live:])
		d.pending = d.pending[:live]
		d.head = 0
	}
	d.pending = append(d.pending, t)
	d.grant()
}

// unqueue removes and returns the waiting transfer at index i of
// Pending(), shifting the shorter side of the queue over it: an FCFS
// grant or an abort at the front costs O(1).
func (d *TokenDevice) unqueue(i int) *Transfer {
	p := d.pending
	at := d.head + i
	t := p[at]
	if i < len(p)-at-1 {
		copy(p[d.head+1:at+1], p[d.head:at])
		p[d.head] = nil
		d.head++
	} else {
		copy(p[at:], p[at+1:])
		p[len(p)-1] = nil
		d.pending = p[:len(p)-1]
	}
	if d.head == len(d.pending) {
		d.pending, d.head = d.pending[:0], 0
	}
	return t
}

// Abort implements Device.
func (d *TokenDevice) Abort(t *Transfer) {
	for _, sl := range d.slots {
		if sl.t == t {
			if sl.wake != nil {
				sl.wake.Cancel()
				sl.wake = nil
			}
			d.release(sl)
			t.state = stateAborted
			d.grant()
			return
		}
	}
	for i, p := range d.Pending() {
		if p == t {
			d.unqueue(i)
			t.state = stateAborted
			return
		}
	}
}

// Reset returns the device to its initial idle state, retaining the
// pending-queue capacity and the channel slots. The queued and granted
// transfers are marked aborted without notification. As with
// SharedDevice.Reset, the engine must be reset (or at time zero) first —
// the wake events are dropped, not cancelled.
func (d *TokenDevice) Reset() {
	for i := range d.pending {
		if t := d.pending[i]; t != nil {
			t.state = stateAborted
		}
		d.pending[i] = nil
	}
	d.pending, d.head = d.pending[:0], 0
	d.free = d.free[:0]
	for _, sl := range d.slots {
		if sl.t != nil {
			sl.t.state = stateAborted
			sl.t = nil
		}
		sl.wake = nil
		d.free = append(d.free, sl)
	}
	d.busy = 0
	d.seq = 0
}

// freeSlot returns the most recently freed channel slot, growing the slot
// set on demand (slots are retained for the device's lifetime, so
// steady-state grants allocate nothing). Which idle slot takes a grant
// does not change the dispatch order, since every grant re-keys its wake
// at a fresh (time, sequence) position; taking the last freed one lets a
// slot granted again inside its own completion re-arm its firing wake in
// place.
func (d *TokenDevice) freeSlot() *tokenSlot {
	if n := len(d.free); n > 0 {
		sl := d.free[n-1]
		d.free = d.free[:n-1]
		return sl
	}
	sl := &tokenSlot{dev: d}
	d.slots = append(d.slots, sl)
	return sl
}

// release empties a granted slot and stacks it as free.
func (d *TokenDevice) release(sl *tokenSlot) {
	sl.t = nil
	d.busy--
	d.free = append(d.free, sl)
}

// grant hands free channels to the selector's choices until every channel
// is busy or no transfer waits. Start notifications may submit or abort
// re-entrantly; the loop re-reads the queue and channel state each
// iteration, so nested grants fold in safely.
func (d *TokenDevice) grant() {
	for d.Waiting() > 0 && (d.k <= 0 || d.busy < d.k) {
		now := d.eng.Now()
		idx := d.sel.Pick(now, d.Pending())
		if idx < 0 || idx >= d.Waiting() {
			panic(fmt.Sprintf("iomodel: selector %s picked %d of %d", d.sel.Name(), idx, d.Waiting()))
		}
		t := d.unqueue(idx)
		sl := d.freeSlot()
		sl.t = t
		d.busy++
		t.state = stateActive
		t.start = now
		t.Sink.TransferStarted(t, now)
		if sl.t != t {
			// The start callback aborted this grant re-entrantly; the
			// slot was freed (and possibly re-granted, arming its own
			// wake). Arming a wake for the dead transfer would clobber
			// the new occupant's handle and double-fire the slot.
			continue
		}
		sl.wake = d.eng.Rekey(sl.wake, now+t.Volume/d.bw, sl)
	}
}

// complete finishes a slot's transfer and re-grants the freed channel.
// sl.wake is the firing handle: a grant to this slot re-arms it in place,
// and a slot left idle drops it for the engine to recycle.
func (d *TokenDevice) complete(sl *tokenSlot) {
	t := sl.t
	d.release(sl)
	t.state = stateDone
	t.Sink.TransferCompleted(t, d.eng.Now())
	d.grant()
	if sl.t == nil {
		sl.wake = nil
	}
}

// Compile-time interface checks.
var (
	_ Device           = (*SharedDevice)(nil)
	_ Device           = (*TokenDevice)(nil)
	_ sim.Handler      = (*SharedDevice)(nil)
	_ sim.Handler      = (*tokenSlot)(nil)
	_ StatefulSelector = (*RandomSelector)(nil)
	_ Selector         = ShortestFirst{}
)
