// Package sim implements the discrete-event simulation core: a virtual
// clock and a pending-event queue with deterministic ordering.
//
// Events scheduled for the same instant execute in scheduling order (FIFO),
// which makes every simulation a deterministic function of its inputs and
// random seed — a requirement for the reproducible Monte-Carlo experiments
// of the paper.
//
// The pending queue is an intrusive 4-ary indexed heap ordered by
// (time, sequence): earliest first, FIFO within an instant. Each entry
// stores its key inline as two unsigned words, the IEEE-754 bits of the
// (non-negative) time and the sequence number, so a sift compares
// children by the borrow of a 128-bit subtraction instead of chasing
// Event pointers and branching on float compares. Schedule, Cancel and
// Rekey are O(log n); the paper's scenarios keep a few dozen events
// pending at most, with a third to a half of all schedules cancelled or
// re-armed before they fire (repository README, "Event queue").
//
// Scheduling recycles events through a free list (amortised zero
// allocations on the hot path), and cancellation removes the event from
// the queue instead of leaving a tombstone. Work is dispatched through the
// small Handler interface; long-lived simulation objects implement it once
// and are scheduled allocation-free, while the Action closure adapter
// keeps the convenient func-based API.
package sim

import (
	"fmt"
	"math"
	"math/bits"
)

// Handler is the work an event performs when it fires. Objects that
// schedule themselves repeatedly should implement Handler directly: the
// interface conversion of a pointer receiver does not allocate, unlike a
// fresh closure per event.
type Handler interface {
	Fire()
}

// Action adapts a closure to Handler for call sites where an ad-hoc
// function is clearer than a named handler type.
type Action func()

// Fire implements Handler.
func (a Action) Fire() { a() }

// Event states. A pooled event cycles free → scheduled → (firing →
// fired | cancelled) → free.
const (
	stateFree uint8 = iota
	stateScheduled
	stateFiring
	stateFired
	stateCancelled
)

// Event is a handle to a scheduled action. It can be cancelled until it
// has fired.
//
// Handles are single-use: once the event has fired or been cancelled, the
// struct returns to the engine's free list and may be recycled by a later
// Schedule. Holders must therefore drop (nil out) their reference when the
// event fires or is cancelled and never call Cancel through a stale handle
// — the discipline the engine package follows by clearing its event fields
// at the top of every handler.
type Event struct {
	at  float64
	seq uint64
	h   Handler
	eng *Engine
	// pos is the event's index in the heap array; -1 when not queued.
	pos   int32
	state uint8
	// next links the engine's free list.
	next *Event
}

// Time returns the instant the event is scheduled for.
func (e *Event) Time() float64 { return e.at }

// Cancel prevents the event from firing, removing it from the queue in
// O(log n). Cancelling an already-fired, already-cancelled, or
// currently-firing event is a no-op.
func (e *Event) Cancel() {
	if e.state != stateScheduled {
		return
	}
	e.state = stateCancelled
	e.eng.heap.remove(int(e.pos))
	e.eng.put(e)
}

// Cancelled reports whether the event has been cancelled.
func (e *Event) Cancelled() bool { return e.state == stateCancelled }

// eventBlockSize is how many Events one pool refill allocates at once.
const eventBlockSize = 64

// Engine is a discrete-event executor. The zero value is ready to use and
// starts at time 0.
type Engine struct {
	now      float64
	seq      uint64
	heap     heap4
	executed uint64
	// free is the head of the recycled-event list; freeN its length.
	free  *Event
	freeN int
	// allocated counts Events ever handed to the pool (diagnostics).
	allocated int
}

// New returns an engine with its clock at 0.
func New() *Engine { return &Engine{} }

// Now returns the current simulation time in seconds.
func (e *Engine) Now() float64 { return e.now }

// Executed returns the number of events fired so far.
func (e *Engine) Executed() uint64 { return e.executed }

// Pending returns the number of scheduled events that have neither fired
// nor been cancelled.
func (e *Engine) Pending() int { return len(e.heap.e) }

// PoolStats returns the number of Event structs ever allocated and the
// number currently idle on the free list.
func (e *Engine) PoolStats() (allocated, free int) { return e.allocated, e.freeN }

// Reset returns the engine to the pristine clock-zero state while retaining
// the event pool and the heap array's capacity, so a reused engine
// schedules its next simulation without allocating. Still-scheduled events
// are recycled as if cancelled; stale handles held by callers become no-ops
// (Cancel on a non-scheduled event does nothing) and must be dropped,
// exactly as after a fire. The sequence counter restarts at 0, so a reset
// engine orders same-instant events identically to a fresh one — the
// property the bit-identical Monte-Carlo replicates of package engine rely
// on.
func (e *Engine) Reset() {
	for i := range e.heap.e {
		ev := e.heap.e[i].ev
		e.heap.e[i] = heapEntry{}
		ev.state = stateCancelled
		e.put(ev)
	}
	e.heap.e = e.heap.e[:0]
	e.now, e.seq, e.executed = 0, 0, 0
}

// get pops a recycled event or refills the pool with a fresh block.
func (e *Engine) get() *Event {
	if e.free == nil {
		block := make([]Event, eventBlockSize)
		for i := range block {
			block[i].eng = e
			block[i].next = e.free
			e.free = &block[i]
		}
		e.freeN += eventBlockSize
		e.allocated += eventBlockSize
	}
	ev := e.free
	e.free = ev.next
	e.freeN--
	ev.next = nil
	return ev
}

// put returns a fired or cancelled event to the free list.
func (e *Engine) put(ev *Event) {
	ev.h = nil
	ev.pos = -1
	ev.next = e.free
	e.free = ev
	e.freeN++
}

// checkTime validates an absolute event time and returns the time to
// queue. Scheduling in the past is a programming error and panics; a tiny
// negative slack (one part in 2^40 of the current time) is tolerated and
// clamped to now to absorb floating-point round-off from interval
// arithmetic. Negative zero becomes +0: the heap orders times by their bit
// patterns, under which -0 would sort after every other time.
func (e *Engine) checkTime(at float64) float64 {
	if at < e.now {
		slack := math.Max(1e-9, e.now*0x1p-40)
		if e.now-at > slack {
			panic(fmt.Sprintf("sim: scheduling event at %g before now %g", at, e.now))
		}
		at = e.now
	}
	if math.IsNaN(at) || math.IsInf(at, 0) {
		panic(fmt.Sprintf("sim: scheduling event at non-finite time %g", at))
	}
	if at == 0 {
		at = 0
	}
	return at
}

// ScheduleHandler registers h to fire at absolute time at and returns a
// handle that can cancel it. Times in the past panic, up to the round-off
// slack that checkTime clamps.
func (e *Engine) ScheduleHandler(at float64, h Handler) *Event {
	at = e.checkTime(at)
	ev := e.get()
	ev.at = at
	ev.seq = e.seq
	ev.h = h
	ev.state = stateScheduled
	e.seq++
	e.heap.push(ev)
	return ev
}

// Rekey re-arms ev to fire h at absolute time at and returns the handle
// to keep. A still-queued ev moves in place with one sift and takes the
// next sequence number, so the dispatch order is exactly that of
// ev.Cancel() followed by ScheduleHandler(at, h). A nil, fired, firing or
// cancelled ev schedules a fresh event instead; as with Cancel, a handle
// must not be used once it has gone stale and been recycled.
func (e *Engine) Rekey(ev *Event, at float64, h Handler) *Event {
	if ev == nil || ev.state != stateScheduled {
		return e.ScheduleHandler(at, h)
	}
	at = e.checkTime(at)
	ev.at = at
	ev.seq = e.seq
	ev.h = h
	e.seq++
	i := int(ev.pos)
	e.heap.e[i].at = math.Float64bits(at)
	e.heap.e[i].seq = ev.seq
	if !e.heap.down(i) {
		e.heap.up(i)
	}
	return ev
}

// Schedule registers act to run at absolute time at. It is ScheduleHandler
// with the closure adapter; hot paths should prefer a pointer Handler.
func (e *Engine) Schedule(at float64, act Action) *Event {
	return e.ScheduleHandler(at, act)
}

// After registers act to run d seconds from now.
func (e *Engine) After(d float64, act Action) *Event {
	return e.ScheduleHandler(e.now+d, act)
}

// AfterHandler registers h to fire d seconds from now.
func (e *Engine) AfterHandler(d float64, h Handler) *Event {
	return e.ScheduleHandler(e.now+d, h)
}

// fire dispatches one dequeued event and recycles it.
func (e *Engine) fire(ev *Event) {
	ev.state = stateFiring
	e.now = ev.at
	e.executed++
	ev.h.Fire()
	ev.state = stateFired
	e.put(ev)
}

// Step fires the next pending event, if any, advancing the clock to its
// time. It reports whether an event was fired.
func (e *Engine) Step() bool {
	if len(e.heap.e) == 0 {
		return false
	}
	e.fire(e.heap.popMin())
	return true
}

// Run fires events in order until the queue is exhausted or the next event
// lies strictly beyond until; the clock then rests at until. It returns
// the number of events fired.
func (e *Engine) Run(until float64) uint64 {
	fired := uint64(0)
	for len(e.heap.e) > 0 && e.heap.e[0].ev.at <= until {
		e.fire(e.heap.popMin())
		fired++
	}
	if until > e.now {
		e.now = until
	}
	return fired
}

// RunAll fires events until none remain. It returns the number fired. A
// safety cap guards against runaway self-rescheduling loops; exceeding it
// panics, as that always indicates a simulation bug.
func (e *Engine) RunAll() uint64 {
	const maxEvents = 1 << 34
	fired := uint64(0)
	for e.Step() {
		fired++
		if fired > maxEvents {
			panic("sim: RunAll exceeded event cap; self-rescheduling loop?")
		}
	}
	return fired
}

// heapEntry pairs the ordering key with its event. The key is inline in
// the heap array, so a sift-down reads the four children from at most two
// contiguous cache lines instead of dereferencing four Event pointers
// scattered across pool blocks. at holds math.Float64bits of the event
// time: for the non-negative, non-NaN times checkTime admits, the bit
// patterns order as the floats do.
type heapEntry struct {
	at  uint64
	seq uint64
	ev  *Event
}

// before returns 1 when a orders strictly before b in (time, sequence)
// order and 0 otherwise: the borrow out of the 128-bit subtraction a-b,
// computed without a branch. Sequence numbers are unique, so two distinct
// entries never compare equal.
func before(a, b *heapEntry) int {
	_, borrow := bits.Sub64(a.seq, b.seq, 0)
	_, borrow = bits.Sub64(a.at, b.at, borrow)
	return int(borrow)
}

// heap4 is an intrusive 4-ary min-heap ordered by (time, sequence):
// earliest first, FIFO within an instant. Each queued Event carries its
// own array index, so removal from the middle (cancellation) and in-place
// re-keying are O(log n). The wider fan-out halves the tree depth of the
// binary heap.
type heap4 struct {
	e []heapEntry
}

func (h *heap4) push(ev *Event) {
	h.e = append(h.e, heapEntry{at: math.Float64bits(ev.at), seq: ev.seq, ev: ev})
	h.up(len(h.e) - 1)
}

// up sifts the entry at index i toward the root.
func (h *heap4) up(i int) {
	en := h.e[i]
	for i > 0 {
		p := (i - 1) >> 2
		if before(&en, &h.e[p]) == 0 {
			break
		}
		h.e[i] = h.e[p]
		h.e[i].ev.pos = int32(i)
		i = p
	}
	h.e[i] = en
	en.ev.pos = int32(i)
}

// down sifts the entry at index i toward the leaves. It reports whether
// the entry moved. A full set of four children is reduced by a two-round
// tournament whose winner indices are selected arithmetically from the
// comparison borrows, so the only branches left are the loop's.
func (h *heap4) down(i int) bool {
	n := len(h.e)
	en := h.e[i]
	start := i
	for {
		c := i<<2 + 1
		if c >= n {
			break
		}
		var m int
		if c+4 <= n {
			q := h.e[c : c+4 : c+4]
			a := before(&q[1], &q[0])
			b := 2 + before(&q[3], &q[2])
			m = c + (a ^ ((a ^ b) & -before(&q[b], &q[a])))
		} else {
			m = c
			for k := c + 1; k < n; k++ {
				m ^= (m ^ k) & -before(&h.e[k], &h.e[m])
			}
		}
		if before(&h.e[m], &en) == 0 {
			break
		}
		h.e[i] = h.e[m]
		h.e[i].ev.pos = int32(i)
		i = m
	}
	h.e[i] = en
	en.ev.pos = int32(i)
	return i != start
}

// popMin removes and returns the earliest event.
func (h *heap4) popMin() *Event {
	ev := h.e[0].ev
	last := len(h.e) - 1
	moved := h.e[last]
	h.e[last] = heapEntry{}
	h.e = h.e[:last]
	if last > 0 {
		h.e[0] = moved
		moved.ev.pos = 0
		h.down(0)
	}
	ev.pos = -1
	return ev
}

// remove deletes the entry at index i, restoring heap order around the
// element swapped into its place.
func (h *heap4) remove(i int) {
	ev := h.e[i].ev
	last := len(h.e) - 1
	if i == last {
		h.e[last] = heapEntry{}
		h.e = h.e[:last]
		ev.pos = -1
		return
	}
	moved := h.e[last]
	h.e[last] = heapEntry{}
	h.e = h.e[:last]
	h.e[i] = moved
	moved.ev.pos = int32(i)
	if !h.down(i) {
		h.up(i)
	}
	ev.pos = -1
}
