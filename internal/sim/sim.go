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
// Rekey are O(log n).
//
// Two features keep the queue traffic close to one operation per fired
// event (repository README, "Event queue"). A firing event stays at the
// heap root until its handler returns, so a handler that re-arms its own
// handle (Rekey or Arm) moves it with one sift instead of a pop and a
// push; an event that is not re-armed leaves the queue after Fire. And
// Reserve hands out a position in the dispatch order — the time and the
// sequence number a schedule would take — that Arm later queues an event
// at exactly, so one event can stand for several deadlines without
// changing the order in which they fire.
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
// fired | cancelled) → free; a firing event re-armed by its own handler
// goes back to scheduled instead.
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
// A handle stays valid while the event is queued and while its handler
// runs; a handler that re-arms its own handle (Rekey or Arm) keeps it for
// the next firing. Once the event has fired without being re-armed, or
// has been cancelled, the struct returns to the engine's free list and may
// be recycled by a later Schedule. Holders must therefore drop (nil out)
// their reference when the event fires or is cancelled and never call
// Cancel through a stale handle — the discipline the engine package
// follows by re-arming or clearing its event fields before each handler
// returns.
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

// Key returns the position the event is queued at, as Reserve would have
// handed it out.
func (e *Event) Key() Key { return Key{at: e.at, seq: e.seq + 1} }

// Cancel prevents the event from firing, removing it from the queue in
// O(log n). Cancelling an already-fired, already-cancelled, or
// currently-firing event is a no-op; a firing event that its handler does
// not re-arm leaves the queue when the handler returns.
func (e *Event) Cancel() {
	if e.state != stateScheduled {
		return
	}
	e.state = stateCancelled
	e.eng.ops.Remove++
	e.eng.heap.remove(int(e.pos))
	e.eng.put(e)
}

// Cancelled reports whether the event has been cancelled.
func (e *Event) Cancelled() bool { return e.state == stateCancelled }

// Key is a reserved position in the dispatch order: an event time and the
// sequence number that orders it among the events of that instant.
// Reserve hands one out, taking the sequence number a schedule at the same
// point would take; Arm queues an event at it. The zero Key is "none" and
// orders after every reserved one.
type Key struct {
	at float64
	// seq is the reserved sequence number plus one, so that the zero Key
	// is distinct from the first reservation of a run.
	seq uint64
}

// Time returns the instant k was reserved for.
func (k Key) Time() float64 { return k.at }

// IsZero reports whether k is the zero ("none") Key.
func (k Key) IsZero() bool { return k.seq == 0 }

// Before reports whether k orders strictly before o: earlier time first,
// then earlier reservation. The zero Key orders after every other key.
func (k Key) Before(o Key) bool {
	if k.seq == 0 {
		return false
	}
	return o.seq == 0 || k.at < o.at || (k.at == o.at && k.seq < o.seq)
}

// QueueOps counts the pending queue's operations since the engine was
// created or last Reset: events pushed, fired events popped, events
// removed by Cancel, and events moved in place by Rekey or Arm (a firing
// event re-armed by its own handler included). Fired events are counted
// by Executed; the ratio of the two is the queue traffic an event costs.
type QueueOps struct {
	Push, Pop, Remove, Rekey uint64
}

// Total returns the number of queue operations of every kind.
func (o QueueOps) Total() uint64 { return o.Push + o.Pop + o.Remove + o.Rekey }

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
	// firing is the event whose handler is running, nil between events.
	// It stays at its heap position until the handler returns.
	firing *Event
	ops    QueueOps
}

// New returns an engine with its clock at 0.
func New() *Engine { return &Engine{} }

// Now returns the current simulation time in seconds.
func (e *Engine) Now() float64 { return e.now }

// Executed returns the number of events fired so far.
func (e *Engine) Executed() uint64 { return e.executed }

// Pending returns the number of scheduled events that have neither fired
// nor been cancelled. Inside a handler, the firing event counts only once
// the handler has re-armed it.
func (e *Engine) Pending() int {
	n := len(e.heap.e)
	if f := e.firing; f != nil && f.state == stateFiring {
		n--
	}
	return n
}

// QueueOps returns the queue operations counted since the engine was
// created or last Reset.
func (e *Engine) QueueOps() QueueOps { return e.ops }

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
// on. Keys reserved before the reset are void.
func (e *Engine) Reset() {
	for i := range e.heap.e {
		ev := e.heap.e[i].ev
		e.heap.e[i] = heapEntry{}
		ev.state = stateCancelled
		e.put(ev)
	}
	e.heap.e = e.heap.e[:0]
	e.now, e.seq, e.executed = 0, 0, 0
	e.ops = QueueOps{}
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
		slack := max(1e-9, e.now*0x1p-40)
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
	seq := e.seq
	e.seq++
	return e.push(at, seq, h)
}

// push queues a fresh event at (at, seq).
func (e *Engine) push(at float64, seq uint64, h Handler) *Event {
	ev := e.get()
	ev.at = at
	ev.seq = seq
	ev.h = h
	ev.state = stateScheduled
	e.ops.Push++
	e.heap.push(ev)
	return ev
}

// live reports whether ev is in the queue: scheduled, or firing with its
// handler still running.
func (ev *Event) live() bool {
	return ev != nil && (ev.state == stateScheduled || ev.state == stateFiring)
}

// move re-arms the queued or firing ev at (at, seq) with one sift.
func (e *Engine) move(ev *Event, at float64, seq uint64, h Handler) {
	ev.at = at
	ev.seq = seq
	ev.h = h
	ev.state = stateScheduled
	e.ops.Rekey++
	e.heap.fix(int(ev.pos))
}

// Rekey re-arms ev to fire h at absolute time at and returns the handle
// to keep. A queued ev — or the firing ev, from inside its own handler —
// moves in place with one sift and takes the next sequence number, so
// the dispatch order is exactly that of ev.Cancel() (or the end of the
// fire) followed by ScheduleHandler(at, h). A nil, fired or cancelled ev
// schedules a fresh event instead; as with Cancel, a handle must not be
// used once it has gone stale and been recycled.
func (e *Engine) Rekey(ev *Event, at float64, h Handler) *Event {
	return e.Arm(ev, e.Reserve(at), h)
}

// Reserve validates at as ScheduleHandler does and reserves the position
// a schedule at this point would take: the time and the next sequence
// number. Arm later queues an event there; until then the position holds
// no event. Reserving and arming at once orders exactly as
// ScheduleHandler(at, h).
func (e *Engine) Reserve(at float64) Key {
	at = e.checkTime(at)
	e.seq++
	return Key{at: at, seq: e.seq}
}

// Arm queues h to fire at the reserved position k and returns the handle
// to keep. A queued ev — or the firing ev, from inside its own handler —
// moves there in place with one sift; when it already stands at k only
// its handler is replaced. A nil, fired or cancelled ev queues a fresh
// event. k must come from Reserve since the last Reset, must not lie
// before now, and must be armed by at most one event at a time: two events
// at one position would fire in an unspecified order.
func (e *Engine) Arm(ev *Event, k Key, h Handler) *Event {
	if k.seq == 0 {
		panic("sim: arming the zero Key")
	}
	if k.at < e.now {
		panic(fmt.Sprintf("sim: arming a key at %g before now %g", k.at, e.now))
	}
	seq := k.seq - 1
	if !ev.live() {
		return e.push(k.at, seq, h)
	}
	if ev.state == stateScheduled && ev.at == k.at && ev.seq == seq {
		ev.h = h
		return ev
	}
	e.move(ev, k.at, seq, h)
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

// fire dispatches the earliest event, which stays at its heap position
// while the handler runs. An event the handler re-armed (Rekey or Arm on
// its own handle) stays queued at its new position; otherwise it leaves
// the queue and is recycled. Any other state means the handler cancelled
// the re-armed event or reset the engine, which has recycled it already.
func (e *Engine) fire() {
	if e.firing != nil {
		panic("sim: Step or Run called from a firing handler")
	}
	ev := e.heap.e[0].ev
	ev.state = stateFiring
	e.firing = ev
	e.now = ev.at
	e.executed++
	ev.h.Fire()
	e.firing = nil
	if ev.state == stateFiring {
		ev.state = stateFired
		e.ops.Pop++
		e.heap.remove(int(ev.pos))
		e.put(ev)
	}
}

// Step fires the next pending event, if any, advancing the clock to its
// time. It reports whether an event was fired. Handlers must not call
// Step or Run.
func (e *Engine) Step() bool {
	if len(e.heap.e) == 0 {
		return false
	}
	e.fire()
	return true
}

// Run fires events in order until the queue is exhausted or the next event
// lies strictly beyond until; the clock then rests at until. It returns
// the number of events fired. Handlers must not call Step or Run.
func (e *Engine) Run(until float64) uint64 {
	fired := uint64(0)
	for len(e.heap.e) > 0 && e.heap.e[0].ev.at <= until {
		e.fire()
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

// fix restores heap order after the key of the entry at index i changed
// to its event's (at, seq).
func (h *heap4) fix(i int) {
	ev := h.e[i].ev
	h.e[i].at = math.Float64bits(ev.at)
	h.e[i].seq = ev.seq
	if !h.down(i) {
		h.up(i)
	}
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
