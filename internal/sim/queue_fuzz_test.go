package sim

import (
	"math"
	"testing"

	"repro/internal/rng"
)

// refQueue is the sorted-slice reference for the event queue: the same
// (time, sequence) order, FIFO within an instant, kept as a plain slice
// scanned for its minimum. It models handles the way the engine's pool
// recycles them: owner maps each Event pointer to the reference entry it
// currently stands for, so operations through a stale handle act on
// whatever that pointer was last handed out for — a no-op when that
// entry is no longer pending. A reserved key is a sequence number taken
// now and queued later.
type refQueue struct {
	now     float64
	seq     uint64
	pending []*refEntry
	owner   map[*Event]*refEntry
}

// refEntry is one scheduled action in the reference.
type refEntry struct {
	id     int
	at     float64
	seq    uint64
	queued bool
}

// reserve takes the next sequence number, as Engine.Reserve does.
func (r *refQueue) reserve() uint64 {
	r.seq++
	return r.seq - 1
}

func (r *refQueue) queue(id int, at float64, seq uint64) *refEntry {
	en := &refEntry{id: id, at: at, seq: seq, queued: true}
	r.pending = append(r.pending, en)
	return en
}

func (r *refQueue) schedule(id int, at float64) *refEntry {
	return r.queue(id, at, r.reserve())
}

func (r *refQueue) remove(en *refEntry) {
	for k, p := range r.pending {
		if p == en {
			r.pending = append(r.pending[:k], r.pending[k+1:]...)
			break
		}
	}
	en.queued = false
}

// unqueue removes whatever ev stands for, if it is still pending, and
// reports whether it was.
func (r *refQueue) unqueue(ev *Event) bool {
	en := r.owner[ev]
	if en == nil || !en.queued {
		return false
	}
	r.remove(en)
	return true
}

// popMin removes and returns the earliest entry, nil when none is
// pending.
func (r *refQueue) popMin() *refEntry {
	if len(r.pending) == 0 {
		return nil
	}
	m := 0
	for k, p := range r.pending {
		if p.at < r.pending[m].at || (p.at == r.pending[m].at && p.seq < r.pending[m].seq) {
			m = k
		}
	}
	en := r.pending[m]
	r.remove(en)
	return en
}

// reservedKey is a key from Engine.Reserve and its reference sequence
// number; each is armed at most once.
type reservedKey struct {
	key Key
	seq uint64
}

// queueHarness drives one Engine and the reference in lockstep: every
// engine dispatch pops the reference's minimum and must name the same
// entry at the same time.
type queueHarness struct {
	t        *testing.T
	eng      *Engine
	ref      refQueue
	handles  []*Event // every handle ever returned, stale ones included
	reserved []reservedKey
	nextID   int
}

// Self re-arm modes of a firing fuzzAction (see FuzzEventQueue).
const (
	rearmRekey   = iota // Rekey its own handle
	rearmReserve        // Reserve a key and Arm its own handle there
	rearmPooled         // Arm its own handle at an earlier reserved key
	rearmCancel         // Cancel its own handle (a no-op), maybe re-armed first
)

// fuzzAction is the engine-side action of one reference entry. With
// rearm >= 0 it re-arms its own (firing) handle rearm seconds later in
// the given mode.
type fuzzAction struct {
	h      *queueHarness
	id     int
	rearm  float64
	mode   int
	arg    int
	handle *Event
}

func (a *fuzzAction) Fire() {
	h := a.h
	en := h.ref.popMin()
	if en == nil || en.id != a.id || en.at != h.eng.Now() {
		h.t.Fatalf("engine fired entry %d at %v, reference pops %+v", a.id, h.eng.Now(), en)
	}
	h.ref.now = en.at
	if a.rearm < 0 {
		return
	}
	// The firing entry has left the reference, so the cancel half of a
	// re-arm is a no-op there, while the engine must move the firing
	// handle in place and hand the same one back.
	self := a.handle
	switch a.mode {
	case rearmRekey:
		h.rekey(self, h.eng.Now()+a.rearm, true)
	case rearmReserve:
		h.reserve(h.eng.Now() + a.rearm)
		h.arm(self, len(h.reserved)-1, true)
	case rearmPooled:
		if k := h.usableKey(a.arg); k >= 0 {
			h.arm(self, k, true)
		}
	case rearmCancel:
		pending := h.eng.Pending()
		if a.arg&1 != 0 {
			h.rekey(self, h.eng.Now()+a.rearm, true)
			pending++
		}
		h.cancel(self)
		if a.arg&1 == 0 && (self.Cancelled() || h.eng.Pending() != pending) {
			h.t.Fatalf("Cancel of firing entry %d was not a no-op", a.id)
		}
	}
}

// track records the handle the engine returned for the new reference
// entry en.
func (h *queueHarness) track(ev *Event, en *refEntry, act *fuzzAction) {
	act.handle = ev
	h.ref.owner[ev] = en
	h.handles = append(h.handles, ev)
	if ev.Time() != en.at || math.Signbit(ev.Time()) {
		h.t.Fatalf("entry %d queued at %v, reference %v", en.id, ev.Time(), en.at)
	}
}

func (h *queueHarness) newAction(rearm float64, mode, arg int) *fuzzAction {
	act := &fuzzAction{h: h, id: h.nextID, rearm: rearm, mode: mode, arg: arg}
	h.nextID++
	return act
}

func (h *queueHarness) schedule(at, rearm float64, mode, arg int) {
	act := h.newAction(rearm, mode, arg)
	ev := h.eng.ScheduleHandler(at, act)
	h.track(ev, h.ref.schedule(act.id, normTime(at)), act)
}

func (h *queueHarness) cancel(ev *Event) {
	h.ref.unqueue(ev)
	ev.Cancel()
}

// rekey re-arms ev: in the reference, a cancel of whatever ev stands for
// followed by a new schedule. A queued handle, and the firing one
// (firing), must move in place.
func (h *queueHarness) rekey(ev *Event, at float64, firing bool) {
	inPlace := h.ref.unqueue(ev) || firing
	act := h.newAction(-1, 0, 0)
	got := h.eng.Rekey(ev, at, act)
	if inPlace && got != ev {
		h.t.Fatalf("Rekey of a queued or firing handle returned a different handle")
	}
	h.track(got, h.ref.schedule(act.id, normTime(at)), act)
}

// reserve adds a key reserved at at to the pool.
func (h *queueHarness) reserve(at float64) {
	k := h.eng.Reserve(at)
	if k.Time() != normTime(at) || math.Signbit(k.Time()) || k.IsZero() {
		h.t.Fatalf("Reserve(%v) = %+v", at, k)
	}
	h.reserved = append(h.reserved, reservedKey{key: k, seq: h.ref.reserve()})
}

// usableKey returns the index of a pooled key that may still be armed —
// the first one at or after pick (mod the pool) not lying before now —
// or -1.
func (h *queueHarness) usableKey(pick int) int {
	n := len(h.reserved)
	for d := 0; d < n; d++ {
		if k := (pick + d) % n; h.reserved[k].key.Time() >= h.eng.Now() {
			return k
		}
	}
	return -1
}

// arm queues ev at pooled key k, which leaves the pool: in the
// reference, a cancel of whatever ev stands for followed by an entry at
// the key's reserved position.
func (h *queueHarness) arm(ev *Event, k int, firing bool) {
	rk := h.reserved[k]
	h.reserved = append(h.reserved[:k], h.reserved[k+1:]...)
	inPlace := h.ref.unqueue(ev) || firing
	act := h.newAction(-1, 0, 0)
	got := h.eng.Arm(ev, rk.key, act)
	if inPlace && got != ev {
		h.t.Fatalf("Arm of a queued or firing handle returned a different handle")
	}
	h.track(got, h.ref.queue(act.id, rk.key.Time(), rk.seq), act)
}

// rearmInPlace arms the queued ev at the position it already stands at,
// Event.Key, with a new action: the order is unchanged, only the handler
// is replaced. A handle that is not queued is left alone.
func (h *queueHarness) rearmInPlace(ev *Event) {
	en := h.ref.owner[ev]
	if en == nil || !en.queued {
		return
	}
	k := ev.Key()
	if k.Time() != en.at {
		h.t.Fatalf("entry %d stands at %v, reference %v", en.id, k.Time(), en.at)
	}
	h.ref.remove(en)
	act := h.newAction(-1, 0, 0)
	if got := h.eng.Arm(ev, k, act); got != ev {
		h.t.Fatalf("Arm of a handle at its own key returned a different handle")
	}
	h.track(ev, h.ref.queue(act.id, en.at, en.seq), act)
}

// run is Engine.Run; afterwards nothing due by until may be left in the
// reference.
func (h *queueHarness) run(until float64) {
	h.eng.Run(until)
	for _, en := range h.ref.pending {
		if en.at <= until {
			h.t.Fatalf("Run(%v) left entry %d due at %v", until, en.id, en.at)
		}
	}
	if until > h.ref.now {
		h.ref.now = until
	}
}

func (h *queueHarness) step() {
	if !h.eng.Step() && len(h.ref.pending) > 0 {
		h.t.Fatalf("Step fired nothing with %d entries pending", len(h.ref.pending))
	}
}

func (h *queueHarness) reset() {
	h.eng.Reset()
	for _, en := range h.ref.pending {
		en.queued = false
	}
	h.ref.pending = h.ref.pending[:0]
	h.ref.now, h.ref.seq = 0, 0
	h.reserved = h.reserved[:0] // void after a reset
}

// check compares the pending count and the clock, and requires every
// event the pool ever allocated to be queued or back on the free list:
// a fired event that was not re-armed must have been recycled.
func (h *queueHarness) check() {
	if h.eng.Pending() != len(h.ref.pending) {
		h.t.Fatalf("Pending = %d, reference %d", h.eng.Pending(), len(h.ref.pending))
	}
	if h.eng.Now() != h.ref.now {
		h.t.Fatalf("Now = %v, reference %v", h.eng.Now(), h.ref.now)
	}
	if alloc, free := h.eng.PoolStats(); alloc != free+h.eng.Pending() {
		h.t.Fatalf("%d events allocated, %d free and %d pending: one leaked", alloc, free, h.eng.Pending())
	}
}

// normTime is the time the engine queues for at: +0 for -0.
func normTime(at float64) float64 {
	if at == 0 {
		return 0
	}
	return at
}

// FuzzEventQueue drives the engine with schedule, Cancel, Rekey, Reserve,
// Arm, Run, Step and Reset and compares every dispatch with refQueue.
// Each op is one byte followed by its argument bytes. Times are now plus
// a delay from a small set of values (the low four bits of a byte) — zero
// included, and -0 while the clock reads zero — so equal times are the
// rule; Cancel, Rekey and Arm pick any handle ever returned, stale ones
// included. Arm takes a key from a pool of reserved ones, each armed at
// most once, or re-arms a queued handle at its own Event.Key. An action
// scheduled by op 1 re-arms its own handle with Rekey while firing; one
// scheduled by op 10 re-arms it in the mode the high bits of its delay
// byte pick: Rekey, Reserve and Arm, Arm at a pooled key (which may order
// before the firing one), or Cancel — a no-op, after an optional Rekey
// that it then undoes. The ops and bytes of the first eight ops (0-7) mean
// what they meant before Reserve and Arm were modelled, so a corpus file
// recorded then decodes to the same operations once its op bytes are
// reduced mod 8.
func FuzzEventQueue(f *testing.F) {
	f.Add([]byte{0, 3, 0, 3, 0, 0, 1, 2, 0, 5, 2, 1, 4, 3, 6, 0})
	f.Add([]byte{0, 1, 0, 1, 0, 1, 3, 0, 3, 1, 5, 0, 0, 0, 2, 9, 0, 2, 2, 0, 4})
	f.Add([]byte{0, 7, 0, 6, 0, 5, 0, 4, 2, 0, 1, 2, 1, 2, 2, 2, 1, 0, 4, 4, 7, 0, 2, 3, 0})
	f.Fuzz(runQueueOps)
}

// TestSchedulerFuzzCrossValidation runs the FuzzEventQueue harness on
// 300 deterministic pseudo-random op sequences, each longer than the
// committed corpus entries, so every plain test run cross-checks the
// event queue against the sorted-slice reference beyond the corpus.
func TestSchedulerFuzzCrossValidation(t *testing.T) {
	for seed := uint64(1); seed <= 300; seed++ {
		r := rng.New(seed)
		data := make([]byte, 200+r.Intn(400))
		for k := range data {
			data[k] = byte(r.Intn(256))
		}
		func() {
			defer func() {
				if t.Failed() {
					t.Logf("failing op sequence (seed %d): %v", seed, data)
				}
			}()
			runQueueOps(t, data)
		}()
	}
}

// runQueueOps decodes data into queue operations (see FuzzEventQueue),
// applies them to a fresh engine and the reference in lockstep, and
// finally drains both.
func runQueueOps(t *testing.T, data []byte) {
	i := 0
	next := func() int {
		if i >= len(data) {
			return 0
		}
		b := data[i]
		i++
		return int(b)
	}
	h := &queueHarness{t: t, eng: New(), ref: refQueue{owner: map[*Event]*refEntry{}}}
	// delay maps a byte onto a delay: -0 (zero while the clock is at
	// +0), 0, small halves with many ties, and the odd large jump.
	delay := func(b int) float64 {
		switch b % 16 {
		case 0:
			return math.Copysign(0, -1)
		case 1:
			return 0
		case 15:
			return 1e6 + float64(b)
		default:
			return float64(b%16) / 2
		}
	}
	at := func(b int) float64 {
		d := delay(b)
		switch {
		case d != 0:
			return h.eng.Now() + d
		case h.eng.Now() == 0:
			return d // keeps the sign of a drawn -0
		default:
			return h.eng.Now()
		}
	}
	for i < len(data) && len(h.handles) < 4096 {
		switch op := next() % 11; op {
		case 0, 1, 10:
			// Ops 1 and 10 schedule an action that re-arms its own
			// handle while firing: op 1 always by Rekey, op 10 in the
			// mode the high bits of its delay byte pick.
			rearm, mode, arg := -1.0, rearmRekey, 0
			when := at(next())
			if op != 0 {
				b := next()
				rearm = math.Abs(delay(b))
				if op == 10 {
					mode, arg = (b>>4)&3, b>>6
				}
			}
			h.schedule(when, rearm, mode, arg)
		case 2:
			if len(h.handles) > 0 {
				h.cancel(h.handles[next()%len(h.handles)])
			}
		case 3:
			if len(h.handles) > 0 {
				ev := h.handles[next()%len(h.handles)]
				h.rekey(ev, at(next()), false)
			}
		case 4:
			h.run(h.eng.Now() + float64(next()%8))
		case 5:
			h.step()
		case 6:
			h.reset()
		case 7:
			h.run(h.eng.Now() + delay(next()))
		case 8:
			h.reserve(at(next()))
		case 9:
			if len(h.handles) > 0 {
				ev := h.handles[next()%len(h.handles)]
				if pick := next(); pick%4 == 3 {
					h.rearmInPlace(ev)
				} else if k := h.usableKey(pick); k >= 0 {
					h.arm(ev, k, false)
				}
			}
		}
		h.check()
	}
	h.run(math.MaxFloat64)
	h.check()
	if h.eng.Pending() != 0 {
		t.Fatalf("%d events left after the final run", h.eng.Pending())
	}
}

// TestNegativeZeroTime pins the normalisation: -0 has the sign bit set,
// so its bit pattern would order after every other time. Scheduled and
// re-keyed at -0, events must fire at +0 first, in FIFO order.
func TestNegativeZeroTime(t *testing.T) {
	e := New()
	negZero := math.Copysign(0, -1)
	var order []int
	e.Schedule(1, func() { order = append(order, 3) })
	a := e.Schedule(negZero, func() { order = append(order, 1) })
	e.Schedule(0, func() { order = append(order, 2) })
	late := e.Schedule(5, func() { order = append(order, 4) })
	if math.Signbit(a.Time()) {
		t.Fatal("event scheduled at -0 kept the sign bit")
	}
	late = e.Rekey(late, negZero, Action(func() { order = append(order, 2) }))
	if math.Signbit(late.Time()) {
		t.Fatal("event re-keyed to -0 kept the sign bit")
	}
	e.RunAll()
	want := []int{1, 2, 2, 3}
	if len(order) != len(want) {
		t.Fatalf("fired %v, want %v", order, want)
	}
	for k := range want {
		if order[k] != want[k] {
			t.Fatalf("fired %v, want %v", order, want)
		}
	}
}

// TestRekeyStaleHandleSchedulesFresh: Rekey through a handle that has
// fired or been cancelled schedules a fresh event, exactly as Cancel (a
// no-op there) followed by a new schedule would; Rekey of a queued handle
// moves it in place behind every event already scheduled for the instant.
func TestRekeyStaleHandleSchedulesFresh(t *testing.T) {
	e := New()
	var order []string
	fired := e.Schedule(1, func() { order = append(order, "fired") })
	cancelled := e.Schedule(2, func() { t.Error("cancelled event fired") })
	cancelled.Cancel()
	e.Run(1)
	// Both handles are stale but not yet recycled by another schedule.
	e.Rekey(fired, 4, Action(func() { order = append(order, "after-fire") }))
	e.Rekey(cancelled, 4, Action(func() { order = append(order, "after-cancel") }))
	if e.Pending() != 2 {
		t.Fatalf("Pending = %d after re-keying two stale handles, want 2", e.Pending())
	}

	e.Schedule(3, func() { order = append(order, "first") })
	queued := e.Schedule(2, func() { t.Error("re-keyed event fired its old action") })
	e.Schedule(3, func() { order = append(order, "second") })
	if got := e.Rekey(queued, 3, Action(func() { order = append(order, "moved") })); got != queued {
		t.Fatal("Rekey of a queued handle did not move it in place")
	}
	if e.Pending() != 5 {
		t.Fatalf("Pending = %d, want 5", e.Pending())
	}
	e.RunAll()
	want := []string{"fired", "first", "second", "moved", "after-fire", "after-cancel"}
	if len(order) != len(want) {
		t.Fatalf("fired %v, want %v", order, want)
	}
	for k := range want {
		if order[k] != want[k] {
			t.Fatalf("fired %v, want %v", order, want)
		}
	}
}
