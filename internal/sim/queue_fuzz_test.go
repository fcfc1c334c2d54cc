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
// entry is no longer pending.
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

func (r *refQueue) schedule(id int, at float64) *refEntry {
	en := &refEntry{id: id, at: at, seq: r.seq, queued: true}
	r.seq++
	r.pending = append(r.pending, en)
	return en
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

// queueHarness drives one Engine and the reference in lockstep: every
// engine dispatch pops the reference's minimum and must name the same
// entry at the same time.
type queueHarness struct {
	t       *testing.T
	eng     *Engine
	ref     refQueue
	handles []*Event // every handle ever returned, stale ones included
	nextID  int
}

// fuzzAction is the engine-side action of one reference entry. rearm >= 0
// makes it re-arm its own (firing) handle rearm seconds later.
type fuzzAction struct {
	h      *queueHarness
	id     int
	rearm  float64
	handle *Event
}

func (a *fuzzAction) Fire() {
	h := a.h
	en := h.ref.popMin()
	if en == nil || en.id != a.id || en.at != h.eng.Now() {
		h.t.Fatalf("engine fired entry %d at %v, reference pops %+v", a.id, h.eng.Now(), en)
	}
	h.ref.now = en.at
	if a.rearm >= 0 {
		// Re-arming the firing handle must schedule a fresh event; in
		// the reference the popped entry is no longer queued, so the
		// cancel half of the re-key is a no-op there too.
		h.rekey(a.handle, h.eng.Now()+a.rearm, -1)
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

func (h *queueHarness) newAction(rearm float64) *fuzzAction {
	act := &fuzzAction{h: h, id: h.nextID, rearm: rearm}
	h.nextID++
	return act
}

func (h *queueHarness) schedule(at, rearm float64) {
	act := h.newAction(rearm)
	ev := h.eng.ScheduleHandler(at, act)
	h.track(ev, h.ref.schedule(act.id, normTime(at)), act)
}

func (h *queueHarness) cancel(ev *Event) {
	if en := h.ref.owner[ev]; en != nil && en.queued {
		h.ref.remove(en)
	}
	ev.Cancel()
}

// rekey re-arms ev: in the reference, a cancel of whatever ev stands for
// followed by a new schedule.
func (h *queueHarness) rekey(ev *Event, at, rearm float64) {
	en := h.ref.owner[ev]
	inPlace := en != nil && en.queued
	if inPlace {
		h.ref.remove(en)
	}
	act := h.newAction(rearm)
	got := h.eng.Rekey(ev, at, act)
	if inPlace && got != ev {
		h.t.Fatalf("Rekey of a queued handle returned a different handle")
	}
	h.track(got, h.ref.schedule(act.id, normTime(at)), act)
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
}

func (h *queueHarness) check() {
	if h.eng.Pending() != len(h.ref.pending) {
		h.t.Fatalf("Pending = %d, reference %d", h.eng.Pending(), len(h.ref.pending))
	}
	if h.eng.Now() != h.ref.now {
		h.t.Fatalf("Now = %v, reference %v", h.eng.Now(), h.ref.now)
	}
}

// normTime is the time the engine queues for at: +0 for -0.
func normTime(at float64) float64 {
	if at == 0 {
		return 0
	}
	return at
}

// FuzzEventQueue drives the engine with schedule, Cancel, Rekey, Run, Step
// and Reset and compares every dispatch with refQueue. Each op is one
// byte followed by its argument bytes. Times are now plus a delay from a
// small set of values — zero included, and -0 while the clock reads zero
// — so equal times are the rule; Cancel and Rekey pick any handle ever
// returned, stale ones included.
func FuzzEventQueue(f *testing.F) {
	f.Add([]byte{0, 3, 0, 3, 0, 0, 1, 2, 0, 5, 2, 1, 4, 3, 6, 0})
	f.Add([]byte{0, 1, 0, 1, 0, 1, 3, 0, 3, 1, 5, 0, 0, 0, 2, 9, 0, 2, 2, 0, 4})
	f.Add([]byte{0, 7, 0, 6, 0, 5, 0, 4, 2, 0, 1, 2, 1, 2, 2, 2, 1, 0, 4, 20, 7, 0, 2, 3, 0})
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
		switch op := next() % 8; op {
		case 0, 1:
			// Op 1 schedules an action that re-arms its own handle
			// while firing.
			rearm := -1.0
			when := at(next())
			if op == 1 {
				rearm = math.Abs(delay(next()))
			}
			h.schedule(when, rearm)
		case 2:
			if len(h.handles) > 0 {
				h.cancel(h.handles[next()%len(h.handles)])
			}
		case 3:
			if len(h.handles) > 0 {
				ev := h.handles[next()%len(h.handles)]
				h.rekey(ev, at(next()), -1)
			}
		case 4:
			h.run(h.eng.Now() + float64(next()%8))
		case 5:
			h.step()
		case 6:
			h.reset()
		default:
			h.run(h.eng.Now() + delay(next()))
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
