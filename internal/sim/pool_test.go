package sim

import (
	"sort"
	"testing"
	"testing/quick"

	"repro/internal/rng"
)

// TestPoolRecyclesFiredEvents verifies the free list: an event struct is
// reused after it fires instead of being reallocated.
func TestPoolRecyclesFiredEvents(t *testing.T) {
	e := New()
	ev1 := e.Schedule(1, func() {})
	e.RunAll()
	ev2 := e.Schedule(2, func() {})
	if ev1 != ev2 {
		t.Fatal("fired event was not recycled by the next Schedule")
	}
	alloc, free := e.PoolStats()
	if alloc != eventBlockSize {
		t.Fatalf("allocated %d events, want one block of %d", alloc, eventBlockSize)
	}
	if free != eventBlockSize-1 {
		t.Fatalf("free list holds %d, want %d", free, eventBlockSize-1)
	}
}

// TestReuseAfterCancel verifies that a cancelled event returns to the pool
// immediately and behaves as a fresh event on reuse.
func TestReuseAfterCancel(t *testing.T) {
	e := New()
	ev := e.Schedule(5, func() { t.Error("cancelled event fired") })
	ev.Cancel()
	if !ev.Cancelled() {
		t.Fatal("Cancelled() false after Cancel")
	}
	if e.Pending() != 0 {
		t.Fatalf("Pending = %d after cancel, want 0 (no tombstones)", e.Pending())
	}
	fired := false
	ev2 := e.Schedule(3, func() { fired = true })
	if ev2 != ev {
		t.Fatal("cancelled event was not recycled by the next Schedule")
	}
	if ev2.Cancelled() {
		t.Fatal("recycled event still reports Cancelled")
	}
	e.RunAll()
	if !fired {
		t.Fatal("recycled event did not fire")
	}
	if e.Executed() != 1 {
		t.Fatalf("Executed = %d, want 1", e.Executed())
	}
}

// TestCancelWhileFiring verifies that cancelling the currently-firing
// event from inside its own handler is a harmless no-op, and that the
// event is still recycled afterwards.
func TestCancelWhileFiring(t *testing.T) {
	e := New()
	var self *Event
	ran := false
	self = e.Schedule(1, func() {
		ran = true
		self.Cancel() // firing: must be a no-op
		if self.Cancelled() {
			t.Error("Cancel during Fire marked the event cancelled")
		}
	})
	e.RunAll()
	if !ran {
		t.Fatal("event did not fire")
	}
	if e.Executed() != 1 {
		t.Fatalf("Executed = %d, want 1", e.Executed())
	}
	_, free := e.PoolStats()
	if free != eventBlockSize {
		t.Fatalf("free list holds %d after fire, want %d", free, eventBlockSize)
	}
}

// TestCancelInsideHandlerRemovesFromHeap verifies O(log n) removal keeps
// the heap consistent when a handler cancels other pending events.
func TestCancelInsideHandlerRemovesFromHeap(t *testing.T) {
	e := New()
	var victims []*Event
	var fired []float64
	for _, at := range []float64{10, 20, 30, 40} {
		at := at
		victims = append(victims, e.Schedule(at, func() { fired = append(fired, at) }))
	}
	e.Schedule(5, func() {
		victims[1].Cancel()
		victims[3].Cancel()
	})
	e.RunAll()
	want := []float64{10, 30}
	if len(fired) != len(want) || fired[0] != want[0] || fired[1] != want[1] {
		t.Fatalf("fired %v, want %v", fired, want)
	}
}

// refEvent is the reference model of the old lazy-cancellation heap: a
// plain list stably sorted by (time, seq) with cancelled entries skipped.
type refEvent struct {
	at        float64
	seq       int
	cancelled bool
}

// TestFIFOFuzzAgainstReference drives random interleavings of schedules
// and cancels through both the pooled indexed heap and a naive reference
// with the old heap's semantics, and requires identical fire sequences —
// FIFO within an instant included.
func TestFIFOFuzzAgainstReference(t *testing.T) {
	f := func(seed uint64) bool {
		r := rng.New(seed)
		e := New()
		var gotOrder []int
		var ref []refEvent
		var handles []*Event
		var dead []bool // fired or cancelled: handle is spent
		n := 150 + r.Intn(100)
		for i := 0; i < n; i++ {
			switch {
			case len(handles) > 0 && r.Intn(4) == 0:
				// Cancel a random still-live event (handles are
				// single-use: a spent one may have been recycled).
				k := r.Intn(len(handles))
				if !dead[k] {
					handles[k].Cancel()
					dead[k] = true
					ref[k].cancelled = true
				}
			default:
				// Coarse offsets force plenty of same-instant ties.
				at := e.Now() + float64(r.Intn(20))
				seq := len(handles)
				ev := e.Schedule(at, func() {
					gotOrder = append(gotOrder, seq)
					dead[seq] = true
				})
				handles = append(handles, ev)
				ref = append(ref, refEvent{at: at, seq: seq})
				dead = append(dead, false)
			}
			// Occasionally advance the clock partway.
			if r.Intn(10) == 0 {
				e.Run(e.Now() + float64(r.Intn(10)))
			}
		}
		e.RunAll()

		live := make([]refEvent, 0, len(ref))
		for _, rv := range ref {
			if !rv.cancelled {
				live = append(live, rv)
			}
		}
		sort.SliceStable(live, func(i, j int) bool {
			if live[i].at != live[j].at {
				return live[i].at < live[j].at
			}
			return live[i].seq < live[j].seq
		})
		if len(gotOrder) != len(live) {
			return false
		}
		for i, rv := range live {
			if gotOrder[i] != rv.seq {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestHandlerScheduling exercises the allocation-free Handler path.
type countingHandler struct {
	e     *Engine
	count int
	limit int
}

func (h *countingHandler) Fire() {
	h.count++
	if h.count < h.limit {
		h.e.ScheduleHandler(h.e.Now()+1, h)
	}
}

func TestHandlerScheduling(t *testing.T) {
	e := New()
	h := &countingHandler{e: e, limit: 50}
	e.ScheduleHandler(0, h)
	e.RunAll()
	if h.count != 50 {
		t.Fatalf("handler fired %d times, want 50", h.count)
	}
	if e.Now() != 49 {
		t.Fatalf("clock = %v, want 49", e.Now())
	}
	alloc, _ := e.PoolStats()
	if alloc != eventBlockSize {
		t.Fatalf("allocated %d events for a self-rescheduling handler, want one block", alloc)
	}
}

// TestSteadyStateZeroAllocs verifies the schedule→fire hot path allocates
// nothing once the pool is warm.
func TestSteadyStateZeroAllocs(t *testing.T) {
	e := New()
	h := &countingHandler{e: e, limit: 1 << 30}
	e.ScheduleHandler(0, h)
	e.Step() // warm the pool
	allocs := testing.AllocsPerRun(1000, func() {
		e.Step()
	})
	if allocs != 0 {
		t.Fatalf("steady-state Step allocates %v per op, want 0", allocs)
	}
}

// noopHandler is a static Handler so scheduling it never allocates.
type noopHandler struct{}

func (noopHandler) Fire() {}

// TestCalendarResetKeepsCapacity: after a warm replicate, Reset retains
// the event pool and the heap array, so replaying the same schedule
// allocates nothing. The name is kept from the calendar queue it once
// covered; the heap must meet the same bar.
func TestCalendarResetKeepsCapacity(t *testing.T) {
	e := New()
	load := func() {
		for i := 0; i < 500; i++ {
			e.ScheduleHandler(float64((i*7919)%997)*50, noopHandler{})
		}
		e.RunAll()
	}
	load()
	e.Reset()
	allocs := testing.AllocsPerRun(5, func() {
		load()
		e.Reset()
	})
	if allocs != 0 {
		t.Fatalf("warm replicate allocates %v per run, want 0", allocs)
	}
}
