package sim

import (
	"math"
	"sort"
	"testing"
	"testing/quick"

	"repro/internal/rng"
)

func TestZeroValueEngine(t *testing.T) {
	var e Engine
	if e.Now() != 0 {
		t.Fatalf("zero engine Now = %v", e.Now())
	}
	if e.Step() {
		t.Fatal("Step on empty engine returned true")
	}
}

func TestEventsFireInTimeOrder(t *testing.T) {
	e := New()
	var fired []float64
	for _, at := range []float64{5, 1, 3, 2, 4} {
		at := at
		e.Schedule(at, func() { fired = append(fired, at) })
	}
	e.RunAll()
	if !sort.Float64sAreSorted(fired) {
		t.Fatalf("events fired out of order: %v", fired)
	}
	if len(fired) != 5 {
		t.Fatalf("fired %d events, want 5", len(fired))
	}
}

func TestFIFOAtSameInstant(t *testing.T) {
	e := New()
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		e.Schedule(7, func() { order = append(order, i) })
	}
	e.RunAll()
	for i, v := range order {
		if v != i {
			t.Fatalf("same-instant events not FIFO: %v", order)
		}
	}
}

func TestClockAdvances(t *testing.T) {
	e := New()
	var at float64
	e.Schedule(42, func() { at = e.Now() })
	e.RunAll()
	if at != 42 {
		t.Fatalf("clock at event time = %v, want 42", at)
	}
	if e.Now() != 42 {
		t.Fatalf("final clock = %v, want 42", e.Now())
	}
}

func TestAfter(t *testing.T) {
	e := New()
	var times []float64
	e.Schedule(10, func() {
		e.After(5, func() { times = append(times, e.Now()) })
	})
	e.RunAll()
	if len(times) != 1 || times[0] != 15 {
		t.Fatalf("After(5) from t=10 fired at %v, want [15]", times)
	}
}

func TestCancel(t *testing.T) {
	e := New()
	fired := false
	ev := e.Schedule(1, func() { fired = true })
	ev.Cancel()
	if !ev.Cancelled() {
		t.Fatal("Cancelled() false after Cancel")
	}
	e.RunAll()
	if fired {
		t.Fatal("cancelled event fired")
	}
}

func TestCancelInsideEarlierEvent(t *testing.T) {
	e := New()
	fired := false
	later := e.Schedule(10, func() { fired = true })
	e.Schedule(5, func() { later.Cancel() })
	e.RunAll()
	if fired {
		t.Fatal("event cancelled at t=5 still fired at t=10")
	}
}

func TestRunUntilBoundary(t *testing.T) {
	e := New()
	var fired []float64
	for _, at := range []float64{1, 2, 3, 4, 5} {
		at := at
		e.Schedule(at, func() { fired = append(fired, at) })
	}
	n := e.Run(3)
	if n != 3 {
		t.Fatalf("Run(3) fired %d events, want 3 (inclusive boundary)", n)
	}
	if e.Now() != 3 {
		t.Fatalf("clock after Run(3) = %v, want 3", e.Now())
	}
	e.Run(10)
	if len(fired) != 5 {
		t.Fatalf("total fired %d, want 5", len(fired))
	}
	if e.Now() != 10 {
		t.Fatalf("clock after Run(10) = %v, want 10", e.Now())
	}
}

func TestScheduleInPastPanics(t *testing.T) {
	e := New()
	e.Schedule(100, func() {})
	e.RunAll()
	defer func() {
		if recover() == nil {
			t.Fatal("scheduling in the past did not panic")
		}
	}()
	e.Schedule(50, func() {})
}

func TestScheduleNaNPanics(t *testing.T) {
	e := New()
	defer func() {
		if recover() == nil {
			t.Fatal("scheduling at NaN did not panic")
		}
	}()
	e.Schedule(math.NaN(), func() {})
}

func TestTinyNegativeSlackClamped(t *testing.T) {
	e := New()
	e.Schedule(1e6, func() {})
	e.RunAll()
	// One ulp-ish below now must be tolerated (interval arithmetic round-off).
	ev := e.Schedule(1e6-1e-7, func() {})
	if ev.Time() != e.Now() {
		t.Fatalf("slack schedule time = %v, want clamp to %v", ev.Time(), e.Now())
	}
}

func TestPendingCount(t *testing.T) {
	e := New()
	a := e.Schedule(1, func() {})
	e.Schedule(2, func() {})
	if e.Pending() != 2 {
		t.Fatalf("Pending = %d, want 2", e.Pending())
	}
	a.Cancel()
	e.RunAll()
	if e.Pending() != 0 {
		t.Fatalf("Pending after RunAll = %d, want 0", e.Pending())
	}
	if e.Executed() != 1 {
		t.Fatalf("Executed = %d, want 1 (one was cancelled)", e.Executed())
	}
}

func TestSelfRescheduling(t *testing.T) {
	e := New()
	count := 0
	var tick Action
	tick = func() {
		count++
		if count < 100 {
			e.After(1, tick)
		}
	}
	e.Schedule(0, tick)
	e.RunAll()
	if count != 100 {
		t.Fatalf("ticked %d times, want 100", count)
	}
	if e.Now() != 99 {
		t.Fatalf("clock = %v, want 99", e.Now())
	}
}

// Property: for any batch of events at arbitrary non-negative times, firing
// order is a stable sort by time.
func TestOrderingProperty(t *testing.T) {
	f := func(raw []uint32) bool {
		e := New()
		type stamped struct {
			at  float64
			idx int
		}
		var fired []stamped
		for i, r := range raw {
			at := float64(r % 1000)
			i := i
			e.Schedule(at, func() { fired = append(fired, stamped{at, i}) })
		}
		e.RunAll()
		if len(fired) != len(raw) {
			return false
		}
		for k := 1; k < len(fired); k++ {
			if fired[k].at < fired[k-1].at {
				return false
			}
			if fired[k].at == fired[k-1].at && fired[k].idx < fired[k-1].idx {
				return false // FIFO violated
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// Property: random interleaving of schedules and cancels never fires a
// cancelled event and fires every non-cancelled one exactly once.
func TestCancellationProperty(t *testing.T) {
	f := func(seed uint64) bool {
		r := rng.New(seed)
		e := New()
		fired := map[int]int{}
		events := make([]*Event, 0, 200)
		for i := 0; i < 200; i++ {
			i := i
			ev := e.Schedule(float64(r.Intn(50)), func() { fired[i]++ })
			events = append(events, ev)
		}
		cancelled := map[int]bool{}
		for i := 0; i < 60; i++ {
			k := r.Intn(len(events))
			events[k].Cancel()
			cancelled[k] = true
		}
		e.RunAll()
		for i := 0; i < 200; i++ {
			if cancelled[i] && fired[i] != 0 {
				return false
			}
			if !cancelled[i] && fired[i] != 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func BenchmarkScheduleAndFire(b *testing.B) {
	e := New()
	for i := 0; i < b.N; i++ {
		e.After(float64(i%64), func() {})
		e.Step()
	}
}

// TestCalendarFarFuture: a cluster of near events followed by events
// many orders of magnitude later must all fire, in order. The name is
// kept from the calendar queue this once covered (its far-future
// fallback scan); on the heap it pins that keys ordered by the IEEE-754
// bit pattern of the time stay ordered across exponents.
func TestCalendarFarFuture(t *testing.T) {
	e := New()
	var fired []float64
	add := func(at float64) { e.Schedule(at, func() { fired = append(fired, at) }) }
	far := []float64{1e7, 1e7 + 1, 1e300, math.MaxFloat64}
	for k := len(far) - 1; k >= 0; k-- {
		add(far[k])
	}
	for i := 0; i < 40; i++ {
		add(float64(i) / 4)
	}
	e.RunAll()
	if len(fired) != 40+len(far) {
		t.Fatalf("fired %d events, want %d", len(fired), 40+len(far))
	}
	for k, at := range far {
		if fired[40+k] != at {
			t.Fatalf("far-future events fired as %v, want %v", fired[40:], far)
		}
	}
	for i := 1; i < len(fired); i++ {
		if fired[i] < fired[i-1] {
			t.Fatalf("out of order at %d: %v after %v", i, fired[i], fired[i-1])
		}
	}
}
