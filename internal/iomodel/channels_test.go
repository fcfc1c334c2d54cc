package iomodel

import (
	"testing"

	"repro/internal/sim"
)

// recorder builds transfers that log start/completion times by name.
type recorder struct {
	events []string
	times  []float64
}

func (r *recorder) transfer(name string, volume float64, nodes int) *Transfer {
	return &Transfer{
		Kind:   Input,
		Volume: volume,
		Nodes:  nodes,
		OnStart: func(now float64) {
			r.events = append(r.events, "start:"+name)
			r.times = append(r.times, now)
		},
		OnComplete: func(now float64) {
			r.events = append(r.events, "done:"+name)
			r.times = append(r.times, now)
		},
	}
}

func (r *recorder) expect(t *testing.T, events []string, times []float64) {
	t.Helper()
	if len(r.events) != len(events) {
		t.Fatalf("events = %v, want %v", r.events, events)
	}
	for i := range events {
		if r.events[i] != events[i] || r.times[i] != times[i] {
			t.Fatalf("event %d = %s@%v, want %s@%v\n all: %v %v",
				i, r.events[i], r.times[i], events[i], times[i], r.events, r.times)
		}
	}
}

// Two channels run two transfers concurrently at full bandwidth each; the
// third waits for the first release.
func TestTokenDeviceTwoChannels(t *testing.T) {
	eng := sim.New()
	dev := NewTokenDeviceK(eng, 100, FCFS{}, 2)
	rec := &recorder{}
	dev.Submit(rec.transfer("a", 1000, 1)) // 10 s
	dev.Submit(rec.transfer("b", 500, 1))  // 5 s
	dev.Submit(rec.transfer("c", 200, 1))  // queued until b done at t=5
	if dev.Busy() != 2 || dev.Waiting() != 1 {
		t.Fatalf("busy=%d waiting=%d, want 2/1", dev.Busy(), dev.Waiting())
	}
	eng.RunAll()
	rec.expect(t,
		[]string{"start:a", "start:b", "done:b", "start:c", "done:c", "done:a"},
		[]float64{0, 0, 5, 5, 7, 10})
}

// k=1 serialises exactly like the historical single-token device.
func TestTokenDeviceSingleChannelSerialises(t *testing.T) {
	eng := sim.New()
	dev := NewTokenDevice(eng, 100, FCFS{})
	if dev.Channels() != 1 {
		t.Fatalf("Channels() = %d, want 1", dev.Channels())
	}
	rec := &recorder{}
	dev.Submit(rec.transfer("a", 1000, 1))
	dev.Submit(rec.transfer("b", 500, 1))
	eng.RunAll()
	rec.expect(t,
		[]string{"start:a", "done:a", "start:b", "done:b"},
		[]float64{0, 10, 10, 15})
}

// Unbounded channels admit every transfer immediately at full bandwidth —
// the SharedDevice/Unlimited degeneration.
func TestTokenDeviceUnboundedMatchesSharedUnlimited(t *testing.T) {
	volumes := []float64{1000, 500, 200, 700}

	run := func(dev Device, rec *recorder) {
		for i, v := range volumes {
			dev.Submit(rec.transfer(string(rune('a'+i)), v, 1+i))
		}
	}
	engTok := sim.New()
	tok := NewTokenDeviceK(engTok, 100, FCFS{}, 0)
	recTok := &recorder{}
	run(tok, recTok)
	if tok.Busy() != len(volumes) || tok.Waiting() != 0 {
		t.Fatalf("unbounded device queued: busy=%d waiting=%d", tok.Busy(), tok.Waiting())
	}
	engTok.RunAll()

	engSh := sim.New()
	sh := NewSharedDevice(engSh, 100, Unlimited{})
	recSh := &recorder{}
	run(sh, recSh)
	engSh.RunAll()

	recTok.expect(t, recSh.events, recSh.times)
}

// Aborting an active transfer frees its channel for the queue; aborting a
// queued transfer removes it without a grant.
func TestTokenDeviceMultiChannelAbort(t *testing.T) {
	eng := sim.New()
	dev := NewTokenDeviceK(eng, 100, FCFS{}, 2)
	rec := &recorder{}
	a := rec.transfer("a", 1000, 1)
	b := rec.transfer("b", 1000, 1)
	c := rec.transfer("c", 400, 1)
	d := rec.transfer("d", 100, 1)
	dev.Submit(a)
	dev.Submit(b)
	dev.Submit(c)
	dev.Submit(d)
	dev.Abort(d) // queued: silent removal
	if d.InFlight() {
		t.Fatal("aborted queued transfer still in flight")
	}
	dev.Abort(a) // active: channel re-granted to c at t=0
	eng.RunAll()
	rec.expect(t,
		[]string{"start:a", "start:b", "start:c", "done:c", "done:b"},
		[]float64{0, 0, 0, 4, 10})
	if a.Done() || !c.Done() || !b.Done() {
		t.Fatalf("final states wrong: a.Done=%v b.Done=%v c.Done=%v", a.Done(), b.Done(), c.Done())
	}
}

// Reset aborts active and queued transfers on every channel and restores
// the initial idle state; the device then behaves like a fresh one.
func TestTokenDeviceMultiChannelReset(t *testing.T) {
	eng := sim.New()
	dev := NewTokenDeviceK(eng, 100, FCFS{}, 2)
	rec := &recorder{}
	a := rec.transfer("a", 1000, 1)
	b := rec.transfer("b", 1000, 1)
	c := rec.transfer("c", 1000, 1)
	dev.Submit(a)
	dev.Submit(b)
	dev.Submit(c)
	eng.Reset()
	dev.Reset()
	if dev.Busy() != 0 || dev.Waiting() != 0 || dev.Current() != nil {
		t.Fatalf("reset left busy=%d waiting=%d", dev.Busy(), dev.Waiting())
	}
	if a.InFlight() || b.InFlight() || c.InFlight() {
		t.Fatal("reset left transfers in flight")
	}
	rec2 := &recorder{}
	dev.Submit(rec2.transfer("x", 500, 1))
	dev.Submit(rec2.transfer("y", 200, 1))
	eng.RunAll()
	rec2.expect(t,
		[]string{"start:x", "start:y", "done:y", "done:x"},
		[]float64{0, 0, 2, 5})
}

// The selector still orders grants on a multi-channel device: with
// shortest-first, the shortest queued transfer takes each freed channel.
func TestTokenDeviceMultiChannelSelector(t *testing.T) {
	eng := sim.New()
	dev := NewTokenDeviceK(eng, 100, ShortestFirst{}, 2)
	rec := &recorder{}
	dev.Submit(rec.transfer("a", 1000, 1)) // channel 1, done t=10
	dev.Submit(rec.transfer("b", 300, 1))  // channel 2, done t=3
	dev.Submit(rec.transfer("big", 5000, 1))
	dev.Submit(rec.transfer("small", 100, 1))
	eng.RunAll()
	// At t=3 channel 2 frees: "small" (100) beats "big" (5000).
	rec.expect(t,
		[]string{"start:a", "start:b", "done:b", "start:small", "done:small", "start:big", "done:a", "done:big"},
		[]float64{0, 0, 3, 3, 4, 4, 10, 54})
}

// A start callback that aborts its own grant re-entrantly must not leave
// a wake armed for the dead transfer: the freed channel is re-granted to
// the next candidate, which completes on its own schedule (a stale wake
// would clobber the new occupant's handle and double-fire the slot).
func TestTokenDeviceAbortFromStartCallback(t *testing.T) {
	eng := sim.New()
	dev := NewTokenDevice(eng, 100, FCFS{})
	rec := &recorder{}
	blocker := rec.transfer("blocker", 500, 1) // holds the token until t=5
	var poison *Transfer
	poison = &Transfer{
		Kind:   Input,
		Volume: 1000, // would complete at t=15 if its wake survived
		Nodes:  1,
		OnStart: func(now float64) {
			rec.events = append(rec.events, "start:poison")
			rec.times = append(rec.times, now)
			dev.Abort(poison)
		},
		OnComplete: func(now float64) {
			t.Error("aborted transfer completed")
		},
	}
	dev.Submit(blocker)
	dev.Submit(poison)
	dev.Submit(rec.transfer("next", 200, 1))
	eng.RunAll()
	// poison starts at t=5, self-aborts; "next" takes the freed token at
	// t=5 and completes at t=7 — not at poison's 15.
	rec.expect(t,
		[]string{"start:blocker", "done:blocker", "start:poison", "start:next", "done:next"},
		[]float64{0, 5, 5, 5, 7})
	if dev.Busy() != 0 || dev.Waiting() != 0 {
		t.Fatalf("device not idle: busy=%d waiting=%d", dev.Busy(), dev.Waiting())
	}
}

// Background demotes drains behind every foreground candidate, orders the
// foreground by the inner selector, serves drains when alone, and
// forwards per-replicate reseeds to a stateful inner selector.
func TestBackgroundSelector(t *testing.T) {
	mk := func(kind Kind, v float64) *Transfer { return &Transfer{Kind: kind, Volume: v} }
	b := &Background{Inner: ShortestFirst{}}
	if b.Name() != "shortest-first-background" {
		t.Fatalf("Name() = %q", b.Name())
	}
	// A tiny drain never beats foreground I/O; the inner selector picks
	// among the foreground only.
	pending := []*Transfer{mk(Drain, 1), mk(Input, 900), mk(Output, 300)}
	if got := b.Pick(0, pending); got != 2 {
		t.Fatalf("Pick = %d, want 2 (smallest foreground)", got)
	}
	// Only drains waiting: serve them.
	drains := []*Transfer{mk(Drain, 500), mk(Drain, 100)}
	if got := b.Pick(0, drains); got != 1 {
		t.Fatalf("drain-only Pick = %d, want 1", got)
	}
	// Reseed forwarding: a wrapped RandomSelector replays its draws.
	wrapped := &Background{Inner: NewRandomSelector(7)}
	many := make([]*Transfer, 5)
	for i := range many {
		many[i] = mk(Input, float64(i+1))
	}
	var draws []int
	for i := 0; i < 20; i++ {
		draws = append(draws, wrapped.Pick(0, many))
	}
	wrapped.ResetSelector(7)
	for i := 0; i < 20; i++ {
		if got := wrapped.Pick(0, many); got != draws[i] {
			t.Fatalf("draw %d = %d after forwarded reset, want %d", i, got, draws[i])
		}
	}
}

// ShortestFirst picks the smallest volume with FIFO tie-break.
func TestShortestFirstPick(t *testing.T) {
	mk := func(v float64) *Transfer { return &Transfer{Volume: v} }
	pending := []*Transfer{mk(500), mk(100), mk(100), mk(900)}
	if got := (ShortestFirst{}).Pick(0, pending); got != 1 {
		t.Fatalf("Pick = %d, want 1 (first of the smallest)", got)
	}
}

// RandomSelector is in-range, deterministic under a fixed seed, and
// reproducible after ResetSelector — the property arena reuse rests on.
func TestRandomSelectorDeterminism(t *testing.T) {
	pending := make([]*Transfer, 7)
	for i := range pending {
		pending[i] = &Transfer{Volume: float64(100 * (i + 1))}
	}
	s := NewRandomSelector(42)
	var first []int
	for i := 0; i < 50; i++ {
		idx := s.Pick(0, pending)
		if idx < 0 || idx >= len(pending) {
			t.Fatalf("Pick out of range: %d", idx)
		}
		first = append(first, idx)
	}
	s.ResetSelector(42)
	for i := 0; i < 50; i++ {
		if got := s.Pick(0, pending); got != first[i] {
			t.Fatalf("draw %d = %d after reset, want %d", i, got, first[i])
		}
	}
	// A different seed must give a different draw sequence.
	s.ResetSelector(43)
	same := true
	for i := 0; i < 50; i++ {
		if s.Pick(0, pending) != first[i] {
			same = false
		}
	}
	if same {
		t.Fatal("seeds 42 and 43 produced identical draw sequences")
	}
	// Single candidates never consume randomness.
	s.ResetSelector(42)
	one := []*Transfer{pending[0]}
	if got := s.Pick(0, one); got != 0 {
		t.Fatalf("single-candidate Pick = %d", got)
	}
	if got := s.Pick(0, pending); got != first[0] {
		t.Fatal("single-candidate Pick consumed a random draw")
	}
}

// TestTokenDeviceRegrantInsideCompletion: the grant made inside a
// completing slot's own wake (whose handle the slot re-arms in place) has
// a start callback that aborts it; the freed slot is granted again to the
// next candidate within the same wake. Every transfer must complete
// exactly once, at its own time, and every wake must fire once: a slot
// that kept the dead grant's wake, or lost track of its firing handle,
// would double-fire or leak an event.
func TestTokenDeviceRegrantInsideCompletion(t *testing.T) {
	cases := []struct {
		k      int
		submit []string
		events []string
		times  []float64
		wakes  uint64
	}{
		{
			k:      1,
			submit: []string{"a", "poison", "next", "tail"},
			events: []string{"start:a", "done:a", "start:poison", "start:next", "done:next", "start:tail", "done:tail"},
			times:  []float64{0, 5, 5, 5, 7, 7, 10},
			wakes:  3,
		},
		{
			k:      2,
			submit: []string{"a", "b", "poison", "next", "tail"},
			events: []string{"start:a", "start:b", "done:a", "start:poison", "start:next", "done:next", "start:tail", "done:b", "done:tail"},
			times:  []float64{0, 0, 5, 5, 5, 7, 7, 10, 10},
			wakes:  4,
		},
	}
	volumes := map[string]float64{"a": 500, "b": 1000, "poison": 1000, "next": 200, "tail": 300}
	for _, tc := range cases {
		eng := sim.New()
		dev := NewTokenDeviceK(eng, 100, FCFS{}, tc.k)
		rec := &recorder{}
		completed := map[string]int{}
		for _, name := range tc.submit {
			tr := rec.transfer(name, volumes[name], 1)
			onStart, onComplete := tr.OnStart, tr.OnComplete
			tr.OnComplete = func(now float64) {
				completed[name]++
				onComplete(now)
			}
			if name == "poison" {
				tr.OnStart = func(now float64) {
					onStart(now)
					dev.Abort(tr)
				}
			}
			dev.Submit(tr)
		}
		eng.RunAll()
		rec.expect(t, tc.events, tc.times)
		for _, name := range tc.submit {
			want := 1
			if name == "poison" {
				want = 0
			}
			if completed[name] != want {
				t.Fatalf("k=%d: %s completed %d times, want %d", tc.k, name, completed[name], want)
			}
		}
		if eng.Executed() != tc.wakes {
			t.Fatalf("k=%d: %d wakes fired, want %d", tc.k, eng.Executed(), tc.wakes)
		}
		if alloc, free := eng.PoolStats(); dev.Busy() != 0 || dev.Waiting() != 0 || eng.Pending() != 0 || alloc != free {
			t.Fatalf("k=%d: busy=%d waiting=%d pending=%d, %d of %d events free", tc.k, dev.Busy(), dev.Waiting(), eng.Pending(), free, alloc)
		}
		// The last wake's event is back on the free list, so the marker
		// below reuses it. A slot still holding that handle would move
		// the marker when the late transfer is granted.
		marker := false
		eng.Schedule(20, func() { marker = true })
		eng.Schedule(15, func() { dev.Submit(rec.transfer("late", 100, 1)) })
		eng.RunAll()
		if !marker {
			t.Fatalf("k=%d: a stale slot wake took over a later event", tc.k)
		}
		rec.expect(t, append(tc.events, "start:late", "done:late"), append(tc.times, 15, 16))
	}
}
