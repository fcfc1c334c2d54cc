package iomodel

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/rng"
	"repro/internal/sim"
)

func newTransfer(kind Kind, volume float64, nodes int, done *[]float64) *Transfer {
	return &Transfer{
		Kind:   kind,
		Volume: volume,
		Nodes:  nodes,
		OnComplete: func(now float64) {
			*done = append(*done, now)
		},
	}
}

func TestSharedSingleTransferFullBandwidth(t *testing.T) {
	eng := sim.New()
	d := NewSharedDevice(eng, 100, LinearShare{}) // 100 B/s
	var done []float64
	d.Submit(newTransfer(Input, 1000, 4, &done))
	eng.RunAll()
	if len(done) != 1 || math.Abs(done[0]-10) > 1e-9 {
		t.Fatalf("single 1000B transfer at 100B/s completed at %v, want 10", done)
	}
}

// Two equal simultaneous transfers each get half the bandwidth: commits
// take twice as long (the paper's CR-CR contention example, §1).
func TestSharedEqualContention(t *testing.T) {
	eng := sim.New()
	d := NewSharedDevice(eng, 100, LinearShare{})
	var done []float64
	d.Submit(newTransfer(Checkpoint, 1000, 8, &done))
	d.Submit(newTransfer(Checkpoint, 1000, 8, &done))
	eng.RunAll()
	if len(done) != 2 {
		t.Fatalf("completed %d transfers, want 2", len(done))
	}
	for _, at := range done {
		if math.Abs(at-20) > 1e-9 {
			t.Fatalf("contended commit finished at %v, want 20 (dilated 2x)", at)
		}
	}
}

// Shares are proportional to node counts: a 3-node and a 1-node transfer
// split 100 B/s as 75/25.
func TestSharedWeightedShares(t *testing.T) {
	eng := sim.New()
	d := NewSharedDevice(eng, 100, LinearShare{})
	var bigDone, smallDone []float64
	d.Submit(newTransfer(Input, 750, 3, &bigDone))
	d.Submit(newTransfer(Input, 250, 1, &smallDone))
	eng.RunAll()
	// Both drain exactly together at t=10: 750/75 = 250/25.
	if len(bigDone) != 1 || math.Abs(bigDone[0]-10) > 1e-9 {
		t.Fatalf("big transfer done at %v, want 10", bigDone)
	}
	if len(smallDone) != 1 || math.Abs(smallDone[0]-10) > 1e-9 {
		t.Fatalf("small transfer done at %v, want 10", smallDone)
	}
}

// A transfer arriving mid-flight slows the first one down from that point.
func TestSharedDynamicRateChange(t *testing.T) {
	eng := sim.New()
	d := NewSharedDevice(eng, 100, LinearShare{})
	var first, second []float64
	d.Submit(newTransfer(Input, 1000, 1, &first))
	eng.Schedule(5, func() {
		d.Submit(newTransfer(Input, 1000, 1, &second))
	})
	eng.RunAll()
	// First: 500 B in 5 s alone, remaining 500 B at 50 B/s -> t=15.
	if len(first) != 1 || math.Abs(first[0]-15) > 1e-9 {
		t.Fatalf("first done at %v, want 15", first)
	}
	// Second: 500 B at 50 B/s until t=15, then 500 B at 100 B/s -> t=20.
	if len(second) != 1 || math.Abs(second[0]-20) > 1e-9 {
		t.Fatalf("second done at %v, want 20", second)
	}
}

func TestSharedAbortReleasesBandwidth(t *testing.T) {
	eng := sim.New()
	d := NewSharedDevice(eng, 100, LinearShare{})
	var survivor []float64
	victim := newTransfer(Input, 1e9, 1, &[]float64{})
	d.Submit(victim)
	d.Submit(newTransfer(Input, 1000, 1, &survivor))
	eng.Schedule(5, func() { d.Abort(victim) })
	eng.RunAll()
	// Survivor: 250 B by t=5 (half rate), then 750 B at 100 B/s -> 12.5.
	if len(survivor) != 1 || math.Abs(survivor[0]-12.5) > 1e-9 {
		t.Fatalf("survivor done at %v, want 12.5", survivor)
	}
	if victim.Done() {
		t.Fatal("aborted transfer reported done")
	}
}

func TestSharedUnlimitedModel(t *testing.T) {
	eng := sim.New()
	d := NewSharedDevice(eng, 100, Unlimited{})
	var a, b []float64
	d.Submit(newTransfer(Input, 1000, 1, &a))
	d.Submit(newTransfer(Input, 1000, 9, &b))
	eng.RunAll()
	if len(a) != 1 || len(b) != 1 || math.Abs(a[0]-10) > 1e-9 || math.Abs(b[0]-10) > 1e-9 {
		t.Fatalf("unlimited transfers done at %v/%v, want both 10", a, b)
	}
}

func TestSharedDegradedModel(t *testing.T) {
	eng := sim.New()
	d := NewSharedDevice(eng, 100, Degraded{Gamma: 0.5})
	var a, b []float64
	d.Submit(newTransfer(Input, 500, 1, &a))
	d.Submit(newTransfer(Input, 500, 1, &b))
	eng.RunAll()
	// Two streams: total 100*0.5=50 B/s, 25 each -> 20 s... but once the
	// first drains the other finishes alone at full rate. Both have equal
	// volume so they drain together at t=20.
	if len(a) != 1 || math.Abs(a[0]-20) > 1e-9 {
		t.Fatalf("degraded transfer done at %v, want 20", a)
	}
	_ = b
}

func TestSharedOnStartFiresAtSubmit(t *testing.T) {
	eng := sim.New()
	d := NewSharedDevice(eng, 100, LinearShare{})
	started := -1.0
	tr := &Transfer{Kind: Input, Volume: 100, Nodes: 1,
		OnStart:    func(now float64) { started = now },
		OnComplete: func(float64) {}}
	eng.Schedule(3, func() { d.Submit(tr) })
	eng.RunAll()
	if started != 3 {
		t.Fatalf("OnStart at %v, want 3", started)
	}
}

func TestSharedZeroVolumeCompletesImmediately(t *testing.T) {
	eng := sim.New()
	d := NewSharedDevice(eng, 100, LinearShare{})
	var done []float64
	d.Submit(newTransfer(Input, 0, 1, &done))
	eng.RunAll()
	if len(done) != 1 || done[0] != 0 {
		t.Fatalf("zero-volume transfer done = %v, want [0]", done)
	}
}

func TestTokenFCFSSerialises(t *testing.T) {
	eng := sim.New()
	d := NewTokenDevice(eng, 100, FCFS{})
	var a, b, c []float64
	d.Submit(newTransfer(Input, 1000, 1, &a))
	d.Submit(newTransfer(Input, 1000, 8, &b))
	d.Submit(newTransfer(Input, 500, 2, &c))
	if d.Busy() != 1 || d.Waiting() != 2 {
		t.Fatalf("busy=%d waiting=%d, want 1/2", d.Busy(), d.Waiting())
	}
	eng.RunAll()
	// The §3.2 example: first at full bandwidth t=10, second waits then
	// finishes at 20, third at 25.
	if len(a) != 1 || a[0] != 10 {
		t.Fatalf("a done at %v, want 10", a)
	}
	if len(b) != 1 || b[0] != 20 {
		t.Fatalf("b done at %v, want 20", b)
	}
	if len(c) != 1 || c[0] != 25 {
		t.Fatalf("c done at %v, want 25", c)
	}
}

func TestTokenOnStartAtGrant(t *testing.T) {
	eng := sim.New()
	d := NewTokenDevice(eng, 100, FCFS{})
	var done []float64
	d.Submit(newTransfer(Input, 1000, 1, &done))
	startedB := -1.0
	b := &Transfer{Kind: Output, Volume: 100, Nodes: 1,
		OnStart:    func(now float64) { startedB = now },
		OnComplete: func(float64) {}}
	d.Submit(b)
	if b.Pending() != true {
		t.Fatal("queued transfer not pending")
	}
	eng.RunAll()
	if startedB != 10 {
		t.Fatalf("second transfer granted at %v, want 10", startedB)
	}
	if !b.Done() || b.Start() != 10 {
		t.Fatalf("b done=%v start=%v", b.Done(), b.Start())
	}
}

func TestTokenAbortCurrentGrantsNext(t *testing.T) {
	eng := sim.New()
	d := NewTokenDevice(eng, 100, FCFS{})
	victim := newTransfer(Input, 1e6, 1, &[]float64{})
	var next []float64
	d.Submit(victim)
	d.Submit(newTransfer(Input, 500, 1, &next))
	eng.Schedule(7, func() { d.Abort(victim) })
	eng.RunAll()
	if len(next) != 1 || next[0] != 12 {
		t.Fatalf("next done at %v, want 12 (grant at abort t=7 + 5s)", next)
	}
	if victim.Done() {
		t.Fatal("aborted transfer reported done")
	}
}

func TestTokenAbortPending(t *testing.T) {
	eng := sim.New()
	d := NewTokenDevice(eng, 100, FCFS{})
	var a, c []float64
	d.Submit(newTransfer(Input, 1000, 1, &a))
	victim := newTransfer(Input, 1000, 1, &[]float64{})
	d.Submit(victim)
	d.Submit(newTransfer(Input, 1000, 1, &c))
	d.Abort(victim)
	eng.RunAll()
	if len(a) != 1 || a[0] != 10 || len(c) != 1 || c[0] != 20 {
		t.Fatalf("a=%v c=%v, want [10] [20]", a, c)
	}
}

func TestTokenResubmitFromCompletionCallback(t *testing.T) {
	eng := sim.New()
	d := NewTokenDevice(eng, 100, FCFS{})
	var times []float64
	count := 0
	var tr *Transfer
	tr = &Transfer{Kind: Input, Volume: 100, Nodes: 1, OnComplete: func(now float64) {
		times = append(times, now)
		count++
		if count < 3 {
			next := *tr
			d.Submit(&next)
		}
	}}
	d.Submit(tr)
	eng.RunAll()
	if len(times) != 3 || times[0] != 1 || times[1] != 2 || times[2] != 3 {
		t.Fatalf("chained submissions completed at %v, want [1 2 3]", times)
	}
}

func TestKindString(t *testing.T) {
	want := map[Kind]string{Input: "input", Recovery: "recovery", Regular: "regular", Output: "output", Checkpoint: "checkpoint"}
	for k, s := range want {
		if k.String() != s {
			t.Errorf("Kind(%d).String() = %q, want %q", int(k), k.String(), s)
		}
	}
}

// Property: under LinearShare, total bytes moved never exceed bandwidth ×
// elapsed time, and all submitted transfers eventually complete (work
// conservation).
func TestSharedConservationProperty(t *testing.T) {
	f := func(seed uint64) bool {
		r := rng.New(seed)
		eng := sim.New()
		const bw = 1000.0
		d := NewSharedDevice(eng, bw, LinearShare{})
		n := 2 + r.Intn(20)
		totalVolume := 0.0
		completed := 0
		var lastDone float64
		for i := 0; i < n; i++ {
			v := 10 + r.Float64()*5000
			at := r.Float64() * 10
			totalVolume += v
			tr := &Transfer{Kind: Input, Volume: v, Nodes: 1 + r.Intn(8), OnComplete: func(now float64) {
				completed++
				lastDone = now
			}}
			eng.Schedule(at, func() { d.Submit(tr) })
		}
		eng.RunAll()
		if completed != n {
			return false
		}
		// The device can never have moved the total volume faster than
		// the full bandwidth since time 0.
		return lastDone >= totalVolume/bw-1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// Property: a token device is work-conserving and serialises: completions
// are spaced by at least each transfer's full-bandwidth duration, and the
// makespan equals the sum of durations from the last idle instant.
func TestTokenSerialisationProperty(t *testing.T) {
	f := func(seed uint64) bool {
		r := rng.New(seed)
		eng := sim.New()
		const bw = 100.0
		d := NewTokenDevice(eng, bw, FCFS{})
		n := 2 + r.Intn(15)
		totalDur := 0.0
		var done []float64
		for i := 0; i < n; i++ {
			v := 10 + r.Float64()*1000
			totalDur += v / bw
			tr := &Transfer{Kind: Input, Volume: v, Nodes: 1, OnComplete: func(now float64) {
				done = append(done, now)
			}}
			d.Submit(tr) // all at t=0: busy period = sum of durations
		}
		eng.RunAll()
		if len(done) != n {
			return false
		}
		return math.Abs(done[n-1]-totalDur) < 1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestInterferenceModelNames(t *testing.T) {
	if (LinearShare{}).Name() != "linear" || (Unlimited{}).Name() != "unlimited" {
		t.Fatal("model names wrong")
	}
	if (Degraded{Gamma: 0.9}).Name() != "degraded(0.90)" {
		t.Fatalf("degraded name = %q", Degraded{Gamma: 0.9}.Name())
	}
}

func TestNewDevicePanicsOnBadBandwidth(t *testing.T) {
	for _, f := range []func(){
		func() { NewSharedDevice(sim.New(), 0, nil) },
		func() { NewTokenDevice(sim.New(), -1, nil) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("bad bandwidth accepted")
				}
			}()
			f()
		}()
	}
}

// TestSharedCascadeEmptiesDeviceInOwnWake: three transfers finish at the
// same instant, and the first completion submits a zero-byte transfer,
// which folds into the same cascade. The cascade empties the device
// during its own wake, so the firing wake is dropped, not re-armed, and
// recycled; a later submission arms a fresh one and completes on time.
func TestSharedCascadeEmptiesDeviceInOwnWake(t *testing.T) {
	eng := sim.New()
	d := NewSharedDevice(eng, 120, LinearShare{})
	var done, extra, late []float64
	first := newTransfer(Input, 1200, 1, &done)
	first.OnComplete = func(now float64) {
		done = append(done, now)
		d.Submit(newTransfer(Output, 0, 1, &extra))
	}
	d.Submit(first)
	d.Submit(newTransfer(Input, 1200, 1, &done))
	d.Submit(newTransfer(Input, 1200, 1, &done))
	eng.Run(40)
	if len(done) != 3 || len(extra) != 1 || done[0] != 30 || done[2] != 30 || extra[0] != 30 {
		t.Fatalf("cascade completions %v, zero-byte %v, want three and one at 30", done, extra)
	}
	if eng.Executed() != 1 {
		t.Fatalf("%d wakes fired, want 1", eng.Executed())
	}
	if alloc, free := eng.PoolStats(); d.Busy() != 0 || eng.Pending() != 0 || alloc != free {
		t.Fatalf("after the cascade: busy=%d pending=%d, %d of %d events free", d.Busy(), eng.Pending(), free, alloc)
	}
	// The marker reuses the recycled wake event; a device still holding
	// that handle would move the marker instead of arming a fresh wake.
	marker := false
	eng.Schedule(60, func() { marker = true })
	eng.Schedule(50, func() { d.Submit(newTransfer(Input, 600, 1, &late)) })
	eng.RunAll()
	if len(late) != 1 || late[0] != 55 || !marker {
		t.Fatalf("later transfer done at %v (want [55]), marker fired %v", late, marker)
	}
}
