package iosched

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/iomodel"
	"repro/internal/rng"
	"repro/internal/sim"
	"repro/internal/units"
)

func TestDisciplineTaxonomy(t *testing.T) {
	if Oblivious.UsesToken() {
		t.Error("Oblivious must not use the token")
	}
	for _, d := range []Discipline{Ordered, OrderedNB, LeastWaste, ShortestFirst, RandomToken, FairShare} {
		if !d.UsesToken() {
			t.Errorf("%v must use the token", d)
		}
	}
	if Oblivious.NonBlockingCheckpoints() || Ordered.NonBlockingCheckpoints() {
		t.Error("blocking disciplines report non-blocking checkpoints")
	}
	for _, d := range []Discipline{OrderedNB, LeastWaste, ShortestFirst, RandomToken, FairShare} {
		if !d.NonBlockingCheckpoints() {
			t.Errorf("%v must report non-blocking checkpoints", d)
		}
	}
}

func TestDisciplineNames(t *testing.T) {
	want := map[Discipline]string{
		Oblivious: "Oblivious", Ordered: "Ordered",
		OrderedNB: "Ordered-NB", LeastWaste: "Least-Waste",
		ShortestFirst: "Shortest-First", RandomToken: "Random",
		FairShare: "Fair-Share",
	}
	for d, s := range want {
		if d.Name() != s {
			t.Errorf("Name() = %q, want %q", d.Name(), s)
		}
	}
}

// StrategyLabel composes discipline-policy names; the Least-Waste family
// (footnote 4: Daly-only) keeps the bare discipline name.
func TestStrategyLabels(t *testing.T) {
	cases := []struct {
		d      Discipline
		policy string
		want   string
	}{
		{Oblivious, "Fixed", "Oblivious-Fixed"},
		{Ordered, "Daly", "Ordered-Daly"},
		{OrderedNB, "Daly", "Ordered-NB-Daly"},
		{ShortestFirst, "Daly", "Shortest-First-Daly"},
		{RandomToken, "Daly", "Random-Daly"},
		{LeastWaste, "Daly", "Least-Waste"},
		{LeastWaste, "Fixed", "Least-Waste"},
		{FairShare, "Daly", "Fair-Share"},
	}
	for _, c := range cases {
		if got := c.d.StrategyLabel(c.policy); got != c.want {
			t.Errorf("%v.StrategyLabel(%q) = %q, want %q", c.d, c.policy, got, c.want)
		}
	}
}

// Each token discipline instantiates its scenario selector; the FCFS
// family demotes burst-buffer drains when asked, the Least-Waste family
// does not need to.
func TestArbiterSelectors(t *testing.T) {
	sc := Scenario{MuIndSeconds: units.Years(2), BandwidthBps: 100, Classes: 4}
	bg := sc
	bg.Background = true
	cases := []struct {
		d                 Discipline
		plain, background string
	}{
		{Ordered, "fcfs", "fcfs-background"},
		{OrderedNB, "fcfs", "fcfs-background"},
		{LeastWaste, "least-waste", "least-waste"},
		{ShortestFirst, "shortest-first", "shortest-first-background"},
		{RandomToken, "random", "random-background"},
		{FairShare, "fair-share", "fair-share"},
	}
	for _, c := range cases {
		if got := c.d.NewSelector(sc).Name(); got != c.plain {
			t.Errorf("%v selector = %q, want %q", c.d, got, c.plain)
		}
		if got := c.d.NewSelector(bg).Name(); got != c.background {
			t.Errorf("%v background selector = %q, want %q", c.d, got, c.background)
		}
	}
	if Oblivious.NewSelector(sc) != nil {
		t.Error("Oblivious returned a token selector")
	}
	// Stateful selectors must expose the per-replicate reset hook — also
	// through the Background wrapper, or arena reuse would leak random
	// state across replicates under a burst buffer.
	if _, ok := RandomToken.NewSelector(sc).(iomodel.StatefulSelector); !ok {
		t.Error("RandomToken selector is not resettable")
	}
	if _, ok := RandomToken.NewSelector(bg).(iomodel.StatefulSelector); !ok {
		t.Error("RandomToken background selector is not resettable")
	}
	if _, ok := FairShare.NewSelector(sc).(iomodel.StatefulSelector); !ok {
		t.Error("FairShare selector is not resettable")
	}
}

// Hand-computed Equation (1): IO candidate i among one other IO candidate
// and one checkpoint candidate.
func TestExpectedWasteEquation1(t *testing.T) {
	const muInd = 1e6
	const bw = 100.0
	sel := NewLeastWasteSelector(muInd, bw)
	now := 1000.0
	io1 := &iomodel.Transfer{Kind: iomodel.Input, Volume: 5000, Nodes: 4}  // v=50
	io2 := &iomodel.Transfer{Kind: iomodel.Output, Volume: 2000, Nodes: 2} // d2 = now-arrival
	ck := &iomodel.Transfer{Kind: iomodel.Checkpoint, Volume: 1000, Nodes: 8,
		LastCkptEnd: 400, RecoverySeconds: 30}
	// Give the transfers arrivals by submitting through a token device
	// whose current transfer blocks them (simpler: set via test device).
	eng := sim.New()
	dev := iomodel.NewTokenDevice(eng, bw, iomodel.FCFS{})
	blocker := &iomodel.Transfer{Kind: iomodel.Regular, Volume: bw * 2000, Nodes: 1, Sink: funcSink{}}
	dev.Submit(blocker) // holds token until t=2000
	io1.Sink, io2.Sink, ck.Sink = funcSink{}, funcSink{}, funcSink{}
	eng.Schedule(900, func() { dev.Submit(io1) }) // d1 at t=1000: 100
	eng.Schedule(940, func() { dev.Submit(io2) }) // d2 at t=1000: 60
	eng.Schedule(950, func() { dev.Submit(ck) })  // ckpt candidate
	eng.Run(now)

	pending := dev.Pending()
	if len(pending) != 3 {
		t.Fatalf("pending = %d, want 3", len(pending))
	}
	// W(io1) = v1 * [ q2(d2+v1) + q_ck^2/mu (R+d_ck+v1/2) ]
	// v1 = 50, q2(d2+v1) = 2*(60+50) = 220
	// ckpt term: 64/1e6 * (30 + (1000-400) + 25) = 64e-6*655 = 0.04192
	want := 50 * (220 + 64.0/muInd*(30+600+25))
	got := sel.ExpectedWaste(now, pending, 0)
	if math.Abs(got-want) > 1e-9*want {
		t.Errorf("Equation(1) waste = %v, want %v", got, want)
	}
}

// Hand-computed Equation (2): checkpoint candidate among an IO candidate
// and another checkpoint candidate.
func TestExpectedWasteEquation2(t *testing.T) {
	const muInd = 2e6
	const bw = 50.0
	sel := NewLeastWasteSelector(muInd, bw)
	now := 500.0
	eng := sim.New()
	dev := iomodel.NewTokenDevice(eng, bw, iomodel.FCFS{})
	blocker := &iomodel.Transfer{Kind: iomodel.Regular, Volume: bw * 1e4, Nodes: 1, Sink: funcSink{}}
	dev.Submit(blocker)
	io := &iomodel.Transfer{Kind: iomodel.Recovery, Volume: 100 * bw, Nodes: 3, Sink: funcSink{}}
	ck1 := &iomodel.Transfer{Kind: iomodel.Checkpoint, Volume: 200 * bw, Nodes: 5,
		LastCkptEnd: 100, RecoverySeconds: 40, Sink: funcSink{}}
	ck2 := &iomodel.Transfer{Kind: iomodel.Checkpoint, Volume: 300 * bw, Nodes: 7,
		LastCkptEnd: 200, RecoverySeconds: 60, Sink: funcSink{}}
	eng.Schedule(450, func() { dev.Submit(io) }) // d_io = 50 at now
	eng.Schedule(460, func() { dev.Submit(ck1) })
	eng.Schedule(470, func() { dev.Submit(ck2) })
	eng.Run(now)

	pending := dev.Pending()
	if len(pending) != 3 {
		t.Fatalf("pending = %d, want 3", len(pending))
	}
	// Candidate ck1 (index 1): C = 200 s.
	// IO term: q_io (d_io + C) = 3*(50+200) = 750
	// ck2 term: q2^2/mu (R2 + d2 + C/2) = 49/2e6 * (60 + (500-200) + 100)
	want := 200 * (750 + 49.0/muInd*(60+300+100))
	got := sel.ExpectedWaste(now, pending, 1)
	if math.Abs(got-want) > 1e-9*want {
		t.Errorf("Equation(2) waste = %v, want %v", got, want)
	}
}

// The selector must pick the candidate with minimal expected waste; with a
// single huge IO candidate waiting against a tiny one, the tiny transfer
// inflicts less waste on the rest.
func TestPickPrefersSmallTransferAgainstWaiters(t *testing.T) {
	sel := NewLeastWasteSelector(units.Years(2), 100)
	now := 10.0
	big := &iomodel.Transfer{Kind: iomodel.Input, Volume: 1e6, Nodes: 4}
	small := &iomodel.Transfer{Kind: iomodel.Input, Volume: 100, Nodes: 4}
	pending := []*iomodel.Transfer{big, small}
	if got := sel.Pick(now, pending); got != 1 {
		t.Fatalf("Pick = %d, want 1 (small transfer)", got)
	}
}

// Integration: a token device driven by the Least-Waste selector grants in
// waste order, not FCFS order.
func TestLeastWasteDeviceIntegration(t *testing.T) {
	eng := sim.New()
	sel := NewLeastWasteSelector(units.Years(2), 100)
	dev := iomodel.NewTokenDevice(eng, 100, sel)
	var order []string
	mk := func(name string, volume float64, nodes int) *iomodel.Transfer {
		return &iomodel.Transfer{Kind: iomodel.Input, Volume: volume, Nodes: nodes,
			Sink: funcSink{start: func(float64) { order = append(order, name) }}}
	}
	// First grabs the token immediately (FCFS when idle).
	dev.Submit(mk("first", 1000, 1))
	dev.Submit(mk("huge", 1e5, 1))
	dev.Submit(mk("tiny", 10, 1))
	eng.RunAll()
	if len(order) != 3 || order[0] != "first" || order[1] != "tiny" || order[2] != "huge" {
		t.Fatalf("grant order = %v, want [first tiny huge]", order)
	}
}

// Property: Pick always returns the argmin of ExpectedWaste.
func TestPickIsArgminProperty(t *testing.T) {
	f := func(seed uint64) bool {
		r := rng.New(seed)
		sel := NewLeastWasteSelector(1e5+r.Float64()*1e7, 10+r.Float64()*1e3)
		now := 1e4 * r.Float64()
		n := 2 + r.Intn(10)
		pending := make([]*iomodel.Transfer, n)
		for i := range pending {
			kind := iomodel.Input
			if r.Float64() < 0.5 {
				kind = iomodel.Checkpoint
			}
			pending[i] = &iomodel.Transfer{
				Kind:            kind,
				Volume:          1 + r.Float64()*1e6,
				Nodes:           1 + r.Intn(4096),
				LastCkptEnd:     now * r.Float64(),
				RecoverySeconds: r.Float64() * 1e3,
			}
		}
		got := sel.Pick(now, pending)
		best, bestW := -1, math.Inf(1)
		for i := range pending {
			if w := sel.ExpectedWaste(now, pending, i); w < bestW {
				best, bestW = i, w
			}
		}
		return got == best
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestNewLeastWasteSelectorValidation(t *testing.T) {
	for _, bad := range [][2]float64{{0, 1}, {1, 0}, {-1, 1}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("parameters %v accepted", bad)
				}
			}()
			NewLeastWasteSelector(bad[0], bad[1])
		}()
	}
}
