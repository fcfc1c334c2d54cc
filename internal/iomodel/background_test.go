package iomodel

import (
	"testing"

	"repro/internal/sim"
)

func TestFCFSBackgroundPrefersForeground(t *testing.T) {
	sel := &Background{Inner: FCFS{}}
	drain := &Transfer{Kind: Drain, Volume: 100, Nodes: 1}
	input := &Transfer{Kind: Input, Volume: 100, Nodes: 1}
	output := &Transfer{Kind: Output, Volume: 100, Nodes: 1}
	if got := sel.Pick(0, []*Transfer{drain, input, output}); got != 1 {
		t.Fatalf("Pick = %d, want 1 (first foreground)", got)
	}
	if got := sel.Pick(0, []*Transfer{input, drain}); got != 0 {
		t.Fatalf("Pick = %d, want 0 (FCFS among foreground)", got)
	}
}

func TestFCFSBackgroundAllDrains(t *testing.T) {
	sel := &Background{Inner: FCFS{}}
	a := &Transfer{Kind: Drain, Volume: 100, Nodes: 1}
	b := &Transfer{Kind: Drain, Volume: 100, Nodes: 1}
	if got := sel.Pick(0, []*Transfer{a, b}); got != 0 {
		t.Fatalf("Pick = %d, want 0 (FCFS among drains)", got)
	}
}

// Integration: on a token device, a queued drain yields to later-arriving
// foreground requests but runs once the queue is empty.
func TestFCFSBackgroundDeviceIntegration(t *testing.T) {
	eng := sim.New()
	d := NewTokenDevice(eng, 100, &Background{Inner: FCFS{}})
	var order []string
	mk := func(name string, kind Kind) *Transfer {
		return &Transfer{Kind: kind, Volume: 500, Nodes: 1,
			Sink: funcSink{start: func(float64) { order = append(order, name) }}}
	}
	d.Submit(mk("first-input", Input)) // grabs the token
	d.Submit(mk("drain", Drain))
	d.Submit(mk("late-output", Output)) // arrives after the drain, runs before it
	eng.RunAll()
	want := []string{"first-input", "late-output", "drain"}
	if len(order) != 3 || order[0] != want[0] || order[1] != want[1] || order[2] != want[2] {
		t.Fatalf("grant order %v, want %v", order, want)
	}
}

func TestFCFSBackgroundName(t *testing.T) {
	if (&Background{Inner: FCFS{}}).Name() != "fcfs-background" {
		t.Fatal("selector name wrong")
	}
	if Drain.String() != "drain" {
		t.Fatal("Drain kind name wrong")
	}
}
