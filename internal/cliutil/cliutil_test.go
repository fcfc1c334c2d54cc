package cliutil

import (
	"reflect"
	"testing"

	"repro/internal/driver"
	"repro/internal/engine"
)

func TestStrategies(t *testing.T) {
	all, err := Strategies("all")
	if err != nil || len(all) != len(engine.AllStrategies()) {
		t.Fatalf("all: %d strategies, err %v", len(all), err)
	}
	legend, err := Strategies("legend")
	if err != nil || len(legend) != 7 {
		t.Fatalf("legend: %d strategies, err %v", len(legend), err)
	}
	list, err := Strategies(" Least-Waste , Ordered-Daly ")
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, s := range list {
		names = append(names, s.Name())
	}
	if !reflect.DeepEqual(names, []string{"Least-Waste", "Ordered-Daly"}) {
		t.Fatalf("list resolved to %v", names)
	}
	if _, err := Strategies("No-Such-Strategy"); err == nil {
		t.Fatal("unknown strategy accepted")
	}
}

func TestPlatform(t *testing.T) {
	c, err := Platform("cielo", 40, 2)
	if err != nil || c.Nodes != 17888 || c.BandwidthBps != 40e9 {
		t.Fatalf("cielo: %+v, err %v", c, err)
	}
	p, err := Platform("prospective", 1000, 15)
	if err != nil || p.Nodes != 50000 {
		t.Fatalf("prospective: %+v, err %v", p, err)
	}
	if _, err := Platform("vax", 1, 1); err == nil {
		t.Fatal("unknown platform accepted")
	}
}

func TestChannels(t *testing.T) {
	ks, err := Channels("1, 2,4")
	if err != nil || !reflect.DeepEqual(ks, []int{1, 2, 4}) {
		t.Fatalf("channels: %v, err %v", ks, err)
	}
	for _, bad := range []string{"", "0", "x", "1,-2"} {
		if _, err := Channels(bad); err == nil {
			t.Errorf("Channels(%q) accepted", bad)
		}
	}
}

func TestSweepRangeAndValues(t *testing.T) {
	lo, hi, step, err := SweepRange("40:160:20")
	if err != nil || lo != 40 || hi != 160 || step != 20 {
		t.Fatalf("range: %v %v %v, err %v", lo, hi, step, err)
	}
	vals, err := SweepValues("2:10:4")
	if err != nil || !reflect.DeepEqual(vals, []float64{2, 6, 10}) {
		t.Fatalf("values: %v, err %v", vals, err)
	}
	for _, bad := range []string{"", "1:2", "1:2:3:4", "0:2:1", "a:2:1", "1:-2:1"} {
		if _, _, _, err := SweepRange(bad); err == nil {
			t.Errorf("SweepRange(%q) accepted", bad)
		}
	}
}

func TestInterruptContext(t *testing.T) {
	ctx, cancel := InterruptContext()
	if ctx.Err() != nil {
		t.Fatalf("fresh interrupt context already done: %v", ctx.Err())
	}
	cancel()
	<-ctx.Done()
}

func TestTargetCI(t *testing.T) {
	cases := []struct {
		spec string
		want driver.TargetCI
	}{
		{"", driver.TargetCI{}},
		{"0.002", driver.TargetCI{HalfWidth: 0.002}},
		{"0.002:0.99", driver.TargetCI{HalfWidth: 0.002, Confidence: 0.99}},
		{"0.002:0.99:16", driver.TargetCI{HalfWidth: 0.002, Confidence: 0.99, MinRuns: 16}},
		{"0.002:0.99:16:400", driver.TargetCI{HalfWidth: 0.002, Confidence: 0.99, MinRuns: 16, MaxRuns: 400}},
		{" 0.01 : 0.9 : 4 : 8 ", driver.TargetCI{HalfWidth: 0.01, Confidence: 0.9, MinRuns: 4, MaxRuns: 8}},
	}
	for _, c := range cases {
		got, err := TargetCI(c.spec)
		if err != nil {
			t.Errorf("TargetCI(%q): %v", c.spec, err)
			continue
		}
		if got != c.want {
			t.Errorf("TargetCI(%q) = %+v, want %+v", c.spec, got, c.want)
		}
	}
	for _, bad := range []string{
		"x", "-0.1", "0", "0.002:1.5", "0.002:0", "0.002:0.9:-1",
		"0.002:0.9:4:x", "0.002:0.9:10:5", "1:2:3:4:5",
	} {
		if _, err := TargetCI(bad); err == nil {
			t.Errorf("TargetCI(%q) accepted", bad)
		}
	}
}
