package engine

import (
	"math"
	"strings"
	"testing"

	"repro/internal/ckpt"
	"repro/internal/iosched"
	"repro/internal/platform"
	"repro/internal/units"
	"repro/internal/workload"
)

// soloPlatform hosts one full-machine job class with no failures, so
// checkpoint timing can be verified exactly from traces.
func soloPlatform(bwGBps float64) platform.Platform {
	return platform.Platform{
		Name:            "solo",
		Nodes:           16,
		MemoryBytes:     1 * units.TB,
		BandwidthBps:    units.GBps(bwGBps),
		NodeMTBFSeconds: units.Years(100),
	}
}

func soloClasses() []workload.Class {
	return []workload.Class{{
		Name: "solo", Share: 1, WorkHours: 4, MachineFraction: 1.0,
		InputPctMem: 1, OutputPctMem: 1, CkptPctMem: 50,
	}}
}

// traceTimes collects the times of trace events of one kind.
func traceTimes(events []TraceEvent, kind string) []float64 {
	var out []float64
	for _, ev := range events {
		if ev.Kind == kind {
			out = append(out, ev.Time)
		}
	}
	return out
}

// With a single job class spanning the whole machine, no contention and no
// failures, the §2 arming rule is observable exactly: the first checkpoint
// request comes P after compute start, subsequent requests P−C after each
// commit, i.e. consecutive requests are exactly P apart.
func TestCheckpointArmingRuleExact(t *testing.T) {
	const fixedPeriod = 1800.0
	var events []TraceEvent
	cfg := Config{
		Platform:        soloPlatform(1),
		Classes:         soloClasses(),
		Strategy:        Strategy{Discipline: iosched.Ordered, Policy: ckpt.FixedPolicy(fixedPeriod)},
		Seed:            5,
		HorizonDays:     1.0,
		WarmupDays:      0.1,
		CooldownDays:    0.1,
		Gen:             workload.GenConfig{MinDays: 1, Buffer: 1.0, ShareTol: 0.5},
		DisableFailures: true,
		Trace:           func(ev TraceEvent) { events = append(events, ev) },
	}
	mustRun(t, cfg)
	// Only consider the first job instance's requests (job id 0), before
	// any job switch muddies the sequence.
	var requests []float64
	for _, ev := range events {
		if ev.Kind == "ckpt-request" && ev.Job == 0 {
			requests = append(requests, ev.Time)
		}
	}
	if len(requests) < 3 {
		t.Fatalf("only %d checkpoint requests traced", len(requests))
	}
	for i := 1; i < len(requests); i++ {
		gap := requests[i] - requests[i-1]
		if math.Abs(gap-fixedPeriod) > 1e-6 {
			t.Fatalf("request gap %d = %.3f, want exactly P = %.0f", i, gap, fixedPeriod)
		}
	}
	// And the checkpoint commit takes exactly C = size/bw with the device
	// to itself.
	grants := traceTimes(events, "ckpt-grant")
	commits := traceTimes(events, "ckpt-commit")
	if len(grants) == 0 || len(commits) == 0 {
		t.Fatal("no grant/commit events")
	}
	wantC := 0.5 * units.TB / units.GBps(1) // 50% of 1 TB at 1 GB/s
	if gotC := commits[0] - grants[0]; math.Abs(gotC-wantC) > 1e-6 {
		t.Fatalf("commit duration %.1f, want %.1f", gotC, wantC)
	}
}

// The Daly arming rule: with no contention, consecutive requests of the
// same job are sqrt(2µC) apart.
func TestDalyArmingRuleExact(t *testing.T) {
	var events []TraceEvent
	p := soloPlatform(1)
	// A short node MTBF keeps the Daly period (~2.8 h) well inside the
	// horizon; failures stay disabled, so only the period formula sees µ.
	p.NodeMTBFSeconds = units.Years(0.05)
	classes := soloClasses()
	classes[0].WorkHours = 20 // several Daly periods per job
	cfg := Config{
		Platform:        p,
		Classes:         classes,
		Strategy:        OrderedDaly(),
		Seed:            6,
		HorizonDays:     2,
		WarmupDays:      0.1,
		CooldownDays:    0.1,
		Gen:             workload.GenConfig{MinDays: 2, Buffer: 1.0, ShareTol: 0.5},
		DisableFailures: true,
		Trace:           func(ev TraceEvent) { events = append(events, ev) },
	}
	mustRun(t, cfg)
	wantC := 0.5 * units.TB / units.GBps(1)
	wantP := ckpt.DalyPeriod(p.NodeMTBFSeconds, p.Nodes, wantC)
	var requests []float64
	for _, ev := range events {
		if ev.Kind == "ckpt-request" && ev.Job == 0 {
			requests = append(requests, ev.Time)
		}
	}
	if len(requests) < 2 {
		t.Fatalf("only %d checkpoint requests traced (P=%.0f)", len(requests), wantP)
	}
	if gap := requests[1] - requests[0]; math.Abs(gap-wantP) > 1e-6 {
		t.Fatalf("Daly request gap %.1f, want %.1f", gap, wantP)
	}
}

// Non-blocking disciplines keep computing while the checkpoint waits for
// the token, so under contention they push at least as many jobs through
// the fixed segment as the blocking FCFS discipline (§3.3).
func TestNonBlockingThroughputAtLeastBlocking(t *testing.T) {
	completed := func(strat Strategy) int {
		cfg := Config{
			Platform:        tinyPlatform(0.2, 100), // scarce bandwidth
			Classes:         tinyClasses(),
			Strategy:        strat,
			Seed:            9,
			HorizonDays:     6,
			WarmupDays:      0.5,
			CooldownDays:    0.5,
			Gen:             workload.GenConfig{MinDays: 6, Buffer: 1.2, ShareTol: 0.05},
			DisableFailures: true,
		}
		res := mustRun(t, cfg)
		if res.JobsCompleted == 0 {
			t.Fatal("no jobs completed")
		}
		return res.JobsCompleted
	}
	blocking := completed(OrderedFixed())
	nonBlocking := completed(OrderedNBFixed())
	if nonBlocking < blocking {
		t.Fatalf("non-blocking completed %d jobs, blocking %d", nonBlocking, blocking)
	}
}

// On the real Cielo configuration the workload keeps the machine nearly
// full through the measurement window (§2 aims for ≥98%; fragmentation
// under failures costs a few percent).
func TestCieloUtilizationStaysHigh(t *testing.T) {
	if testing.Short() {
		t.Skip("full Cielo run in -short mode")
	}
	cfg := Config{
		Platform: platform.Cielo(40, 2),
		Classes:  workload.APEXClasses(),
		Strategy: LeastWaste(),
		Seed:     3,
	}
	res := mustRun(t, cfg)
	if res.Utilization < 0.90 {
		t.Fatalf("Cielo utilization %.3f below 0.90", res.Utilization)
	}
}

// Failure restarts resume from the last durable checkpoint: with
// checkpoints enabled, the total work re-executed (lost) over a fixed
// segment must be well below the no-checkpoint run of the same seed.
func TestCheckpointsBoundLostWork(t *testing.T) {
	lost := func(disable bool) float64 {
		cfg := tinyConfig(OrderedNBDaly(), 15)
		cfg.Platform = tinyPlatform(0.5, 0.2) // frequent failures
		cfg.DisableCheckpoints = disable
		res := mustRun(t, cfg)
		return res.WasteByCategory()["lost-work"]
	}
	with := lost(false)
	without := lost(true)
	if with >= without {
		t.Fatalf("lost work with checkpoints (%.3g) not below without (%.3g)", with, without)
	}
}

// Trace attempt numbering: the first instance of a spec is attempt 1, and
// every restart increments it.
func TestTraceAttemptNumbers(t *testing.T) {
	var starts []string
	cfg := tinyConfig(OrderedDaly(), 19)
	cfg.Platform = tinyPlatform(0.5, 0.2)
	cfg.Trace = func(ev TraceEvent) {
		if ev.Kind == "job-start" {
			starts = append(starts, ev.Note)
		}
	}
	res := mustRun(t, cfg)
	if res.JobsFailed == 0 {
		t.Skip("no failures drawn; nothing to verify")
	}
	restarts := 0
	for _, note := range starts {
		if strings.Contains(note, "attempt") && !strings.HasSuffix(note, "attempt 1") {
			restarts++
		}
	}
	if restarts == 0 {
		t.Fatalf("%d failed jobs but no restart attempts traced", res.JobsFailed)
	}
}
