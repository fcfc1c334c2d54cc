package engine

import (
	"math"
	"testing"

	"repro/internal/ckpt"
	"repro/internal/failure"
	"repro/internal/iomodel"
	"repro/internal/iosched"
	"repro/internal/platform"
	"repro/internal/units"
	"repro/internal/workload"
)

// tinyPlatform is a scaled-down machine that keeps individual test runs in
// the low milliseconds while preserving the model's structure.
func tinyPlatform(bwGBps, mtbfYears float64) platform.Platform {
	return platform.Platform{
		Name:            "tiny",
		Nodes:           256,
		MemoryBytes:     4 * units.TB,
		BandwidthBps:    units.GBps(bwGBps),
		NodeMTBFSeconds: units.Years(mtbfYears),
	}
}

// tinyClasses is a two-class workload on the tiny platform.
func tinyClasses() []workload.Class {
	return []workload.Class{
		{
			Name: "big", Share: 0.7, WorkHours: 30, MachineFraction: 0.25,
			InputPctMem: 10, OutputPctMem: 100, CkptPctMem: 150,
		},
		{
			Name: "small", Share: 0.3, WorkHours: 10, MachineFraction: 0.0625,
			InputPctMem: 5, OutputPctMem: 200, CkptPctMem: 100,
		},
	}
}

func tinyConfig(strat Strategy, seed uint64) Config {
	return Config{
		Platform:     tinyPlatform(0.5, 1),
		Classes:      tinyClasses(),
		Strategy:     strat,
		Seed:         seed,
		HorizonDays:  6,
		WarmupDays:   0.5,
		CooldownDays: 0.5,
		Gen:          workload.GenConfig{MinDays: 6, Buffer: 1.2, ShareTol: 0.05},
	}
}

// mustRun is the fresh-build path: a single-use arena, run once.
func mustRun(t *testing.T, cfg Config) Result {
	t.Helper()
	a, err := NewArena(cfg)
	if err != nil {
		t.Fatalf("NewArena(%s): %v", cfg.Strategy.Name(), err)
	}
	res, err := a.Run(cfg.Seed)
	if err != nil {
		t.Fatalf("Run(%s): %v", cfg.Strategy.Name(), err)
	}
	return res
}

func TestStrategyNames(t *testing.T) {
	// The paper's seven legend variants lead the registry, extensions
	// follow in registration order.
	want := []string{
		"Oblivious-Fixed", "Oblivious-Daly",
		"Ordered-Fixed", "Ordered-Daly",
		"Ordered-NB-Fixed", "Ordered-NB-Daly",
		"Least-Waste",
		"Shortest-First-Daly", "Random-Daly", "Fair-Share",
	}
	all := AllStrategies()
	if len(all) != len(want) {
		t.Fatalf("AllStrategies() returned %d strategies, want %d", len(all), len(want))
	}
	names := StrategyNames()
	if len(names) != len(want) {
		t.Fatalf("StrategyNames() returned %d names, want %d", len(names), len(want))
	}
	for i, s := range all {
		if s.Name() != want[i] {
			t.Errorf("strategy %d name %q, want %q", i, s.Name(), want[i])
		}
		if names[i] != want[i] {
			t.Errorf("StrategyNames()[%d] = %q, want %q", i, names[i], want[i])
		}
		got, ok := StrategyByName(want[i])
		if !ok || got.Name() != want[i] {
			t.Errorf("StrategyByName(%q) failed", want[i])
		}
	}
	if _, ok := StrategyByName("nope"); ok {
		t.Error("StrategyByName accepted an unknown name")
	}
	legend := LegendStrategies()
	if len(legend) != 7 {
		t.Fatalf("LegendStrategies() returned %d strategies, want 7", len(legend))
	}
	for i, s := range legend {
		if s.Name() != want[i] {
			t.Errorf("legend strategy %d is %q, want %q", i, s.Name(), want[i])
		}
	}
}

// The registry rejects duplicate names, empty names, and constructors
// whose strategy names itself differently.
func TestRegisterStrategyValidation(t *testing.T) {
	mustPanic := func(why string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("RegisterStrategy accepted %s", why)
			}
		}()
		f()
	}
	mustPanic("a duplicate name", func() { RegisterStrategy("Least-Waste", LeastWaste) })
	mustPanic("an empty name", func() { RegisterStrategy("", LeastWaste) })
	mustPanic("a nil constructor", func() { RegisterStrategy("X", nil) })
	mustPanic("a mismatched name", func() { RegisterStrategy("Not-Least-Waste", LeastWaste) })
}

func TestAllStrategiesRunEndToEnd(t *testing.T) {
	for _, strat := range AllStrategies() {
		res := mustRun(t, tinyConfig(strat, 7))
		if res.WasteRatio < 0 || res.WasteRatio > 1 {
			t.Errorf("%s: waste ratio %v outside [0,1]", strat.Name(), res.WasteRatio)
		}
		if res.Utilization < 0.5 || res.Utilization > 1.0001 {
			t.Errorf("%s: utilization %v implausible", strat.Name(), res.Utilization)
		}
		if res.JobsGenerated == 0 {
			t.Errorf("%s: no jobs generated", strat.Name())
		}
		if res.Checkpoints == 0 {
			t.Errorf("%s: no checkpoints committed", strat.Name())
		}
		if res.Events == 0 {
			t.Errorf("%s: no events executed", strat.Name())
		}
	}
}

func TestDeterminism(t *testing.T) {
	for _, strat := range []Strategy{ObliviousDaly(), OrderedNBDaly(), LeastWaste()} {
		a := mustRun(t, tinyConfig(strat, 42))
		b := mustRun(t, tinyConfig(strat, 42))
		if a.WasteRatio != b.WasteRatio || a.Events != b.Events ||
			a.JobsCompleted != b.JobsCompleted || a.Failures != b.Failures {
			t.Errorf("%s: same seed, different results: %+v vs %+v", strat.Name(), a, b)
		}
	}
}

func TestDifferentSeedsDiffer(t *testing.T) {
	a := mustRun(t, tinyConfig(OrderedNBDaly(), 1))
	b := mustRun(t, tinyConfig(OrderedNBDaly(), 2))
	if a.WasteRatio == b.WasteRatio && a.Events == b.Events {
		t.Error("different seeds produced bit-identical results (suspicious)")
	}
}

// Conservation: every allocated node-second inside the window is
// classified as exactly one of useful or waste.
func TestUsefulPlusWasteEqualsAllocated(t *testing.T) {
	for _, strat := range AllStrategies() {
		res := mustRun(t, tinyConfig(strat, 5))
		sum := res.UsefulNodeSeconds + res.WasteNodeSeconds
		alloc := res.Utilization * float64(tinyPlatform(0.5, 1).Nodes) * units.Days(5)
		if math.Abs(sum-alloc) > 1e-6*alloc {
			t.Errorf("%s: useful+waste %.6g != allocated %.6g", strat.Name(), sum, alloc)
		}
	}
}

// A baseline run (no failures, no checkpoints, interference-free I/O) must
// report zero waste.
func TestBaselineRunHasZeroWaste(t *testing.T) {
	cfg := tinyConfig(ObliviousDaly(), 3)
	cfg.DisableFailures = true
	cfg.DisableCheckpoints = true
	cfg.BaselineIO = true
	res := mustRun(t, cfg)
	if res.WasteRatio != 0 {
		t.Fatalf("baseline waste ratio = %v, want 0 (breakdown %v)", res.WasteRatio, res.WasteByCategory())
	}
	if res.UsefulNodeSeconds == 0 {
		t.Fatal("baseline did no useful work")
	}
	if res.Failures != 0 || res.Checkpoints != 0 {
		t.Fatalf("baseline had failures/checkpoints: %+v", res)
	}
}

// Without failures, waste reduces to CR overhead: checkpoint commits plus
// contention (wait/dilation); no recovery, lost work, or aborted I/O.
func TestNoFailureWasteIsPureCR(t *testing.T) {
	for _, strat := range []Strategy{ObliviousDaly(), OrderedDaly(), LeastWaste()} {
		cfg := tinyConfig(strat, 11)
		cfg.DisableFailures = true
		res := mustRun(t, cfg)
		for _, cat := range []string{"recovery", "lost-work", "aborted-io"} {
			if res.WasteByCategory()[cat] != 0 {
				t.Errorf("%s: failure-free run has %s waste %v", strat.Name(), cat, res.WasteByCategory()[cat])
			}
		}
		if res.WasteByCategory()["checkpoint"] == 0 {
			t.Errorf("%s: failure-free run has no checkpoint waste", strat.Name())
		}
		if res.JobsFailed != 0 {
			t.Errorf("%s: failure-free run failed jobs", strat.Name())
		}
	}
}

// Without checkpoints, failures cost full re-execution: no checkpoint or
// recovery waste, but lost work appears.
func TestNoCheckpointWasteIsLostWork(t *testing.T) {
	cfg := tinyConfig(OrderedDaly(), 13)
	cfg.DisableCheckpoints = true
	res := mustRun(t, cfg)
	if res.Checkpoints != 0 || res.WasteByCategory()["checkpoint"] != 0 {
		t.Fatalf("checkpoint-free run checkpointed: %+v", res)
	}
	if res.WasteByCategory()["recovery"] != 0 {
		t.Fatalf("checkpoint-free run recovered: %v", res.WasteByCategory()["recovery"])
	}
	if res.Failures > 0 && res.WasteByCategory()["lost-work"] == 0 {
		t.Fatal("failures occurred but no lost work recorded")
	}
}

// The headline qualitative result at scarce bandwidth: the cooperative
// strategies beat the status quo, and Least-Waste is at least as good as
// blocking FCFS (averaged over seeds to damp Monte-Carlo noise).
func TestStrategyOrderingAtLowBandwidth(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-seed comparison in -short mode")
	}
	mean := func(strat Strategy) float64 {
		sum := 0.0
		const n = 5
		for seed := uint64(0); seed < n; seed++ {
			sum += mustRun(t, tinyConfig(strat, seed)).WasteRatio
		}
		return sum / n
	}
	oblivious := mean(ObliviousFixed())
	ordered := mean(OrderedDaly())
	lw := mean(LeastWaste())
	if lw >= oblivious {
		t.Errorf("Least-Waste (%.3f) not better than Oblivious-Fixed (%.3f)", lw, oblivious)
	}
	if lw > ordered+0.02 {
		t.Errorf("Least-Waste (%.3f) clearly worse than Ordered-Daly (%.3f)", lw, ordered)
	}
}

func TestPairedBaselineRatio(t *testing.T) {
	cfg := tinyConfig(OrderedNBDaly(), 17)
	cfg.PairedBaseline = true
	res := mustRun(t, cfg)
	if res.PairedWasteRatio <= 0 {
		t.Fatalf("paired waste ratio = %v, want > 0", res.PairedWasteRatio)
	}
	// The two denominators (internal useful+waste vs baseline useful)
	// agree within the utilisation slack; the ratios must be in the same
	// ballpark.
	if res.PairedWasteRatio < 0.4*res.WasteRatio || res.PairedWasteRatio > 2.5*res.WasteRatio {
		t.Errorf("paired ratio %v wildly different from internal ratio %v", res.PairedWasteRatio, res.WasteRatio)
	}
}

func TestCustomFixedPeriodCheckpointsMoreOften(t *testing.T) {
	slow := tinyConfig(Strategy{Discipline: iosched.Ordered, Policy: ckpt.FixedPolicy(2 * units.Hour)}, 19)
	fast := tinyConfig(Strategy{Discipline: iosched.Ordered, Policy: ckpt.FixedPolicy(30 * units.Minute)}, 19)
	slow.DisableFailures = true
	fast.DisableFailures = true
	a := mustRun(t, slow)
	b := mustRun(t, fast)
	if b.Checkpoints <= a.Checkpoints {
		t.Fatalf("30-min period committed %d checkpoints vs %d for 2-hour", b.Checkpoints, a.Checkpoints)
	}
}

func TestWeibullFailureModelRuns(t *testing.T) {
	cfg := tinyConfig(OrderedNBDaly(), 23)
	cfg.FailureModel = failure.Weibull
	cfg.WeibullShape = 0.7
	res := mustRun(t, cfg)
	if res.FailureEvents == 0 {
		t.Fatal("Weibull model injected no failures")
	}
}

// The adversarial (degraded) interference model can only hurt an Oblivious
// run relative to the linear model.
func TestDegradedInterferenceIncreasesWaste(t *testing.T) {
	linear := tinyConfig(ObliviousDaly(), 29)
	degraded := linear
	degraded.Interference = iomodel.Degraded{Gamma: 0.7}
	a := mustRun(t, linear)
	b := mustRun(t, degraded)
	if b.WasteRatio < a.WasteRatio-0.01 {
		t.Fatalf("degraded interference waste %.3f below linear %.3f", b.WasteRatio, a.WasteRatio)
	}
}

func TestRegularIOPhases(t *testing.T) {
	classes := tinyClasses()
	classes[0].RegularIOPctMem = 50
	classes[0].RegularIOPhases = 4
	cfg := tinyConfig(OrderedNBDaly(), 31)
	cfg.Classes = classes
	res := mustRun(t, cfg)
	if res.JobsCompleted == 0 {
		t.Fatal("no jobs completed with regular I/O phases")
	}
	// Conservation must still hold.
	sum := res.UsefulNodeSeconds + res.WasteNodeSeconds
	alloc := res.Utilization * float64(cfg.Platform.Nodes) * units.Days(5)
	if math.Abs(sum-alloc) > 1e-6*alloc {
		t.Fatalf("conservation broken with regular I/O: %v vs %v", sum, alloc)
	}
}

func TestTraceEventsOrdered(t *testing.T) {
	var events []TraceEvent
	cfg := tinyConfig(LeastWaste(), 37)
	cfg.Trace = func(ev TraceEvent) { events = append(events, ev) }
	mustRun(t, cfg)
	if len(events) == 0 {
		t.Fatal("tracer saw nothing")
	}
	last := -1.0
	kinds := map[string]int{}
	for _, ev := range events {
		if ev.Time < last {
			t.Fatalf("trace out of order: %v after %v", ev.Time, last)
		}
		last = ev.Time
		kinds[ev.Kind]++
	}
	for _, k := range []string{"job-start", "input-done", "ckpt-request", "ckpt-commit"} {
		if kinds[k] == 0 {
			t.Errorf("no %q trace events", k)
		}
	}
}

func TestConfigValidation(t *testing.T) {
	good := tinyConfig(OrderedDaly(), 1)
	mustRun(t, good)
	cases := []struct {
		name   string
		mutate func(*Config)
	}{
		{"bad platform", func(c *Config) { c.Platform.Nodes = 0 }},
		{"bad classes", func(c *Config) { c.Classes = nil }},
		{"window", func(c *Config) { c.WarmupDays = 3; c.CooldownDays = 3 }},
		{"weibull shape", func(c *Config) { c.FailureModel = failure.Weibull; c.WeibullShape = 0 }},
	}
	for _, tc := range cases {
		cfg := tinyConfig(OrderedDaly(), 1)
		tc.mutate(&cfg)
		if _, err := NewArena(cfg); err == nil {
			t.Errorf("%s: invalid config accepted", tc.name)
		}
	}
}

// More failures (lower MTBF) must not decrease waste, averaged over seeds.
func TestWasteGrowsWithFailureRate(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-seed comparison in -short mode")
	}
	mean := func(years float64) float64 {
		sum := 0.0
		const n = 4
		for seed := uint64(0); seed < n; seed++ {
			cfg := tinyConfig(OrderedNBDaly(), seed)
			cfg.Platform = tinyPlatform(0.5, years)
			sum += mustRun(t, cfg).WasteRatio
		}
		return sum / n
	}
	unreliable := mean(0.25)
	reliable := mean(16)
	if unreliable <= reliable {
		t.Errorf("waste at 0.25y MTBF (%.3f) not above 16y MTBF (%.3f)", unreliable, reliable)
	}
}
