package driver

import (
	"context"
	"errors"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/engine"
	"repro/internal/units"
)

// freshRun is the fresh-build reference: one single-use arena, run once.
func freshRun(t *testing.T, cfg engine.Config) engine.Result {
	t.Helper()
	a, err := engine.NewArena(cfg)
	if err != nil {
		t.Fatalf("NewArena(%s): %v", cfg.Strategy.Name(), err)
	}
	res, err := a.Run(cfg.Seed)
	if err != nil {
		t.Fatalf("Run(%s): %v", cfg.Strategy.Name(), err)
	}
	return res
}

// checkNoGoroutineLeak waits for the goroutine count to settle back to
// the pre-experiment level: a cancelled campaign must drain its workers
// and dispatcher, not abandon them.
func checkNoGoroutineLeak(t *testing.T, before int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			n := runtime.Stack(buf, true)
			t.Fatalf("goroutine leak: %d running, %d before experiment\n%s",
				runtime.NumGoroutine(), before, buf[:n])
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestSessionCancelMonteCarlo pins the cancellation contract: cancelling
// mid-experiment returns ctx.Err() promptly (a 10k-replicate experiment
// ends after a handful of runs), the results delivered before the
// cancellation form an exact in-order prefix, and no goroutine leaks.
func TestSessionCancelMonteCarlo(t *testing.T) {
	before := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	const cancelAfter = 5
	var delivered []int
	s := NewSession(
		WithWorkers(4),
		WithOnResult(func(i int, r engine.Result) {
			delivered = append(delivered, i)
			if len(delivered) == cancelAfter {
				cancel()
			}
		}),
	)
	_, err := s.MonteCarlo(ctx, tinyConfig(engine.OrderedNBDaly(), 3), 10_000)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled MonteCarlo returned %v, want context.Canceled", err)
	}
	// The delivery loop observes the cancellation before the next
	// delivery, so the prefix is exact: runs 0..cancelAfter-1, in order.
	if len(delivered) != cancelAfter {
		t.Fatalf("delivered %d results after cancellation, want exactly %d", len(delivered), cancelAfter)
	}
	for i, d := range delivered {
		if d != i {
			t.Fatalf("delivery order %v is not the in-order prefix", delivered)
		}
	}
	checkNoGoroutineLeak(t, before)
}

// TestSessionCancelSweep: cancelling between grid points stops the pull
// iterator at the next point, errf reports ctx.Err() wrapped with the
// aborted point, and the workers drain.
func TestSessionCancelSweep(t *testing.T) {
	before := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	s := NewSession(WithWorkers(2))
	points, errf := s.Sweep(ctx, tinyConfig(engine.OrderedDaly(), 5), SweepGrid{Strategies: engine.AllStrategies()}, 3)
	seen := 0
	for range points {
		seen++
		if seen == 2 {
			cancel()
		}
	}
	if seen != 2 {
		t.Fatalf("iterator yielded %d points after cancellation, want 2", seen)
	}
	err := errf()
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled Sweep error = %v, want context.Canceled", err)
	}
	if !strings.Contains(err.Error(), "sweep point 2") {
		t.Errorf("error %q does not name the aborted point", err)
	}
	checkNoGoroutineLeak(t, before)
}

// TestSessionDeadline: an expiring deadline mid-experiment surfaces
// context.DeadlineExceeded through the same path as an explicit cancel.
func TestSessionDeadline(t *testing.T) {
	before := runtime.NumGoroutine()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()

	s := NewSession(WithWorkers(2))
	_, err := s.MonteCarlo(ctx, tinyConfig(engine.LeastWaste(), 1), 100_000)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("deadline MonteCarlo returned %v, want context.DeadlineExceeded", err)
	}
	checkNoGoroutineLeak(t, before)
}

// TestSessionSweepEarlyBreak: breaking out of the range loop stops the
// remaining grid without an error — the pull-iterator contract.
func TestSessionSweepEarlyBreak(t *testing.T) {
	before := runtime.NumGoroutine()
	s := NewSession(WithWorkers(2))
	points, errf := s.Sweep(context.Background(), tinyConfig(engine.OrderedNBDaly(), 9),
		SweepGrid{Strategies: engine.AllStrategies()}, 2)
	seen := 0
	for range points {
		seen++
		if seen == 3 {
			break
		}
	}
	if seen != 3 {
		t.Fatalf("iterator yielded %d points, want 3 before break", seen)
	}
	if err := errf(); err != nil {
		t.Fatalf("early break reported error %v", err)
	}
	checkNoGoroutineLeak(t, before)
}

// TestSessionMonteCarloBitIdentity pins every registered strategy: a
// Session.MonteCarlo on the grid coordinator equals the sequential
// reference (fresh arenas, run order) byte for byte, and a second call on
// the same warm session (reusing the arenas) stays identical.
func TestSessionMonteCarloBitIdentity(t *testing.T) {
	ctx := context.Background()
	for _, strat := range engine.AllStrategies() {
		t.Run(strat.Name(), func(t *testing.T) {
			cfg := tinyConfig(strat, 23)
			s := batchSession(2)
			want := referenceMonteCarlo(t, cfg, 4, MCOptions{KeepResults: true, KeepWasteRatios: true})
			got, err := s.MonteCarlo(ctx, cfg, 4)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(want, got) {
				t.Fatalf("Session diverged from the sequential reference:\n reference %+v\n session   %+v", want, got)
			}
			again, err := s.MonteCarlo(ctx, cfg, 4)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(want, again) {
				t.Fatalf("warm-session rerun diverged:\n reference %+v\n again     %+v", want, again)
			}
		})
	}
}

// TestSessionRunShimBitIdentity: Session.Run equals a fresh-build run
// for every registered strategy, including after the session arena has
// been dirtied by a different scenario.
func TestSessionRunShimBitIdentity(t *testing.T) {
	ctx := context.Background()
	s := NewSession()
	for _, strat := range engine.AllStrategies() {
		cfg := tinyConfig(strat, 31)
		fresh := freshRun(t, cfg)
		// The session arena carries the previous strategy's scenario;
		// Run must reconfigure it and still match a fresh build.
		got, err := s.Run(ctx, cfg)
		if err != nil {
			t.Fatalf("%s: %v", strat.Name(), err)
		}
		if !reflect.DeepEqual(fresh, got) {
			t.Fatalf("%s: Session.Run diverged from Run:\n fresh   %+v\n session %+v", strat.Name(), fresh, got)
		}
	}
}

// TestSessionCampaignArenaReuse chains heterogeneous experiments through
// one session — Run, MonteCarlo, a grid sweep, then MonteCarlo on the
// first scenario again — and pins each stage against an independent
// fresh evaluation: the warm pool must be reconfigured, never leak state.
func TestSessionCampaignArenaReuse(t *testing.T) {
	ctx := context.Background()
	s := NewSession(WithWorkers(2), WithKeepWasteRatios(true))

	cfgA := tinyConfig(engine.LeastWaste(), 61)
	cfgB := tinyConfig(engine.OrderedFixed(), 61)
	cfgB.Platform.BandwidthBps = units.GBps(0.25)
	cfgB.Platform.NodeMTBFSeconds = units.Years(0.5)

	wantRun := freshRun(t, cfgB)
	gotRun, err := s.Run(ctx, cfgB)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(wantRun, gotRun) {
		t.Fatal("campaign stage 1 (Run) diverged from fresh evaluation")
	}

	fresh := func(cfg engine.Config, runs int) (MCResult, error) {
		return NewSession(WithWorkers(2), WithKeepWasteRatios(true)).MonteCarlo(ctx, cfg, runs)
	}
	wantMC, err := fresh(cfgA, 3)
	if err != nil {
		t.Fatal(err)
	}
	gotMC, err := s.MonteCarlo(ctx, cfgA, 3)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(wantMC, gotMC) {
		t.Fatal("campaign stage 2 (MonteCarlo) diverged from fresh evaluation")
	}

	grid := SweepGrid{Strategies: []engine.Strategy{engine.OrderedNBDaly(), engine.RandomDaly()}}
	points, errf := s.Sweep(ctx, cfgB, grid, 2)
	for pt, mc := range points {
		cfg := pt.Apply(cfgB)
		want, err := fresh(cfg, 2)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(want, mc) {
			t.Fatalf("campaign stage 3 (Sweep point %d) diverged from fresh evaluation", pt.Index)
		}
	}
	if err := errf(); err != nil {
		t.Fatal(err)
	}

	gotAgain, err := s.MonteCarlo(ctx, cfgA, 3)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(wantMC, gotAgain) {
		t.Fatal("campaign stage 4 (MonteCarlo revisit) diverged after the pool served other scenarios")
	}
}

// TestSessionProgress: WithProgress observes every replicate of a
// campaign — monotone (done, total) pairs ending at completion, with
// Sweep totals spanning the whole grid.
func TestSessionProgress(t *testing.T) {
	var dones []int
	var lastTotal int
	s := NewSession(WithWorkers(2), WithProgress(func(done, total int) {
		dones = append(dones, done)
		lastTotal = total
	}))
	ctx := context.Background()

	if _, err := s.MonteCarlo(ctx, tinyConfig(engine.OrderedNBDaly(), 7), 5); err != nil {
		t.Fatal(err)
	}
	if len(dones) != 5 || dones[len(dones)-1] != 5 || lastTotal != 5 {
		t.Fatalf("MonteCarlo progress = %v (total %d), want 1..5 of 5", dones, lastTotal)
	}
	for i, d := range dones {
		if d != i+1 {
			t.Fatalf("progress not monotone per run: %v", dones)
		}
	}

	dones = nil
	grid := SweepGrid{Strategies: []engine.Strategy{engine.OrderedDaly(), engine.LeastWaste(), engine.RandomDaly()}}
	points, errf := s.Sweep(ctx, tinyConfig(engine.Strategy{}, 7), grid, 2)
	for range points {
	}
	if err := errf(); err != nil {
		t.Fatal(err)
	}
	if len(dones) != 6 || dones[len(dones)-1] != 6 || lastTotal != 6 {
		t.Fatalf("Sweep progress = %v (total %d), want 1..6 of 6", dones, lastTotal)
	}

	// Compare, and a Sweep whose points stop before their budget: done
	// strictly increases and never exceeds the total.
	type report struct{ done, total int }
	var reports []report
	record := WithProgress(func(done, total int) { reports = append(reports, report{done, total}) })
	checkReports := func(name string) {
		t.Helper()
		if len(reports) == 0 {
			t.Fatalf("%s reported no progress", name)
		}
		for k, r := range reports {
			if r.done > r.total || (k > 0 && r.done <= reports[k-1].done) {
				t.Fatalf("%s progress %v: done must strictly increase and stay within total", name, reports)
			}
		}
		reports = nil
	}
	if _, err := NewSession(WithWorkers(2), record).Compare(ctx, tinyConfig(engine.Strategy{}, 7), grid.Strategies, 3); err != nil {
		t.Fatal(err)
	}
	if len(reports) != 9 || reports[8] != (report{9, 9}) {
		t.Fatalf("Compare progress = %v, want 1..9 of 9", reports)
	}
	checkReports("Compare")

	stopping := NewSession(WithWorkers(2), WithTargetCI(10, 0, 2, 0), record)
	points, errf = stopping.Sweep(ctx, tinyConfig(engine.Strategy{}, 7), grid, 6)
	used := 0
	for _, mc := range points {
		used += mc.RunsUsed
	}
	if err := errf(); err != nil {
		t.Fatal(err)
	}
	if used != 6 || len(reports) != used {
		t.Fatalf("target-CI Sweep folded %d replicates with %d reports, want 6 of each", used, len(reports))
	}
	checkReports("target-CI Sweep")
}

// TestSessionResumeProgress pins the progress contract the campaign
// runner builds on: a point resumed from a snapshot folding f
// replicates reports done = f+1 … total, once per replicate, in order.
func TestSessionResumeProgress(t *testing.T) {
	ctx := context.Background()
	cfg := tinyConfig(engine.OrderedNBDaly(), 5)
	const runs, f = 8, 3
	var snap MCSnapshot
	if _, err := sweepOne(ctx, NewSession(WithWorkers(2)), GridPoint{
		Config: cfg,
		OnSnapshot: func(s MCSnapshot) {
			if s.Folded == f {
				snap = s
			}
		},
	}, runs); err != nil {
		t.Fatal(err)
	}
	var dones []int
	s := NewSession(WithWorkers(2), WithProgress(func(done, total int) {
		if total != runs {
			t.Errorf("resumed progress total %d, want %d", total, runs)
		}
		dones = append(dones, done)
	}))
	if _, err := sweepOne(ctx, s, GridPoint{Config: cfg, Resume: &snap}, runs); err != nil {
		t.Fatal(err)
	}
	if want := []int{4, 5, 6, 7, 8}; !reflect.DeepEqual(dones, want) {
		t.Fatalf("resumed progress = %v, want %v", dones, want)
	}
}

// TestSessionInvalidConfigRejectedUpfront: a bad configuration surfaces
// as one clean Config.Validate error before any worker goroutine spawns —
// not wrapped in worker-attribution context, and with every offending
// field reported at once.
func TestSessionInvalidConfigRejectedUpfront(t *testing.T) {
	bad := tinyConfig(engine.OrderedDaly(), 1)
	bad.Platform.Nodes = 0
	bad.Platform.NodeMTBFSeconds = -1
	bad.Channels = -2
	_, err := NewSession(WithWorkers(2)).MonteCarlo(context.Background(), bad, 4)
	if err == nil {
		t.Fatal("invalid config accepted")
	}
	if strings.Contains(err.Error(), "worker ") {
		t.Fatalf("validation error %q reached a worker", err)
	}
	for _, want := range []string{"node count", "node MTBF", "channel count"} {
		if !strings.Contains(err.Error(), want) {
			t.Fatalf("joined validation error %q misses the %s field", err, want)
		}
	}
}

// TestSessionRunsValidation: the replication-count validation lives in
// one place and still guards every entry point.
func TestSessionRunsValidation(t *testing.T) {
	ctx := context.Background()
	cfg := tinyConfig(engine.OrderedDaly(), 1)
	s := NewSession()
	if _, err := s.MonteCarlo(ctx, cfg, 0); err == nil {
		t.Fatal("Session.MonteCarlo accepted zero runs")
	}
	if _, err := NewSession(WithWorkers(1)).MonteCarlo(ctx, cfg, -3); err == nil {
		t.Fatal("Session.MonteCarlo accepted negative runs")
	}
	points, errf := s.Sweep(ctx, cfg, SweepGrid{}, 0)
	for range points {
		t.Fatal("zero-run sweep yielded a point")
	}
	if errf() == nil {
		t.Fatal("Session.Sweep accepted zero runs")
	}
}

// TestSessionPreCancelledContext: an already-done context fails fast on
// every method without starting any simulation.
func TestSessionPreCancelledContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	s := NewSession()
	cfg := tinyConfig(engine.LeastWaste(), 2)
	if _, err := s.Run(ctx, cfg); !errors.Is(err, context.Canceled) {
		t.Fatalf("Run on cancelled ctx: %v", err)
	}
	if _, err := s.MonteCarlo(ctx, cfg, 3); !errors.Is(err, context.Canceled) {
		t.Fatalf("MonteCarlo on cancelled ctx: %v", err)
	}
	if _, err := s.Compare(ctx, cfg, engine.AllStrategies()[:2], 3); !errors.Is(err, context.Canceled) {
		t.Fatalf("Compare on cancelled ctx: %v", err)
	}
	if _, err := s.MinBandwidth(ctx, cfg, 0.6, 1e9, 1e12, 2, 3); !errors.Is(err, context.Canceled) {
		t.Fatalf("MinBandwidth on cancelled ctx: %v", err)
	}
}

// batchSession is a Session that materialises every run: per-run Results
// and waste ratios, with the exact sorted Summary.
func batchSession(workers int) *Session {
	return NewSession(WithWorkers(workers), WithKeepResults(true), WithKeepWasteRatios(true))
}

func TestMonteCarlo(t *testing.T) {
	ctx := context.Background()
	cfg := tinyConfig(engine.OrderedNBDaly(), 41)
	mc, err := batchSession(2).MonteCarlo(ctx, cfg, 6)
	if err != nil {
		t.Fatalf("MonteCarlo: %v", err)
	}
	if mc.Summary.N != 6 || len(mc.WasteRatios) != 6 {
		t.Fatalf("summary over %d runs, want 6", mc.Summary.N)
	}
	if mc.Summary.Mean <= 0 || mc.Summary.Mean >= 1 {
		t.Fatalf("mean waste %v implausible", mc.Summary.Mean)
	}
	// Replication must be deterministic and prefix-stable: run i is the
	// same regardless of total run count.
	mc2, err := batchSession(1).MonteCarlo(ctx, cfg, 3)
	if err != nil {
		t.Fatalf("MonteCarlo: %v", err)
	}
	for i := 0; i < 3; i++ {
		if mc.WasteRatios[i] != mc2.WasteRatios[i] {
			t.Fatalf("run %d not prefix-stable: %v vs %v", i, mc.WasteRatios[i], mc2.WasteRatios[i])
		}
	}
	if _, err := batchSession(1).MonteCarlo(ctx, cfg, 0); err == nil {
		t.Error("zero runs accepted")
	}
}

func TestCompareStrategies(t *testing.T) {
	cfg := tinyConfig(engine.OrderedDaly(), 43)
	strats := []engine.Strategy{engine.ObliviousDaly(), engine.LeastWaste()}
	out, err := batchSession(2).Compare(context.Background(), cfg, strats, 3)
	if err != nil {
		t.Fatalf("Compare: %v", err)
	}
	if len(out) != 2 || out[0].Strategy != "Oblivious-Daly" || out[1].Strategy != "Least-Waste" {
		t.Fatalf("unexpected output: %+v", out)
	}
}

func TestMinBandwidthForEfficiency(t *testing.T) {
	if testing.Short() {
		t.Skip("bisection search in -short mode")
	}
	cfg := tinyConfig(engine.OrderedNBDaly(), 47)
	cfg.HorizonDays = 4
	cfg.Gen.MinDays = 4
	ctx := context.Background()
	s := NewSession(WithWorkers(2))
	lo, hi := units.GBps(0.05), units.GBps(50)
	bw, err := s.MinBandwidth(ctx, cfg, 0.6, lo, hi, 2, 8)
	if err != nil {
		t.Fatalf("MinBandwidth: %v", err)
	}
	if bw < lo || bw > hi {
		t.Fatalf("returned bandwidth %v outside bracket", bw)
	}
	// The mean waste at the found bandwidth must meet the target.
	check := cfg
	check.Platform.BandwidthBps = bw
	mc, err := batchSession(2).MonteCarlo(ctx, check, 2)
	if err != nil {
		t.Fatal(err)
	}
	if mc.Summary.Mean > 0.4+1e-9 {
		t.Fatalf("waste %v at returned bandwidth exceeds target 0.4", mc.Summary.Mean)
	}
	if _, err := s.MinBandwidth(ctx, cfg, 1.5, lo, hi, 1, 4); err == nil {
		t.Error("invalid target accepted")
	}
	if _, err := s.MinBandwidth(ctx, cfg, 0.8, hi, lo, 1, 4); err == nil {
		t.Error("inverted bracket accepted")
	}
}
