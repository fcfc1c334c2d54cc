// Integration tests of the public facade: everything an external user of
// the library touches, exercised end-to-end on reduced configurations.
package repro_test

import (
	"context"
	"errors"
	"math"
	"reflect"
	"testing"

	"repro"
)

// testPlatform is a fast, structurally faithful machine for facade tests.
func testPlatform(bwGBps, mtbfYears float64) repro.Platform {
	return repro.Platform{
		Name:            "facade-test",
		Nodes:           256,
		MemoryBytes:     4e12,
		BandwidthBps:    bwGBps * 1e9,
		NodeMTBFSeconds: mtbfYears * 365 * 86400,
	}
}

func testClasses() []repro.Class {
	return []repro.Class{
		{Name: "big", Share: 0.7, WorkHours: 30, MachineFraction: 0.25,
			InputPctMem: 10, OutputPctMem: 100, CkptPctMem: 150},
		{Name: "small", Share: 0.3, WorkHours: 10, MachineFraction: 0.0625,
			InputPctMem: 5, OutputPctMem: 200, CkptPctMem: 100},
	}
}

func testConfig(strat repro.Strategy) repro.Config {
	return repro.Config{
		Platform:     testPlatform(0.5, 1),
		Classes:      testClasses(),
		Strategy:     strat,
		Seed:         1,
		HorizonDays:  6,
		WarmupDays:   0.5,
		CooldownDays: 0.5,
		Gen:          repro.GenConfig{MinDays: 6, Buffer: 1.2, ShareTol: 0.05},
	}
}

// runFresh simulates cfg once on a freshly built arena.
func runFresh(cfg repro.Config) (repro.Result, error) {
	a, err := repro.NewArena(cfg)
	if err != nil {
		return repro.Result{}, err
	}
	return a.Run(cfg.Seed)
}

func TestPublicRun(t *testing.T) {
	res, err := repro.NewSession().Run(context.Background(), testConfig(repro.LeastWaste()))
	if err != nil {
		t.Fatal(err)
	}
	if res.Strategy != "Least-Waste" {
		t.Fatalf("strategy label %q", res.Strategy)
	}
	if res.WasteRatio <= 0 || res.WasteRatio >= 1 {
		t.Fatalf("waste ratio %v", res.WasteRatio)
	}
}

func TestPublicStrategyList(t *testing.T) {
	names := map[string]bool{}
	for _, s := range repro.AllStrategies() {
		names[s.Name()] = true
	}
	for _, want := range []string{
		"Oblivious-Fixed", "Oblivious-Daly", "Ordered-Fixed", "Ordered-Daly",
		"Ordered-NB-Fixed", "Ordered-NB-Daly", "Least-Waste",
		"Shortest-First-Daly", "Random-Daly", "Fair-Share",
	} {
		if !names[want] {
			t.Errorf("missing strategy %q", want)
		}
	}
	if s, ok := repro.StrategyByName("Least-Waste"); !ok || s.Name() != "Least-Waste" {
		t.Error("StrategyByName(Least-Waste) failed")
	}
	if got := repro.StrategyNames(); len(got) != len(repro.AllStrategies()) {
		t.Errorf("StrategyNames() returned %d names for %d strategies", len(got), len(repro.AllStrategies()))
	}
}

// lifoDiscipline is a custom arbiter defined entirely outside the
// library: last-come-first-served token grants, non-blocking checkpoints.
type lifoDiscipline struct{}

func (lifoDiscipline) Name() string                 { return "LIFO" }
func (lifoDiscipline) UsesToken() bool              { return true }
func (lifoDiscipline) NonBlockingCheckpoints() bool { return true }
func (lifoDiscipline) NewSelector(repro.ArbitrationScenario) repro.Selector {
	return lifoSelector{}
}
func (lifoDiscipline) StrategyLabel(policy string) string { return "LIFO-" + policy }

type lifoSelector struct{}

func (lifoSelector) Pick(_ float64, pending []*repro.Transfer) int { return len(pending) - 1 }
func (lifoSelector) Name() string                                  { return "lifo" }

// A discipline implemented and registered entirely through the public
// facade is runnable end to end — by value and by registry name — with no
// engine or CLI edits.
func TestPublicCustomDiscipline(t *testing.T) {
	// The registry is process-global with no unregister; guard so
	// -count=2 (and bench runs sharing the process) do not re-register.
	if _, registered := repro.StrategyByName("LIFO-Daly"); !registered {
		repro.RegisterStrategy("LIFO-Daly", func() repro.Strategy {
			return repro.Strategy{Discipline: lifoDiscipline{}, Policy: repro.DalyPolicy()}
		})
	}
	s, ok := repro.StrategyByName("LIFO-Daly")
	if !ok {
		t.Fatal("registered strategy not resolvable")
	}
	res, err := runFresh(testConfig(s))
	if err != nil {
		t.Fatal(err)
	}
	if res.Strategy != "LIFO-Daly" || res.Checkpoints == 0 {
		t.Fatalf("custom discipline run implausible: %+v", res)
	}
}

// The registry extensions run end to end through the public facade at a
// non-default channel count.
func TestPublicRegistryExtensionsRun(t *testing.T) {
	for _, name := range []string{"Shortest-First-Daly", "Random-Daly", "Fair-Share"} {
		s, ok := repro.StrategyByName(name)
		if !ok {
			t.Fatalf("StrategyByName(%q) failed", name)
		}
		cfg := testConfig(s)
		cfg.Channels = 2
		res, err := runFresh(cfg)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if res.Strategy != name {
			t.Errorf("%s: result labelled %q", name, res.Strategy)
		}
		if res.WasteRatio <= 0 || res.WasteRatio >= 1 || res.Checkpoints == 0 {
			t.Errorf("%s: implausible result %+v", name, res)
		}
	}
}

func TestPublicCieloAndProspective(t *testing.T) {
	c := repro.Cielo(160, 2)
	if c.Nodes != 17888 || c.BandwidthBps != 160e9 {
		t.Fatalf("Cielo config: %+v", c)
	}
	p := repro.Prospective(1000, 15)
	if p.Nodes != 50000 {
		t.Fatalf("Prospective config: %+v", p)
	}
	if math.Abs(p.SystemMTBF()/3600-2.6) > 0.05 {
		t.Fatalf("Prospective 15y system MTBF = %v h, want 2.6 h", p.SystemMTBF()/3600)
	}
}

func TestPublicAPEXClasses(t *testing.T) {
	classes := repro.APEXClasses()
	if len(classes) != 4 {
		t.Fatalf("%d APEX classes", len(classes))
	}
	params, err := repro.InstantiateClasses(repro.Cielo(160, 2), classes)
	if err != nil {
		t.Fatal(err)
	}
	if params[0].Nodes != 2048 {
		t.Fatalf("EAP nodes = %d", params[0].Nodes)
	}
}

// TestPublicSession drives a whole campaign through one facade Session:
// single run, Monte-Carlo, sweep iterator and paired comparison share the
// warm arena pool, match a fresh build and a fresh session bit for bit,
// and a cancelled context aborts with ctx.Err().
func TestPublicSession(t *testing.T) {
	ctx := context.Background()
	cfg := testConfig(repro.LeastWaste())
	session := repro.NewSession(
		repro.WithWorkers(2),
		repro.WithKeepResults(true),
		repro.WithKeepWasteRatios(true),
	)

	res, err := session.Run(ctx, cfg)
	if err != nil {
		t.Fatal(err)
	}
	freshRes, err := runFresh(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res, freshRes) {
		t.Fatal("Session.Run diverged from a fresh arena build")
	}

	mc, err := session.MonteCarlo(ctx, cfg, 4)
	if err != nil {
		t.Fatal(err)
	}
	freshMC, err := repro.NewSession(repro.WithWorkers(2), repro.WithKeepResults(true), repro.WithKeepWasteRatios(true)).
		MonteCarlo(ctx, cfg, 4)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(mc, freshMC) {
		t.Fatal("warm Session.MonteCarlo diverged from a fresh session")
	}

	grid := repro.SweepGrid{Strategies: []repro.Strategy{repro.ObliviousFixed(), repro.LeastWaste()}}
	points, errf := session.Sweep(ctx, cfg, grid, 2)
	count := 0
	for pt, mc := range points {
		if pt.Index != count {
			t.Fatalf("sweep point %d delivered with Index %d", count, pt.Index)
		}
		if mc.Summary.N != 2 {
			t.Fatalf("sweep point %d summarised %d runs", pt.Index, mc.Summary.N)
		}
		count++
	}
	if err := errf(); err != nil {
		t.Fatal(err)
	}
	if count != 2 {
		t.Fatalf("sweep yielded %d points, want 2", count)
	}

	cmp, err := session.Compare(ctx, cfg, []repro.Strategy{repro.ObliviousFixed(), repro.LeastWaste()}, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(cmp) != 2 {
		t.Fatalf("Compare returned %d results", len(cmp))
	}

	cancelled, cancel := context.WithCancel(ctx)
	cancel()
	if _, err := session.MonteCarlo(cancelled, cfg, 4); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled MonteCarlo returned %v, want context.Canceled", err)
	}
}

func TestPublicMonteCarloAndCompare(t *testing.T) {
	ctx := context.Background()
	cfg := testConfig(repro.OrderedNBDaly())
	session := repro.NewSession(repro.WithWorkers(2), repro.WithKeepResults(true), repro.WithKeepWasteRatios(true))
	mc, err := session.MonteCarlo(ctx, cfg, 4)
	if err != nil {
		t.Fatal(err)
	}
	if mc.Summary.N != 4 {
		t.Fatalf("summary N = %d", mc.Summary.N)
	}
	out, err := session.Compare(ctx, cfg, []repro.Strategy{repro.ObliviousFixed(), repro.LeastWaste()}, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 2 {
		t.Fatalf("Compare returned %d results", len(out))
	}
}

func TestPublicLowerBound(t *testing.T) {
	sol, err := repro.LowerBound(repro.Cielo(40, 2), repro.APEXClasses())
	if err != nil {
		t.Fatal(err)
	}
	if !sol.Constrained || sol.Waste <= 0 {
		t.Fatalf("unexpected solution: %+v", sol)
	}
	// Custom model input through SolveLowerBound.
	in := repro.LowerBoundInput{
		Classes: []repro.LowerBoundClass{{Name: "x", N: 1, Q: 100, C: 60, R: 60}},
		Nodes:   100,
		MuInd:   2 * 365 * 86400,
	}
	if _, err := repro.SolveLowerBound(in); err != nil {
		t.Fatal(err)
	}
}

func TestPublicMinBandwidthSearches(t *testing.T) {
	if testing.Short() {
		t.Skip("bisection searches in -short mode")
	}
	theory, err := repro.LowerBoundMinBandwidth(repro.Cielo(1, 2), repro.APEXClasses(), 0.2, 1e9, 1e14)
	if err != nil {
		t.Fatal(err)
	}
	if theory <= 0 {
		t.Fatal("non-positive theory bandwidth")
	}
	cfg := testConfig(repro.OrderedNBDaly())
	cfg.HorizonDays = 4
	cfg.Gen.MinDays = 4
	bw, err := repro.NewSession(repro.WithWorkers(2)).MinBandwidth(context.Background(), cfg, 0.6, 0.05e9, 50e9, 2, 6)
	if err != nil {
		t.Fatal(err)
	}
	if bw < 0.05e9 || bw > 50e9 {
		t.Fatalf("bandwidth %v outside bracket", bw)
	}
}

func TestPublicBurstBuffer(t *testing.T) {
	cfg := testConfig(repro.OrderedDaly())
	bb := repro.DefaultBurstBuffer()
	cfg.BurstBuffer = &bb
	res, err := runFresh(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Drains == 0 {
		t.Fatal("no drains with burst buffer enabled")
	}
}

func TestPublicExtensions(t *testing.T) {
	cfg := testConfig(repro.ObliviousDaly())
	cfg.Interference = repro.Degraded{Gamma: 0.8}
	cfg.FailureModel = repro.FailuresWeibull
	cfg.WeibullShape = 0.7
	if _, err := runFresh(cfg); err != nil {
		t.Fatal(err)
	}
}

func TestPublicSummarize(t *testing.T) {
	s := repro.Summarize([]float64{0.1, 0.2, 0.3, 0.4})
	if s.N != 4 || s.Mean != 0.25 {
		t.Fatalf("summary: %+v", s)
	}
}

func TestPublicTrace(t *testing.T) {
	cfg := testConfig(repro.LeastWaste())
	cfg.HorizonDays = 3
	cfg.Gen.MinDays = 3
	count := 0
	cfg.Trace = func(repro.TraceEvent) { count++ }
	if _, err := runFresh(cfg); err != nil {
		t.Fatal(err)
	}
	if count == 0 {
		t.Fatal("trace saw nothing")
	}
}
