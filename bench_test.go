// Benchmarks regenerating the paper's evaluation artefacts (one per table
// and figure, §6) plus ablations of the design choices called out in
// DESIGN.md. Each figure bench exercises exactly the code path of the
// corresponding cmd/paperfigs command at a reduced Monte-Carlo replication
// (the printed rows come from the same API); wall-clock comparisons
// between strategies, not absolute paper numbers, are the point.
//
//	go test -bench=. -benchmem
package repro_test

import (
	"context"
	"fmt"
	"runtime"
	"testing"

	"repro"
	"repro/internal/resultcache"
	"repro/internal/rng"
	"repro/internal/workload"
)

// benchGen keeps figure benchmarks tractable under `go test -bench`.
const (
	benchDays = 20
	benchRuns = 2
)

// runFreshBench simulates cfg once on a freshly built arena: the build is
// part of what the single-run benchmarks measure.
func runFreshBench(cfg repro.Config) (repro.Result, error) {
	a, err := repro.NewArena(cfg)
	if err != nil {
		return repro.Result{}, err
	}
	return a.Run(cfg.Seed)
}

func benchConfig(p repro.Platform, strat repro.Strategy) repro.Config {
	return repro.Config{
		Platform:    p,
		Classes:     repro.APEXClasses(),
		Strategy:    strat,
		Seed:        1,
		HorizonDays: benchDays,
	}
}

// BenchmarkTable1WorkloadGeneration regenerates Table 1's workload: APEX
// class instantiation on Cielo and the §5 randomized 60-day job list.
func BenchmarkTable1WorkloadGeneration(b *testing.B) {
	p := repro.Cielo(160, 2)
	classes := repro.APEXClasses()
	params, err := repro.InstantiateClasses(p, classes)
	if err != nil {
		b.Fatal(err)
	}
	r := rng.New(1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		jobs, err := workload.Generate(r, p, params, workload.DefaultGenConfig())
		if err != nil {
			b.Fatal(err)
		}
		if len(jobs) == 0 {
			b.Fatal("no jobs")
		}
	}
}

// BenchmarkFigure1WasteVsBandwidth regenerates one Figure 1 sweep point
// per sub-benchmark: all seven strategies at the given bandwidth on Cielo
// with a 2-year node MTBF.
func BenchmarkFigure1WasteVsBandwidth(b *testing.B) {
	for _, bw := range []float64{40, 100, 160} {
		b.Run(fmt.Sprintf("bw=%vGBps", bw), func(b *testing.B) {
			session := repro.NewSession(repro.WithKeepWasteRatios(true))
			base := benchConfig(repro.Cielo(bw, 2), repro.Strategy{})
			for i := 0; i < b.N; i++ {
				if _, err := session.Compare(context.Background(), base, repro.LegendStrategies(), benchRuns); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkFigure2WasteVsMTBF regenerates one Figure 2 sweep point per
// sub-benchmark: all seven strategies at 40 GB/s for the given node MTBF.
func BenchmarkFigure2WasteVsMTBF(b *testing.B) {
	for _, years := range []float64{2, 10, 50} {
		b.Run(fmt.Sprintf("mtbf=%vy", years), func(b *testing.B) {
			session := repro.NewSession(repro.WithKeepWasteRatios(true))
			base := benchConfig(repro.Cielo(40, years), repro.Strategy{})
			for i := 0; i < b.N; i++ {
				if _, err := session.Compare(context.Background(), base, repro.LegendStrategies(), benchRuns); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkFigure3MinBandwidth regenerates one Figure 3 point: the
// bisection for the minimum bandwidth sustaining 80% efficiency on the
// prospective system (one representative strategy per sub-benchmark; the
// full figure loops this over all seven).
func BenchmarkFigure3MinBandwidth(b *testing.B) {
	for _, strat := range []repro.Strategy{repro.OrderedNBDaly(), repro.LeastWaste()} {
		b.Run(strat.Name(), func(b *testing.B) {
			session := repro.NewSession()
			cfg := benchConfig(repro.Prospective(1000, 15), strat)
			for i := 0; i < b.N; i++ {
				if _, err := session.MinBandwidth(context.Background(), cfg, 0.8, 50e9, 400e12, benchRuns, 6); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkFigure3TheoryMinBandwidth regenerates Figure 3's theory series
// point: Theorem 1 bisection over bandwidth.
func BenchmarkFigure3TheoryMinBandwidth(b *testing.B) {
	p := repro.Prospective(1000, 15)
	classes := repro.APEXClasses()
	for i := 0; i < b.N; i++ {
		if _, err := repro.LowerBoundMinBandwidth(p, classes, 0.2, 50e9, 400e12); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkLowerBound measures the Theorem 1 solver itself (the constrained
// case exercises the λ bisection).
func BenchmarkLowerBound(b *testing.B) {
	p := repro.Cielo(40, 2)
	classes := repro.APEXClasses()
	for i := 0; i < b.N; i++ {
		sol, err := repro.LowerBound(p, classes)
		if err != nil {
			b.Fatal(err)
		}
		if !sol.Constrained {
			b.Fatal("expected constrained solution at 40 GB/s")
		}
	}
}

// BenchmarkEngine measures the standard scenario — one full 60-day
// Ordered-NB-Daly simulation on Cielo at 40 GB/s with a 2-year node MTBF —
// and reports events/sec alongside the allocation profile. This is the
// canonical perf-trajectory benchmark recorded in BENCH_*.json across PRs.
func BenchmarkEngine(b *testing.B) {
	cfg := benchConfig(repro.Cielo(40, 2), repro.OrderedNBDaly())
	cfg.HorizonDays = 60
	var events uint64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cfg.Seed = uint64(i)
		res, err := runFreshBench(cfg)
		if err != nil {
			b.Fatal(err)
		}
		events += res.Events
	}
	b.ReportMetric(float64(events)/b.Elapsed().Seconds(), "events/sec")
}

// BenchmarkLargeHorizon measures the event core across horizons: the
// standard 60-day scenario, one- and five-year segments, and a
// cancel-heavy 60-day scenario (3-month node MTBF under Least-Waste, where
// most scheduled events are cancelled or re-armed before they fire) —
// each on a warm arena, reporting events/sec.
func BenchmarkLargeHorizon(b *testing.B) {
	scenarios := []struct {
		name  string
		days  float64
		mtbfY float64
		strat repro.Strategy
		long  bool // skipped under -short to keep the CI smoke quick
	}{
		{"cielo-60d", 60, 2, repro.OrderedNBDaly(), false},
		{"cielo-1y", 365, 2, repro.OrderedNBDaly(), false},
		{"cielo-5y", 5 * 365, 2, repro.OrderedNBDaly(), true},
		{"cancel-heavy-60d", 60, 0.25, repro.LeastWaste(), false},
	}
	for _, sc := range scenarios {
		b.Run(sc.name, func(b *testing.B) {
			if sc.long && testing.Short() {
				b.Skip("multi-year horizon skipped in -short mode")
			}
			cfg := benchConfig(repro.Cielo(40, sc.mtbfY), sc.strat)
			cfg.HorizonDays = sc.days
			arena, err := repro.NewArena(cfg)
			if err != nil {
				b.Fatal(err)
			}
			res, err := arena.Run(1) // warm the pools outside the timer
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := arena.Run(1); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(res.Events)*float64(b.N)/b.Elapsed().Seconds(), "events/sec")
		})
	}
}

// BenchmarkMonteCarlo measures Monte-Carlo replicate throughput on the
// standard scenario — the per-replicate unit of every figure sweep —
// comparing the reused-arena path (build once, re-seed per replicate; the
// path the Monte-Carlo drivers use, one arena per worker) against a fresh
// simulation build per replicate. Both run sequentially so the numbers are
// per-core replicate rates. Recorded in BENCH_*.json across PRs.
func BenchmarkMonteCarlo(b *testing.B) {
	cfg := benchConfig(repro.Cielo(40, 2), repro.OrderedNBDaly())
	cfg.HorizonDays = 60
	b.Run("arena", func(b *testing.B) {
		arena, err := repro.NewArena(cfg)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := arena.Run(uint64(i)); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "replicates/sec")
	})
	b.Run("fresh", func(b *testing.B) {
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			c := cfg
			c.Seed = uint64(i)
			if _, err := runFreshBench(c); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "replicates/sec")
	})
}

// BenchmarkSessionReuse measures what the Session redesign is for: one
// warm Session pulling a whole scenario grid (its per-worker arenas
// reconfigured per point) against a fresh pool per sweep — the cost
// chained per-call entry points paid before sessions. Single worker, so
// the numbers are per-core grid rates. Recorded in BENCH_*.json.
func BenchmarkSessionReuse(b *testing.B) {
	ctx := context.Background()
	base := benchConfig(repro.Cielo(40, 2), repro.OrderedNBDaly())
	grid := repro.SweepGrid{
		BandwidthsBps: []float64{40e9, 80e9, 160e9},
		Strategies:    []repro.Strategy{repro.OrderedNBDaly(), repro.LeastWaste()},
	}
	sweepOnce := func(b *testing.B, session *repro.Session) {
		points, errf := session.Sweep(ctx, base, grid, benchRuns)
		for range points {
		}
		if err := errf(); err != nil {
			b.Fatal(err)
		}
	}
	b.Run("warm-session", func(b *testing.B) {
		session := repro.NewSession(repro.WithWorkers(1))
		sweepOnce(b, session) // populate the pool outside the timer
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			sweepOnce(b, session)
		}
	})
	b.Run("per-call", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			sweepOnce(b, repro.NewSession(repro.WithWorkers(1)))
		}
	})
}

// BenchmarkSweepGrid measures the grid coordinator across worker counts
// on a strategy-heavy grid — every registered strategy times token
// channels {1, 2} under sequential stopping, the workload the
// work-stealing dispatch exists for — and against a warm result cache.
// All variants produce bit-identical results (pinned against the
// sequential reference by TestSweepGridBitIdentity); wall-clock and the
// cache hit rate are what's measured.
func BenchmarkSweepGrid(b *testing.B) {
	ctx := context.Background()
	base := benchConfig(repro.Cielo(40, 2), repro.Strategy{})
	grid := repro.SweepGrid{Strategies: repro.AllStrategies(), Channels: []int{1, 2}}
	const gridRuns = 8
	sweepOnce := func(b *testing.B, session *repro.Session) {
		points, errf := session.Sweep(ctx, base, grid, gridRuns)
		for range points {
		}
		if err := errf(); err != nil {
			b.Fatal(err)
		}
	}
	variants := []struct {
		name    string
		workers int
	}{
		{"grid/w1", 1},
		{"grid/w4", 4},
		{fmt.Sprintf("grid/w%d", runtime.GOMAXPROCS(0)), 0},
	}
	for _, v := range variants {
		b.Run(v.name, func(b *testing.B) {
			session := repro.NewSession(repro.WithWorkers(v.workers), repro.WithTargetCI(0.02, 0, 4, 0))
			sweepOnce(b, session) // warm the pool outside the timer
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sweepOnce(b, session)
			}
		})
	}
	b.Run("grid/cache-warm", func(b *testing.B) {
		cache, err := resultcache.New(resultcache.Options{})
		if err != nil {
			b.Fatal(err)
		}
		session := repro.NewSession(repro.WithWorkers(0),
			repro.WithTargetCI(0.02, 0, 4, 0), repro.WithResultCache(cache))
		sweepOnce(b, session) // populate the cache outside the timer
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			sweepOnce(b, session)
		}
	})
}

// BenchmarkCompareCRN measures the variance-reduction entry points on the
// standard scenario: a paired common-random-numbers comparison of
// Least-Waste against Ordered-NB-Daly, plain vs antithetic replicates.
// The per-replicate cost must stay at BenchmarkMonteCarlo/arena rates —
// CRN pairing and the pair-average CI bookkeeping are O(1) per run.
func BenchmarkCompareCRN(b *testing.B) {
	ctx := context.Background()
	base := benchConfig(repro.Cielo(40, 2), repro.Strategy{})
	strategies := []repro.Strategy{repro.OrderedNBDaly(), repro.LeastWaste()}
	for _, anti := range []bool{false, true} {
		name := "plain"
		if anti {
			name = "antithetic"
		}
		b.Run(name, func(b *testing.B) {
			session := repro.NewSession(repro.WithWorkers(1), repro.WithAntithetic(anti))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, _, err := session.ComparePaired(ctx, base, strategies, benchRuns); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkMonteCarloStream measures the O(1)-memory replication path:
// the per-run cost of a streamed Monte-Carlo experiment, allocations
// included (the batch path would grow with b.N; this one must not).
func BenchmarkMonteCarloStream(b *testing.B) {
	cfg := benchConfig(repro.Cielo(40, 2), repro.OrderedNBDaly())
	b.ReportAllocs()
	b.ResetTimer()
	mc, err := repro.NewSession().MonteCarlo(context.Background(), cfg, b.N)
	if err != nil {
		b.Fatal(err)
	}
	if mc.Summary.N != b.N {
		b.Fatalf("streamed %d runs, want %d", mc.Summary.N, b.N)
	}
}

// BenchmarkSingleRun measures one full 60-day simulation per strategy —
// the unit of every figure above.
func BenchmarkSingleRun(b *testing.B) {
	for _, strat := range repro.AllStrategies() {
		b.Run(strat.Name(), func(b *testing.B) {
			cfg := benchConfig(repro.Cielo(40, 2), strat)
			cfg.HorizonDays = 60
			for i := 0; i < b.N; i++ {
				cfg.Seed = uint64(i)
				if _, err := runFreshBench(cfg); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationInterference compares the linear model against the
// footnote-2 adversarial model under Oblivious scheduling (design choice:
// DESIGN.md §4, S5).
func BenchmarkAblationInterference(b *testing.B) {
	models := []struct {
		name  string
		model repro.InterferenceModel
	}{
		{"linear", repro.LinearShare{}},
		{"degraded-0.9", repro.Degraded{Gamma: 0.9}},
		{"degraded-0.7", repro.Degraded{Gamma: 0.7}},
	}
	for _, m := range models {
		b.Run(m.name, func(b *testing.B) {
			cfg := benchConfig(repro.Cielo(40, 2), repro.ObliviousDaly())
			cfg.Interference = m.model
			for i := 0; i < b.N; i++ {
				cfg.Seed = uint64(i)
				if _, err := runFreshBench(cfg); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationBurstBuffer compares the §8 two-tier checkpoint path
// against direct PFS commits under the blocking FCFS discipline: none vs
// node-local NVRAM vs a resilient buffer appliance (design choice:
// DESIGN.md S16). The node-local case on a starved PFS is the trap
// documented in EXPERIMENTS.md.
func BenchmarkAblationBurstBuffer(b *testing.B) {
	configs := []struct {
		name string
		bb   *repro.BurstBuffer
	}{
		{"none", nil},
		{"node-local-cooperative", func() *repro.BurstBuffer { c := repro.DefaultBurstBuffer(); return &c }()},
		{"node-local-naive", func() *repro.BurstBuffer {
			c := repro.DefaultBurstBuffer()
			c.Period = repro.BurstBufferPeriodNaive
			return &c
		}()},
		{"resilient", func() *repro.BurstBuffer {
			c := repro.DefaultBurstBuffer()
			c.Resilient = true
			return &c
		}()},
	}
	for _, tc := range configs {
		b.Run(tc.name, func(b *testing.B) {
			cfg := benchConfig(repro.Cielo(40, 2), repro.OrderedDaly())
			cfg.BurstBuffer = tc.bb
			for i := 0; i < b.N; i++ {
				cfg.Seed = uint64(i)
				if _, err := runFreshBench(cfg); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationFailureLaw compares exponential against Weibull failure
// processes of equal mean rate (design choice: DESIGN.md §4, S4).
func BenchmarkAblationFailureLaw(b *testing.B) {
	laws := []struct {
		name  string
		model repro.FailureModel
		shape float64
	}{
		{"exponential", repro.FailuresExponential, 0},
		{"weibull-0.7", repro.FailuresWeibull, 0.7},
		{"weibull-1.5", repro.FailuresWeibull, 1.5},
	}
	for _, l := range laws {
		b.Run(l.name, func(b *testing.B) {
			cfg := benchConfig(repro.Cielo(40, 2), repro.LeastWaste())
			cfg.FailureModel = l.model
			cfg.WeibullShape = l.shape
			for i := 0; i < b.N; i++ {
				cfg.Seed = uint64(i)
				if _, err := runFreshBench(cfg); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
