package repro_test

import (
	"context"
	"fmt"

	"repro"
)

// ExampleNewSession runs a small campaign through one context-aware
// Session: the Monte-Carlo experiment and the strategy comparison share
// the session's warm per-worker arenas, and cancelling the context would
// abort either at the next replicate boundary.
func ExampleNewSession() {
	ctx := context.Background()
	session := repro.NewSession(repro.WithKeepWasteRatios(true))
	cfg := repro.Config{
		Platform:    repro.Cielo(40, 2),
		Classes:     repro.APEXClasses(),
		Strategy:    repro.LeastWaste(),
		Seed:        1,
		HorizonDays: 20,
	}
	mc, err := session.MonteCarlo(ctx, cfg, 4)
	if err != nil {
		panic(err)
	}
	fmt.Printf("runs: %d\n", mc.Summary.N)
	fmt.Printf("mean waste in (0,1): %v\n", mc.Summary.Mean > 0 && mc.Summary.Mean < 1)

	results, err := session.Compare(ctx, cfg,
		[]repro.Strategy{repro.ObliviousFixed(), repro.LeastWaste()}, 2)
	if err != nil {
		panic(err)
	}
	fmt.Printf("cooperative beats oblivious: %v\n",
		results[1].Summary.Mean < results[0].Summary.Mean)
	// Output:
	// runs: 4
	// mean waste in (0,1): true
	// cooperative beats oblivious: true
}

// ExampleLowerBound solves Theorem 1 on bandwidth-starved Cielo: the Daly
// periods alone would oversubscribe the PFS, so the KKT multiplier
// activates and stretches them.
func ExampleLowerBound() {
	sol, err := repro.LowerBound(repro.Cielo(40, 2), repro.APEXClasses())
	if err != nil {
		panic(err)
	}
	fmt.Printf("constrained: %v\n", sol.Constrained)
	fmt.Printf("io fraction: %.2f\n", sol.IOFraction)
	fmt.Printf("waste bound: %.2f\n", sol.Waste)
	// Output:
	// constrained: true
	// io fraction: 1.00
	// waste bound: 0.50
}

// ExampleSession_Run simulates the LANL APEX workload on Cielo under the
// paper's Least-Waste cooperative checkpointing strategy and compares the
// measured platform waste with the status quo (Oblivious-Fixed) and the
// §4 theoretical lower bound. Both runs go through one Session, which
// reuses its simulation arenas across calls.
func ExampleSession_Run() {
	// A bandwidth-starved configuration: Cielo with a 40 GB/s parallel
	// file system and a 2-year node MTBF (~1h system MTBF).
	base := repro.Config{
		Platform: repro.Cielo(40, 2),
		Classes:  repro.APEXClasses(),
		Seed:     1,
		// A 20-day segment instead of the paper's 60 days.
		HorizonDays: 20,
	}

	ctx := context.Background()
	session := repro.NewSession()
	for _, strategy := range []repro.Strategy{repro.ObliviousFixed(), repro.LeastWaste()} {
		cfg := base
		cfg.Strategy = strategy
		res, err := session.Run(ctx, cfg)
		if err != nil {
			panic(err)
		}
		fmt.Printf("%-16s waste ratio %.3f  (completed %d jobs, %d failures, %d checkpoints)\n",
			res.Strategy, res.WasteRatio, res.JobsCompleted, res.Failures, res.Checkpoints)
	}

	sol, err := repro.LowerBound(base.Platform, base.Classes)
	if err != nil {
		panic(err)
	}
	fmt.Printf("%-16s waste ratio %.3f  (Theorem 1; λ=%.3f, I/O fraction %.2f)\n",
		"theory bound", sol.Waste, sol.Lambda, sol.IOFraction)
	// Output:
	// Oblivious-Fixed  waste ratio 0.858  (completed 2 jobs, 517 failures, 933 checkpoints)
	// Least-Waste      waste ratio 0.334  (completed 20 jobs, 517 failures, 1036 checkpoints)
	// theory bound     waste ratio 0.499  (Theorem 1; λ=0.100, I/O fraction 1.00)
}

// ExampleSession_Compare is a reduced version of the paper's Figure 1.
// For a starved (40 GB/s) and a full (160 GB/s) parallel file system it
// runs a Monte-Carlo comparison of the built-in scheduling strategies on
// the APEX workload and prints candlesticks against the theoretical
// bound, plus each strategy's waste breakdown. Both bandwidth points run
// through one Session, so the second comparison reuses the first one's
// warm simulation arenas.
//
// The strategy list is spelled out rather than taken from
// AllStrategies, which also returns strategies added by
// RegisterStrategy.
func ExampleSession_Compare() {
	const runs = 8 // the paper uses 1000
	ctx := context.Background()
	session := repro.NewSession(
		repro.WithKeepResults(true), // wasteBreakdown reads per-run results
		repro.WithKeepWasteRatios(true),
	)
	strategies := append(repro.LegendStrategies(),
		repro.ShortestFirstDaly(), repro.RandomDaly(), repro.FairShare())
	for _, bwGBps := range []float64{40, 160} {
		p := repro.Cielo(bwGBps, 2)
		fmt.Printf("=== Cielo at %.0f GB/s, node MTBF 2 years ===\n", bwGBps)
		base := repro.Config{
			Platform:    p,
			Classes:     repro.APEXClasses(),
			Seed:        7,
			HorizonDays: 30,
		}
		results, err := session.Compare(ctx, base, strategies, runs)
		if err != nil {
			panic(err)
		}
		for _, mc := range results {
			s := mc.Summary
			fmt.Printf("%-18s mean=%.3f box=[%.3f %.3f] whiskers=[%.3f %.3f]  %s\n",
				mc.Strategy, s.Mean, s.P25, s.P75, s.P10, s.P90, wasteBreakdown(mc))
		}
		sol, err := repro.LowerBound(p, base.Classes)
		if err != nil {
			panic(err)
		}
		fmt.Printf("%-18s mean=%.3f (Theorem 1 lower bound)\n\n", "Theoretical-Model", sol.Waste)
	}
	// Output:
	// === Cielo at 40 GB/s, node MTBF 2 years ===
	// Oblivious-Fixed    mean=0.872 box=[0.864 0.898] whiskers=[0.814 0.902]  [ckpt 54% wait 0% dilation 0% lost 6%]
	// Oblivious-Daly     mean=0.692 box=[0.651 0.773] whiskers=[0.583 0.778]  [ckpt 37% wait 0% dilation 0% lost 21%]
	// Ordered-Fixed      mean=0.872 box=[0.860 0.911] whiskers=[0.799 0.917]  [ckpt 9% wait 76% dilation 0% lost 6%]
	// Ordered-Daly       mean=0.652 box=[0.612 0.739] whiskers=[0.517 0.752]  [ckpt 11% wait 51% dilation 0% lost 25%]
	// Ordered-NB-Fixed   mean=0.558 box=[0.511 0.622] whiskers=[0.484 0.643]  [ckpt 15% wait 45% dilation 0% lost 25%]
	// Ordered-NB-Daly    mean=0.511 box=[0.458 0.558] whiskers=[0.436 0.595]  [ckpt 14% wait 31% dilation 0% lost 37%]
	// Least-Waste        mean=0.497 box=[0.439 0.535] whiskers=[0.417 0.588]  [ckpt 14% wait 17% dilation 0% lost 49%]
	// Shortest-First-Daly mean=0.493 box=[0.443 0.532] whiskers=[0.427 0.573]  [ckpt 15% wait 32% dilation 0% lost 36%]
	// Random-Daly        mean=0.516 box=[0.464 0.554] whiskers=[0.450 0.609]  [ckpt 14% wait 29% dilation 0% lost 39%]
	// Fair-Share         mean=0.488 box=[0.442 0.549] whiskers=[0.391 0.595]  [ckpt 14% wait 21% dilation 0% lost 46%]
	// Theoretical-Model  mean=0.499 (Theorem 1 lower bound)
	//
	// === Cielo at 160 GB/s, node MTBF 2 years ===
	// Oblivious-Fixed    mean=0.351 box=[0.294 0.399] whiskers=[0.236 0.416]  [ckpt 66% wait 0% dilation 0% lost 19%]
	// Oblivious-Daly     mean=0.278 box=[0.253 0.308] whiskers=[0.229 0.318]  [ckpt 51% wait 0% dilation 0% lost 33%]
	// Ordered-Fixed      mean=0.262 box=[0.236 0.295] whiskers=[0.208 0.323]  [ckpt 38% wait 30% dilation 0% lost 24%]
	// Ordered-Daly       mean=0.226 box=[0.204 0.249] whiskers=[0.183 0.265]  [ckpt 32% wait 22% dilation 0% lost 38%]
	// Ordered-NB-Fixed   mean=0.219 box=[0.196 0.249] whiskers=[0.166 0.253]  [ckpt 50% wait 8% dilation 0% lost 31%]
	// Ordered-NB-Daly    mean=0.194 box=[0.169 0.226] whiskers=[0.159 0.231]  [ckpt 38% wait 6% dilation 0% lost 46%]
	// Least-Waste        mean=0.194 box=[0.182 0.222] whiskers=[0.157 0.224]  [ckpt 38% wait 4% dilation 0% lost 47%]
	// Shortest-First-Daly mean=0.199 box=[0.183 0.226] whiskers=[0.157 0.232]  [ckpt 37% wait 6% dilation 0% lost 46%]
	// Random-Daly        mean=0.191 box=[0.171 0.210] whiskers=[0.158 0.226]  [ckpt 38% wait 5% dilation 0% lost 46%]
	// Fair-Share         mean=0.195 box=[0.184 0.222] whiskers=[0.158 0.227]  [ckpt 38% wait 4% dilation 0% lost 47%]
	// Theoretical-Model  mean=0.218 (Theorem 1 lower bound)
}

// wasteBreakdown renders the dominant waste categories of a strategy.
func wasteBreakdown(mc repro.MCResult) string {
	agg := map[string]float64{}
	total := 0.0
	for _, r := range mc.Results {
		for cat, v := range r.WasteByCategory() {
			agg[cat] += v
			total += v
		}
	}
	if total == 0 {
		return ""
	}
	return fmt.Sprintf("[ckpt %.0f%% wait %.0f%% dilation %.0f%% lost %.0f%%]",
		100*agg["checkpoint"]/total, 100*agg["wait"]/total,
		100*agg["dilation"]/total, 100*agg["lost-work"]/total)
}

// ExampleSession_MinBandwidth is a reduced version of the paper's
// Figure 3. For the 50 000-node / 7 PB future system it finds the minimum
// aggregated file-system bandwidth each strategy needs to sustain 80%
// platform efficiency, and compares it with the theoretical requirement
// of §4. The paper's headline: the status-quo Oblivious-Fixed strategy
// can need far more bandwidth than cooperative Least-Waste.
func ExampleSession_MinBandwidth() {
	const (
		mtbfYears = 15  // "failures are not endemic" regime of §6.2
		target    = 0.8 // 80% efficiency, the ECP-style goal
	)
	p := repro.Prospective(1000, mtbfYears)
	fmt.Printf("Prospective system: %d nodes, node MTBF %dy (system MTBF %.1f h), target efficiency %.0f%%\n",
		p.Nodes, mtbfYears, p.SystemMTBF()/3600, target*100)

	loBps, hiBps := 50e9, 400e12
	strategies := []repro.Strategy{
		repro.ObliviousFixed(),
		repro.OrderedNBFixed(),
		repro.OrderedNBDaly(),
		repro.LeastWaste(),
	}
	ctx := context.Background()
	session := repro.NewSession()
	for _, strat := range strategies {
		cfg := repro.Config{
			Platform:    p,
			Classes:     repro.APEXClasses(),
			Strategy:    strat,
			Seed:        3,
			HorizonDays: 20, // reduced from the paper's 60
		}
		bw, err := session.MinBandwidth(ctx, cfg, target, loBps, hiBps, 3, 8)
		if err != nil {
			fmt.Printf("%-18s cannot reach target below %.0f TB/s\n", strat.Name(), hiBps/1e12)
			continue
		}
		fmt.Printf("%-18s needs >= %7.2f TB/s\n", strat.Name(), bw/1e12)
	}

	theory, err := repro.LowerBoundMinBandwidth(p, repro.APEXClasses(), 1-target, loBps, hiBps)
	if err != nil {
		panic(err)
	}
	fmt.Printf("%-18s needs >= %7.2f TB/s (Theorem 1)\n", "Theoretical-Model", theory/1e12)
	// Output:
	// Prospective system: 50000 nodes, node MTBF 15y (system MTBF 2.6 h), target efficiency 80%
	// Oblivious-Fixed    needs >=    4.74 TB/s
	// Ordered-NB-Fixed   needs >=    3.17 TB/s
	// Ordered-NB-Daly    needs >=    1.61 TB/s
	// Least-Waste        needs >=    1.61 TB/s
	// Theoretical-Model  needs >=    1.70 TB/s (Theorem 1)
}

// ExampleBurstBuffer runs the paper's §8 future-work extension. It
// compares checkpointing straight to the parallel file system with a
// two-tier path (node-local NVRAM commit plus an asynchronous PFS drain)
// and with a resilient buffer appliance, on a starved and on an ample
// PFS. The resilient appliance holds waste near 0.045 at both
// bandwidths. The node-local buffer barely helps on the starved PFS
// (0.446 against 0.449 direct), where about a sixth as many drains land
// as on the ample one, and cuts waste by about a quarter on the ample PFS
// (0.142 against 0.193). At these points, under the default cooperative
// period model, the node-local buffer does no worse than direct
// checkpointing; the trap where it backfires on a starved PFS needs
// BurstBufferPeriodNaive.
func ExampleBurstBuffer() {
	const runs = 6
	ctx := context.Background()
	session := repro.NewSession(repro.WithKeepResults(true), repro.WithKeepWasteRatios(true))
	for _, scenario := range []struct {
		label     string
		bwGBps    float64
		mtbfYears float64
	}{
		{"starved PFS, frequent failures", 40, 2},
		{"ample PFS, frequent failures", 160, 2},
	} {
		fmt.Printf("=== Cielo, %s (%.0f GB/s, %gy node MTBF) ===\n",
			scenario.label, scenario.bwGBps, scenario.mtbfYears)
		base := repro.Config{
			Platform:    repro.Cielo(scenario.bwGBps, scenario.mtbfYears),
			Classes:     repro.APEXClasses(),
			Strategy:    repro.OrderedNBDaly(),
			Seed:        5,
			HorizonDays: 20,
		}

		nodeLocal := repro.DefaultBurstBuffer() // 1 GB/s per node, drains to PFS
		resilient := repro.DefaultBurstBuffer()
		resilient.Resilient = true

		for _, tier := range []struct {
			name string
			bb   *repro.BurstBuffer
		}{
			{"direct to PFS", nil},
			{"node-local NVRAM", &nodeLocal},
			{"resilient appliance", &resilient},
		} {
			cfg := base
			cfg.BurstBuffer = tier.bb
			mc, err := session.MonteCarlo(ctx, cfg, runs)
			if err != nil {
				panic(err)
			}
			drains := 0
			for _, r := range mc.Results {
				drains += r.Drains
			}
			fmt.Printf("%-20s waste mean=%.3f box=[%.3f %.3f]  (drains landed: %d)\n",
				tier.name, mc.Summary.Mean, mc.Summary.P25, mc.Summary.P75, drains/runs)
		}
		fmt.Println()
	}
	// Output:
	// === Cielo, starved PFS, frequent failures (40 GB/s, 2y node MTBF) ===
	// direct to PFS        waste mean=0.449 box=[0.355 0.533]  (drains landed: 0)
	// node-local NVRAM     waste mean=0.446 box=[0.319 0.545]  (drains landed: 622)
	// resilient appliance  waste mean=0.045 box=[0.041 0.045]  (drains landed: 1504)
	//
	// === Cielo, ample PFS, frequent failures (160 GB/s, 2y node MTBF) ===
	// direct to PFS        waste mean=0.193 box=[0.153 0.202]  (drains landed: 0)
	// node-local NVRAM     waste mean=0.142 box=[0.098 0.126]  (drains landed: 3794)
	// resilient appliance  waste mean=0.045 box=[0.041 0.044]  (drains landed: 3685)
}

// ExampleConfig uses the public API beyond the paper's exact setup. It
// defines a bespoke two-class workload on a mid-size machine, then
// explores the extensions: a Weibull (bursty) failure process, the
// adversarial Degraded interference model of footnote 2, and an
// execution trace of the cooperative scheduler's decisions.
func ExampleConfig() {
	// A 4096-node machine with 100 TB of memory and a 100 GB/s PFS.
	machine := repro.Platform{
		Name:            "custom-4k",
		Nodes:           4096,
		MemoryBytes:     100e12,
		BandwidthBps:    100e9,
		NodeMTBFSeconds: 5 * 365 * 86400,
	}
	// Two classes: a large simulation writing huge checkpoints and doing
	// periodic analysis dumps (regular I/O), and a small ensemble job.
	classes := []repro.Class{
		{
			Name: "climate", Share: 0.75, WorkHours: 96, MachineFraction: 0.5,
			InputPctMem: 20, OutputPctMem: 150, CkptPctMem: 200,
			RegularIOPctMem: 80, RegularIOPhases: 6,
		},
		{
			Name: "ensemble", Share: 0.25, WorkHours: 24, MachineFraction: 0.125,
			InputPctMem: 5, OutputPctMem: 50, CkptPctMem: 60,
		},
	}

	base := repro.Config{
		Platform:    machine,
		Classes:     classes,
		Strategy:    repro.LeastWaste(),
		Seed:        11,
		HorizonDays: 15,
	}

	// One session runs every simulation below on one warm arena.
	ctx := context.Background()
	session := repro.NewSession(repro.WithWorkers(1))

	// 1. Exponential vs Weibull failures (same mean rate, shape 0.7:
	// clustered infant failures).
	exp, err := session.Run(ctx, base)
	if err != nil {
		panic(err)
	}
	weib := base
	weib.FailureModel = repro.FailuresWeibull
	weib.WeibullShape = 0.7
	weibRes, err := session.Run(ctx, weib)
	if err != nil {
		panic(err)
	}
	fmt.Printf("failure law   exponential: waste %.3f (%d failures) | weibull(0.7): waste %.3f (%d failures)\n",
		exp.WasteRatio, exp.Failures, weibRes.WasteRatio, weibRes.Failures)

	// 2. Linear vs adversarial interference under the Oblivious
	// discipline (footnote 2's "more adversarial interference model").
	obl := base
	obl.Strategy = repro.ObliviousDaly()
	lin, err := session.Run(ctx, obl)
	if err != nil {
		panic(err)
	}
	adv := obl
	adv.Interference = repro.Degraded{Gamma: 0.8}
	advRes, err := session.Run(ctx, adv)
	if err != nil {
		panic(err)
	}
	fmt.Printf("interference  linear: waste %.3f | degraded(0.8): waste %.3f\n",
		lin.WasteRatio, advRes.WasteRatio)

	// 3. Trace the first cooperative scheduling decisions.
	traced := base
	traced.HorizonDays = 3
	count := 0
	traced.Trace = func(ev repro.TraceEvent) {
		if ev.Kind == "ckpt-grant" || ev.Kind == "ckpt-commit" {
			if count < 8 {
				fmt.Printf("trace t=%9.0fs job=%-4d class=%-8s %s\n", ev.Time, ev.Job, ev.Class, ev.Kind)
			}
			count++
		}
	}
	if _, err := session.Run(ctx, traced); err != nil {
		panic(err)
	}
	fmt.Printf("(%d checkpoint grant/commit events in 3 days)\n", count)
	// Output:
	// failure law   exponential: waste 0.114 (33 failures) | weibull(0.7): waste 0.110 (33 failures)
	// interference  linear: waste 0.114 | degraded(0.8): waste 0.117
	// trace t=     6803s job=0    class=ensemble ckpt-grant
	// trace t=     6878s job=0    class=ensemble ckpt-commit
	// trace t=     6878s job=1    class=ensemble ckpt-grant
	// trace t=     6953s job=1    class=ensemble ckpt-commit
	// trace t=     6953s job=3    class=ensemble ckpt-grant
	// trace t=     7028s job=3    class=ensemble ckpt-commit
	// trace t=     7028s job=4    class=ensemble ckpt-grant
	// trace t=     7103s job=4    class=ensemble ckpt-commit
	// (281 checkpoint grant/commit events in 3 days)
}

// ExampleStrategyByName resolves the paper's strategy labels.
func ExampleStrategyByName() {
	s, ok := repro.StrategyByName("Ordered-NB-Daly")
	fmt.Println(ok, s.Name())
	// Output: true Ordered-NB-Daly
}

// ExampleSummarize computes the paper's candlestick statistics.
func ExampleSummarize() {
	s := repro.Summarize([]float64{0.1, 0.2, 0.3, 0.4, 0.5})
	fmt.Printf("mean=%.2f median=%.2f\n", s.Mean, s.P50)
	// Output: mean=0.30 median=0.30
}
