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

// ExampleSession_Run simulates one 20-day segment of the APEX workload
// under the cooperative Least-Waste strategy.
func ExampleSession_Run() {
	res, err := repro.NewSession().Run(context.Background(), repro.Config{
		Platform:    repro.Cielo(40, 2),
		Classes:     repro.APEXClasses(),
		Strategy:    repro.LeastWaste(),
		Seed:        1,
		HorizonDays: 20,
	})
	if err != nil {
		panic(err)
	}
	fmt.Printf("strategy: %s\n", res.Strategy)
	fmt.Printf("waste in (0,1): %v\n", res.WasteRatio > 0 && res.WasteRatio < 1)
	fmt.Printf("checkpointed: %v\n", res.Checkpoints > 0)
	// Output:
	// strategy: Least-Waste
	// waste in (0,1): true
	// checkpointed: true
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
