package driver

import (
	"context"
	"reflect"
	"testing"

	"repro/internal/engine"
	"repro/internal/platform"
	"repro/internal/stats"
	"repro/internal/workload"
)

// streamCfg is a small but non-trivial Monte-Carlo configuration.
func streamCfg() engine.Config {
	return engine.Config{
		Platform:    platform.Cielo(40, 2),
		Classes:     workload.APEXClasses(),
		Strategy:    engine.LeastWaste(),
		Seed:        42,
		HorizonDays: 20,
	}
}

// TestMonteCarloStreamMatchesBatch proves the streaming path reproduces
// the batch experiment exactly: same seeds, identical WasteRatios order,
// identical Summary, with no per-run Results retained.
func TestMonteCarloStreamMatchesBatch(t *testing.T) {
	const runs = 12
	cfg := streamCfg()

	ctx := context.Background()
	batch, err := batchSession(3).MonteCarlo(ctx, cfg, runs)
	if err != nil {
		t.Fatal(err)
	}

	var streamed []float64
	wantIdx := 0
	mc, err := NewSession(WithWorkers(3), withOnResult(func(i int, r engine.Result) {
		if i != wantIdx {
			t.Fatalf("onResult index %d, want %d (strict run order)", i, wantIdx)
		}
		wantIdx++
		streamed = append(streamed, r.WasteRatio)
	})).MonteCarlo(ctx, cfg, runs)
	if err != nil {
		t.Fatal(err)
	}
	if wantIdx != runs {
		t.Fatalf("callback fired %d times, want %d", wantIdx, runs)
	}
	if mc.Results != nil || mc.WasteRatios != nil {
		t.Fatal("streaming path retained per-run memory")
	}
	if !reflect.DeepEqual(streamed, batch.WasteRatios) {
		t.Fatalf("streamed ratios differ from batch:\n  stream %v\n  batch  %v", streamed, batch.WasteRatios)
	}
	// Rebuilding the exact summary from the streamed values must be
	// byte-identical to the batch summary.
	if got := stats.Summarize(streamed); got != batch.Summary {
		t.Fatalf("Summarize(streamed) = %+v != batch %+v", got, batch.Summary)
	}
	// Secondary aggregates come from the same ordered sums.
	if mc.MeanUtilization != batch.MeanUtilization || mc.MeanFailures != batch.MeanFailures {
		t.Fatalf("stream means (%v, %v) != batch (%v, %v)",
			mc.MeanUtilization, mc.MeanFailures, batch.MeanUtilization, batch.MeanFailures)
	}
	// Exact moments survive the online path bit-for-bit; quantiles are
	// P² estimates only beyond the accumulator's exact-sample window, so
	// at 12 runs the whole summary must match exactly.
	if mc.Summary != batch.Summary {
		t.Fatalf("stream summary %+v != batch %+v", mc.Summary, batch.Summary)
	}
}

// TestMonteCarloOptsKeepWasteRatios proves the middle path — no Result
// structs, exact sorted summary — is byte-identical to batch.
func TestMonteCarloOptsKeepWasteRatios(t *testing.T) {
	const runs = 10
	cfg := streamCfg()
	cfg.Strategy = engine.OrderedNBDaly()

	ctx := context.Background()
	batch, err := batchSession(4).MonteCarlo(ctx, cfg, runs)
	if err != nil {
		t.Fatal(err)
	}
	lean, err := NewSession(WithWorkers(4), WithKeepWasteRatios(true)).MonteCarlo(ctx, cfg, runs)
	if err != nil {
		t.Fatal(err)
	}
	if lean.Results != nil {
		t.Fatal("KeepResults=false retained Results")
	}
	if !reflect.DeepEqual(lean.WasteRatios, batch.WasteRatios) {
		t.Fatal("waste ratios differ from batch")
	}
	if lean.Summary != batch.Summary {
		t.Fatalf("summary %+v != batch %+v", lean.Summary, batch.Summary)
	}
}

// TestMonteCarloStreamLargeReplication is the 10k-replicate acceptance
// check: a KeepResults=false experiment holds no per-run Result structs,
// streams every run in order, and its statistics match the batch path —
// byte-identical Summary when rebuilt from the streamed values, and
// exact-moment/tight-quantile agreement for the fully online Summary.
// The replication count is trimmed under -short.
func TestMonteCarloStreamLargeReplication(t *testing.T) {
	runs := 10_000
	if testing.Short() {
		runs = 300
	}
	cfg := streamCfg()
	cfg.HorizonDays = 3
	cfg.Strategy = engine.OrderedDaly()

	// Batch-path reference statistics without batch-path memory: the
	// exact sorted Summary needs only the waste ratios (8 B/run here in
	// the test), never the Result structs.
	ctx := context.Background()
	exact, err := NewSession(WithKeepWasteRatios(true)).MonteCarlo(ctx, cfg, runs)
	if err != nil {
		t.Fatal(err)
	}
	collected := make([]float64, 0, runs)
	stream, err := NewSession(withOnResult(func(i int, r engine.Result) {
		collected = append(collected, r.WasteRatio)
	})).MonteCarlo(ctx, cfg, runs)
	if err != nil {
		t.Fatal(err)
	}
	if stream.Results != nil || stream.WasteRatios != nil {
		t.Fatal("streaming path retained per-run memory")
	}
	if !reflect.DeepEqual(collected, exact.WasteRatios) {
		t.Fatal("streamed ratios differ from the batch path")
	}
	// The batch Summary rebuilt from the stream is byte-identical.
	if got := stats.Summarize(collected); got != exact.Summary {
		t.Fatalf("Summarize(streamed) = %+v != batch %+v", got, exact.Summary)
	}

	if stream.Summary.N != exact.Summary.N {
		t.Fatalf("N %d != %d", stream.Summary.N, exact.Summary.N)
	}
	// The ordered-sum mean and exact extremes are bit-identical.
	if stream.Summary.Mean != exact.Summary.Mean {
		t.Errorf("stream mean %v != exact %v (must be bit-identical)", stream.Summary.Mean, exact.Summary.Mean)
	}
	if stream.Summary.Min != exact.Summary.Min || stream.Summary.Max != exact.Summary.Max {
		t.Errorf("stream extremes (%v,%v) != exact (%v,%v)",
			stream.Summary.Min, stream.Summary.Max, exact.Summary.Min, exact.Summary.Max)
	}
	if d := stream.Summary.StdDev - exact.Summary.StdDev; d > 1e-9 || d < -1e-9 {
		t.Errorf("stream stddev %v vs exact %v", stream.Summary.StdDev, exact.Summary.StdDev)
	}
	// P² quantiles: within 5% of the sample spread of the exact values
	// (short-horizon waste distributions are lumpy — discrete failure
	// counts — which is the estimator's hardest case).
	spread := exact.Summary.Max - exact.Summary.Min
	quant := func(name string, got, want float64) {
		if d := got - want; d > 0.05*spread || d < -0.05*spread {
			t.Errorf("%s: P² %v vs exact %v (spread %v)", name, got, want, spread)
		}
	}
	quant("P10", stream.Summary.P10, exact.Summary.P10)
	quant("P25", stream.Summary.P25, exact.Summary.P25)
	quant("P50", stream.Summary.P50, exact.Summary.P50)
	quant("P75", stream.Summary.P75, exact.Summary.P75)
	quant("P90", stream.Summary.P90, exact.Summary.P90)
}

// TestMonteCarloStreamErrorPropagation: an invalid configuration
// surfaces the smallest failing run index, like the batch path.
func TestMonteCarloStreamErrorPropagation(t *testing.T) {
	cfg := streamCfg()
	cfg.Platform.Nodes = 0 // invalid: every run fails
	if _, err := NewSession(WithWorkers(2)).MonteCarlo(context.Background(), cfg, 4); err == nil {
		t.Fatal("streaming Monte-Carlo swallowed the run error")
	}
}
