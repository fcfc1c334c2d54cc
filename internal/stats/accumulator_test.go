package stats

import (
	"math"
	"testing"

	"repro/internal/rng"
)

// synth draws n deterministic pseudo-random samples shaped like waste
// ratios (bounded, right-skewed).
func synth(seed uint64, n int) []float64 {
	r := rng.New(seed)
	xs := make([]float64, n)
	for i := range xs {
		u := r.Float64()
		xs[i] = 0.05 + 0.4*u*u // skewed toward the low end
	}
	return xs
}

func TestAccumulatorSmallNExact(t *testing.T) {
	for _, n := range []int{1, 2, 5, 17, smallN} {
		xs := synth(uint64(n), n)
		var a Accumulator
		for _, x := range xs {
			a.Add(x)
		}
		want := Summarize(xs)
		got := a.Summary()
		if got != want {
			t.Fatalf("n=%d: accumulator summary %+v != exact %+v", n, got, want)
		}
	}
}

func TestAccumulatorExactMoments(t *testing.T) {
	xs := synth(7, 5000)
	var a Accumulator
	for _, x := range xs {
		a.Add(x)
	}
	exact := Summarize(xs)
	got := a.Summary()

	// Mean is a plain ordered sum in both paths: bit-identical.
	if got.Mean != exact.Mean {
		t.Errorf("Mean %v != exact %v (must be bit-identical)", got.Mean, exact.Mean)
	}
	if got.Min != exact.Min || got.Max != exact.Max {
		t.Errorf("Min/Max (%v,%v) != exact (%v,%v)", got.Min, got.Max, exact.Min, exact.Max)
	}
	if got.N != exact.N {
		t.Errorf("N %d != %d", got.N, exact.N)
	}
	// Welford vs two-pass agree to floating-point noise.
	if rel := math.Abs(got.StdDev-exact.StdDev) / exact.StdDev; rel > 1e-9 {
		t.Errorf("StdDev %v vs exact %v (rel err %.3g > 1e-9)", got.StdDev, exact.StdDev, rel)
	}
}

// TestAccumulatorQuantilesConverge cross-validates the P² estimates
// against the exact sorted-slice quantiles on a large sample: the paper's
// candlestick quantiles must land within a small fraction of the sample
// range.
func TestAccumulatorQuantilesConverge(t *testing.T) {
	xs := synth(11, 20000)
	var a Accumulator
	for _, x := range xs {
		a.Add(x)
	}
	exact := Summarize(xs)
	got := a.Summary()
	spread := exact.Max - exact.Min
	check := func(name string, est, ref float64) {
		if math.Abs(est-ref)/spread > 0.01 {
			t.Errorf("%s: P² %v vs exact %v (|Δ| > 1%% of range %v)", name, est, ref, spread)
		}
	}
	check("P10", got.P10, exact.P10)
	check("P25", got.P25, exact.P25)
	check("P50", got.P50, exact.P50)
	check("P75", got.P75, exact.P75)
	check("P90", got.P90, exact.P90)
}

func TestAccumulatorEmpty(t *testing.T) {
	var a Accumulator
	if s := a.Summary(); s != (Summary{}) {
		t.Fatalf("empty accumulator summary %+v, want zero", s)
	}
	if !math.IsNaN(a.Mean()) || !math.IsNaN(a.Variance()) {
		t.Fatal("empty accumulator moments not NaN")
	}
}

func TestAccumulatorConstantMemory(t *testing.T) {
	var a Accumulator
	for i := 0; i < 1000; i++ {
		a.Add(float64(i % 97))
	}
	allocs := testing.AllocsPerRun(1000, func() { a.Add(1.0) })
	if allocs != 0 {
		t.Fatalf("Add allocates %v per op, want 0", allocs)
	}
}
