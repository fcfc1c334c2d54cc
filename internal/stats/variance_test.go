package stats

import (
	"math"
	"testing"

	"repro/internal/rng"
)

// TestZScore pins the two-sided normal critical values the sequential
// stopping rule gates on.
func TestZScore(t *testing.T) {
	cases := []struct{ conf, want float64 }{
		{0.90, 1.6449},
		{0.95, 1.9600},
		{0.99, 2.5758},
	}
	for _, c := range cases {
		if got := ZScore(c.conf); math.Abs(got-c.want) > 5e-4 {
			t.Errorf("ZScore(%v) = %v, want %v", c.conf, got, c.want)
		}
	}
	for _, bad := range []float64{0, 1, -0.5, 1.5} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("ZScore(%v) did not panic", bad)
				}
			}()
			ZScore(bad)
		}()
	}
}

// TestAccumulatorHalfWidth: +Inf below two observations, then the normal
// critical value over the Welford standard error.
func TestAccumulatorHalfWidth(t *testing.T) {
	var a Accumulator
	if !math.IsInf(a.HalfWidth(0.95), 1) {
		t.Fatal("empty accumulator half-width not +Inf")
	}
	a.Add(3)
	if !math.IsInf(a.HalfWidth(0.95), 1) {
		t.Fatal("single-observation half-width not +Inf")
	}
	xs := []float64{3, 5, 7, 11, 13, 17}
	for _, x := range xs[1:] {
		a.Add(x)
	}
	want := ZScore(0.95) * StdDev(xs) / math.Sqrt(float64(len(xs)))
	if got := a.HalfWidth(0.95); math.Abs(got-want) > 1e-12 {
		t.Fatalf("HalfWidth = %v, want %v", got, want)
	}
}

// TestAccumulatorConstantSamples: a constant stream must report the
// constant for every statistic, however long it runs — the P² parabolic
// step must not drift off a run of exactly equal observations.
func TestAccumulatorConstantSamples(t *testing.T) {
	var a Accumulator
	for i := 0; i < 500; i++ {
		a.Add(5)
	}
	s := a.Summary()
	for name, got := range map[string]float64{
		"mean": s.Mean, "min": s.Min, "max": s.Max,
		"p10": s.P10, "p25": s.P25, "p50": s.P50, "p75": s.P75, "p90": s.P90,
	} {
		if got != 5 {
			t.Errorf("constant stream %s = %v, want exactly 5", name, got)
		}
	}
	if s.StdDev != 0 {
		t.Errorf("constant stream stddev = %v, want 0", s.StdDev)
	}
}

// TestAccumulatorNearConstantSamples is the regression for the tied-
// marker guard: a stream that is constant except for a few outliers must
// keep every quantile inside the observed range, and the low quantiles —
// whose neighbouring markers are tied at the constant — exactly on it.
func TestAccumulatorNearConstantSamples(t *testing.T) {
	var a Accumulator
	for i := 0; i < 300; i++ {
		x := 5.0
		if i%30 == 7 {
			x = 5.1
		}
		a.Add(x)
	}
	s := a.Summary()
	for name, got := range map[string]float64{
		"p10": s.P10, "p25": s.P25, "p50": s.P50, "p75": s.P75, "p90": s.P90,
	} {
		if got < 5 || got > 5.1 {
			t.Errorf("near-constant stream %s = %v, outside the sample range [5, 5.1]", name, got)
		}
	}
	// ~97% of the sample sits exactly at 5.0: the lower quantiles' cells
	// are tied runs, where the guard keeps the markers pinned to the
	// constant up to interpolation against the far outlier cell.
	for name, got := range map[string]float64{"p10": s.P10, "p25": s.P25, "p50": s.P50} {
		if math.Abs(got-5) > 1e-5 {
			t.Errorf("near-constant stream %s = %v, want 5 within 1e-5", name, got)
		}
	}
}

// TestPairedAccumulator cross-validates the paired statistics against a
// plain accumulator over the differences and checks the CRN diagnostics
// on series of known correlation.
func TestPairedAccumulator(t *testing.T) {
	r := rng.New(77)
	var p PairedAccumulator
	var diff Accumulator
	for i := 0; i < 200; i++ {
		x := r.Normal(3, 1)
		y := x + 0.5 + 0.01*r.Normal(0, 1) // strongly correlated pair
		p.Add(x, y)
		diff.Add(x - y)
	}
	if p.N() != 200 {
		t.Fatalf("N = %d", p.N())
	}
	if got, want := p.MeanDiff(), diff.Mean(); math.Abs(got-want) > 1e-12 {
		t.Fatalf("MeanDiff = %v, want %v", got, want)
	}
	if c := p.Correlation(); c < 0.99 || c > 1 {
		t.Fatalf("Correlation = %v, want ~1 for near-identical series", c)
	}
	if vr := p.VarianceReduction(); vr < 100 {
		t.Fatalf("VarianceReduction = %v, want large for near-identical series", vr)
	}

	// A perfectly paired design: constant shift, zero difference variance.
	var exact PairedAccumulator
	for i := 0; i < 10; i++ {
		x := float64(i)
		exact.Add(x, x+2)
	}
	if vr := exact.VarianceReduction(); !math.IsInf(vr, 1) {
		t.Fatalf("constant-shift VarianceReduction = %v, want +Inf", vr)
	}
	if c := exact.Correlation(); math.Abs(c-1) > 1e-9 {
		t.Fatalf("constant-shift Correlation = %v, want 1", c)
	}

	// Independent series: correlation near zero, no replicate savings.
	var indep PairedAccumulator
	for i := 0; i < 2000; i++ {
		indep.Add(r.Normal(0, 1), r.Normal(0, 1))
	}
	if c := indep.Correlation(); math.Abs(c) > 0.1 {
		t.Fatalf("independent Correlation = %v, want ~0", c)
	}
	if vr := indep.VarianceReduction(); vr < 0.7 || vr > 1.4 {
		t.Fatalf("independent VarianceReduction = %v, want ~1", vr)
	}
}
