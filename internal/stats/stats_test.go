package stats

import (
	"math"
	"sort"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/rng"
)

func TestMean(t *testing.T) {
	if got := Mean([]float64{1, 2, 3, 4}); got != 2.5 {
		t.Fatalf("Mean = %v, want 2.5", got)
	}
	if !math.IsNaN(Mean(nil)) {
		t.Fatal("Mean(nil) not NaN")
	}
}

func TestVarianceAndStdDev(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	// Sample variance of this classic set is 32/7.
	if got, want := Variance(xs), 32.0/7.0; math.Abs(got-want) > 1e-12 {
		t.Fatalf("Variance = %v, want %v", got, want)
	}
	if got := StdDev(xs); math.Abs(got-math.Sqrt(32.0/7.0)) > 1e-12 {
		t.Fatalf("StdDev = %v", got)
	}
	if !math.IsNaN(Variance([]float64{1})) {
		t.Fatal("Variance of single sample not NaN")
	}
}

func TestQuantileExactValues(t *testing.T) {
	sorted := []float64{10, 20, 30, 40, 50}
	cases := []struct{ q, want float64 }{
		{0, 10}, {1, 50}, {0.5, 30}, {0.25, 20}, {0.75, 40},
		{0.1, 14}, // 0.1*4 = 0.4 -> 10 + 0.4*(20-10)
		{0.9, 46},
	}
	for _, c := range cases {
		if got := Quantile(sorted, c.q); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("Quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
}

func TestQuantileSingleElement(t *testing.T) {
	if got := Quantile([]float64{7}, 0.9); got != 7 {
		t.Fatalf("Quantile single = %v", got)
	}
}

func TestQuantilePanics(t *testing.T) {
	for _, f := range []func(){
		func() { Quantile(nil, 0.5) },
		func() { Quantile([]float64{1}, -0.1) },
		func() { Quantile([]float64{1}, 1.1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			f()
		}()
	}
}

func TestSummarize(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	s := Summarize(xs)
	if s.N != 5 || s.Mean != 3 || s.Min != 1 || s.Max != 5 || s.P50 != 3 {
		t.Fatalf("Summary wrong: %+v", s)
	}
	// Input must be untouched.
	if xs[0] != 5 {
		t.Fatal("Summarize mutated input")
	}
}

func TestSummarizeEmpty(t *testing.T) {
	s := Summarize(nil)
	if s.N != 0 {
		t.Fatalf("empty summary N = %d", s.N)
	}
}

func TestCandlestickAndTSV(t *testing.T) {
	s := Summarize([]float64{0.1, 0.2, 0.3})
	row, header := strings.Split(s.TSVRow(), "\t"), strings.Split(TSVHeader(), "\t")
	if len(row) != len(header) {
		t.Fatalf("TSVRow has %d columns, TSVHeader %d", len(row), len(header))
	}
}

// Property: quantiles are monotone in q and bounded by min/max.
func TestQuantileMonotoneProperty(t *testing.T) {
	r := rng.New(31)
	f := func(seed uint64) bool {
		rr := rng.New(seed)
		n := 1 + rr.Intn(100)
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = rr.Float64() * 100
		}
		sort.Float64s(xs)
		prev := math.Inf(-1)
		for q := 0.0; q <= 1.0; q += 0.05 {
			v := Quantile(xs, q)
			if v < prev-1e-12 || v < xs[0]-1e-12 || v > xs[n-1]+1e-12 {
				return false
			}
			prev = v
		}
		return true
	}
	_ = r
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: the summary box is ordered min <= P10 <= P25 <= P50 <= P75 <=
// P90 <= max, and the mean lies within [min, max].
func TestSummaryOrderingProperty(t *testing.T) {
	f := func(seed uint64) bool {
		rr := rng.New(seed)
		n := 1 + rr.Intn(200)
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = rr.Normal(0, 10)
		}
		s := Summarize(xs)
		ordered := s.Min <= s.P10 && s.P10 <= s.P25 && s.P25 <= s.P50 &&
			s.P50 <= s.P75 && s.P75 <= s.P90 && s.P90 <= s.Max
		return ordered && s.Mean >= s.Min-1e-12 && s.Mean <= s.Max+1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
