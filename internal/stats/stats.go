// Package stats provides the Monte-Carlo summary statistics used in §5-6
// of the paper: "For each aggregate measurement, we compute and show mean,
// first and ninth decile, and first and third quartile statistics" — the
// candlesticks of Figures 1 and 2.
package stats

import (
	"fmt"
	"math"
	"sort"
)

// Mean returns the arithmetic mean, or NaN for an empty slice.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// Variance returns the unbiased sample variance, or NaN for fewer than two
// samples.
func Variance(xs []float64) float64 {
	if len(xs) < 2 {
		return math.NaN()
	}
	m := Mean(xs)
	sum := 0.0
	for _, x := range xs {
		d := x - m
		sum += d * d
	}
	return sum / float64(len(xs)-1)
}

// StdDev returns the sample standard deviation.
func StdDev(xs []float64) float64 { return math.Sqrt(Variance(xs)) }

// ZScore returns the two-sided standard-normal critical value for the
// given confidence level: the z with P(|N(0,1)| <= z) = confidence
// (e.g. 1.96 for 0.95). It panics outside (0, 1).
func ZScore(confidence float64) float64 {
	if confidence <= 0 || confidence >= 1 {
		panic(fmt.Sprintf("stats: confidence %v outside (0,1)", confidence))
	}
	return math.Sqrt2 * math.Erfinv(confidence)
}

// Quantile returns the q-quantile (0 <= q <= 1) of sorted (ascending) data
// using linear interpolation between order statistics. It panics if the
// data is empty or q is outside [0,1].
func Quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		panic("stats: Quantile of empty data")
	}
	if q < 0 || q > 1 {
		panic(fmt.Sprintf("stats: quantile %v outside [0,1]", q))
	}
	if len(sorted) == 1 {
		return sorted[0]
	}
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return sorted[lo]
	}
	frac := pos - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

// Summary is the candlestick statistic set of the paper's figures: mean,
// first/last decile and first/last quartile, plus extremes.
type Summary struct {
	N                       int
	Mean                    float64
	Min, Max                float64
	P10, P25, P50, P75, P90 float64
	StdDev                  float64
}

// Summarize computes a Summary; the input is not modified. It returns a
// zero-N summary for empty input.
func Summarize(xs []float64) Summary {
	if len(xs) == 0 {
		return Summary{}
	}
	sorted := make([]float64, len(xs))
	copy(sorted, xs)
	sort.Float64s(sorted)
	s := Summary{
		N:    len(xs),
		Mean: Mean(xs),
		Min:  sorted[0],
		Max:  sorted[len(sorted)-1],
		P10:  Quantile(sorted, 0.10),
		P25:  Quantile(sorted, 0.25),
		P50:  Quantile(sorted, 0.50),
		P75:  Quantile(sorted, 0.75),
		P90:  Quantile(sorted, 0.90),
	}
	if len(xs) >= 2 {
		s.StdDev = StdDev(xs)
	}
	return s
}

// TSVHeader returns the column header matching TSVRow.
func TSVHeader() string {
	return "n\tmean\tstddev\tmin\tp10\tp25\tp50\tp75\tp90\tmax"
}

// TSVRow renders the summary as a tab-separated row for machine-readable
// harness output.
func (s Summary) TSVRow() string {
	return fmt.Sprintf("%d\t%.6f\t%.6f\t%.6f\t%.6f\t%.6f\t%.6f\t%.6f\t%.6f\t%.6f",
		s.N, s.Mean, s.StdDev, s.Min, s.P10, s.P25, s.P50, s.P75, s.P90, s.Max)
}
