package stats

import "math"

// smallN is the sample count up to which the accumulator keeps the raw
// observations and summarises them exactly; beyond it the P² estimators
// take over and memory stays constant.
const smallN = 64

// Accumulator computes Summary statistics online in O(1) memory: exact
// running mean (plain ordered summation, bit-identical to Mean over the
// same sequence), Welford variance, exact min/max, and P² estimates of
// the candlestick quantiles (Jain & Chlamtac, CACM 1985). It backs the
// engine's streaming Monte-Carlo path, where million-run experiments
// cannot afford to materialise per-run results.
//
// The zero value is ready to use.
type Accumulator struct {
	n        int
	sum      float64
	mean, m2 float64 // Welford recurrence
	min, max float64
	// head holds the first smallN observations: small samples are
	// summarised exactly, and the P² markers initialise from real data.
	head  [smallN]float64
	quant [5]p2 // P10 P25 P50 P75 P90
}

// quantileProbs are the candlestick quantiles of Summary, in order.
var quantileProbs = [5]float64{0.10, 0.25, 0.50, 0.75, 0.90}

// Add folds one observation into the running statistics.
func (a *Accumulator) Add(x float64) {
	if a.n == 0 {
		a.min, a.max = x, x
	} else {
		if x < a.min {
			a.min = x
		}
		if x > a.max {
			a.max = x
		}
	}
	if a.n < smallN {
		a.head[a.n] = x
	}
	a.n++
	a.sum += x
	d := x - a.mean
	a.mean += d / float64(a.n)
	a.m2 += d * (x - a.mean)
	for i := range a.quant {
		a.quant[i].add(quantileProbs[i], x)
	}
}

// N returns the number of observations.
func (a *Accumulator) N() int { return a.n }

// Mean returns the running mean (sum/n, identical to Mean over the same
// sequence), or NaN before the first observation.
func (a *Accumulator) Mean() float64 {
	if a.n == 0 {
		return math.NaN()
	}
	return a.sum / float64(a.n)
}

// Variance returns the unbiased sample variance via Welford's recurrence,
// or NaN for fewer than two observations.
func (a *Accumulator) Variance() float64 {
	if a.n < 2 {
		return math.NaN()
	}
	return a.m2 / float64(a.n-1)
}

// StdDev returns the sample standard deviation.
func (a *Accumulator) StdDev() float64 { return math.Sqrt(a.Variance()) }

// HalfWidth returns the half-width of the two-sided confidence interval
// on the mean at the given confidence level (e.g. 0.95), using the
// normal critical value over the Welford standard error. It returns +Inf
// for fewer than two observations — sequential-stopping drivers gate on
// a minimum replicate count before trusting it.
func (a *Accumulator) HalfWidth(confidence float64) float64 {
	if a.n < 2 {
		return math.Inf(1)
	}
	return ZScore(confidence) * a.StdDev() / math.Sqrt(float64(a.n))
}

// Min returns the smallest observation (NaN when empty).
func (a *Accumulator) Min() float64 {
	if a.n == 0 {
		return math.NaN()
	}
	return a.min
}

// Max returns the largest observation (NaN when empty).
func (a *Accumulator) Max() float64 {
	if a.n == 0 {
		return math.NaN()
	}
	return a.max
}

// Quantile returns the online estimate of the q-quantile for the
// candlestick probabilities (0.10, 0.25, 0.50, 0.75, 0.90); other
// probabilities panic. Small samples (n ≤ 64) are answered exactly.
func (a *Accumulator) Quantile(q float64) float64 {
	for i, p := range quantileProbs {
		if p == q {
			if a.n <= smallN {
				return a.exactQuantile(q)
			}
			return a.quant[i].value(p)
		}
	}
	panic("stats: Accumulator tracks only the candlestick quantiles")
}

// exactQuantile sorts a copy of the retained head sample.
func (a *Accumulator) exactQuantile(q float64) float64 {
	var buf [smallN]float64
	s := buf[:a.n]
	copy(s, a.head[:a.n])
	insertionSort(s)
	return Quantile(s, q)
}

// Summary assembles the candlestick set. For n ≤ 64 it equals
// Summarize over the same observations exactly; beyond that the
// quantiles are P² estimates while N, Mean, Min and Max remain exact and
// StdDev matches the two-pass value to floating-point noise.
func (a *Accumulator) Summary() Summary {
	if a.n == 0 {
		return Summary{}
	}
	if a.n <= smallN {
		return Summarize(a.head[:a.n])
	}
	s := Summary{
		N:    a.n,
		Mean: a.Mean(),
		Min:  a.min,
		Max:  a.max,
		P10:  a.quant[0].value(quantileProbs[0]),
		P25:  a.quant[1].value(quantileProbs[1]),
		P50:  a.quant[2].value(quantileProbs[2]),
		P75:  a.quant[3].value(quantileProbs[3]),
		P90:  a.quant[4].value(quantileProbs[4]),
	}
	if a.n >= 2 {
		s.StdDev = a.StdDev()
	}
	return s
}

// insertionSort keeps the exact small-n path allocation-free.
func insertionSort(s []float64) {
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j] < s[j-1]; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
}

// p2 is one P² quantile estimator: five markers whose heights track the
// quantile curve as observations stream through.
type p2 struct {
	n    int
	q    [5]float64 // marker heights
	pos  [5]float64 // marker positions (1-based counts)
	want [5]float64 // desired positions
}

// add folds one observation into the estimator for probability p.
func (e *p2) add(p, x float64) {
	if e.n < 5 {
		// Collect the first five observations sorted.
		i := e.n
		for i > 0 && e.q[i-1] > x {
			e.q[i] = e.q[i-1]
			i--
		}
		e.q[i] = x
		e.n++
		if e.n == 5 {
			for k := 0; k < 5; k++ {
				e.pos[k] = float64(k + 1)
			}
			e.want = [5]float64{1, 1 + 2*p, 1 + 4*p, 3 + 2*p, 5}
		}
		return
	}

	// Locate the cell of x, extending the extreme markers if needed.
	var k int
	switch {
	case x < e.q[0]:
		e.q[0] = x
		k = 0
	case x >= e.q[4]:
		e.q[4] = x
		k = 3
	default:
		for k = 0; k < 3; k++ {
			if x < e.q[k+1] {
				break
			}
		}
	}
	for i := k + 1; i < 5; i++ {
		e.pos[i]++
	}
	e.n++
	inc := [5]float64{0, p / 2, p, (1 + p) / 2, 1}
	for i := 0; i < 5; i++ {
		e.want[i] += inc[i]
	}

	// Adjust the interior markers toward their desired positions.
	for i := 1; i <= 3; i++ {
		d := e.want[i] - e.pos[i]
		if (d >= 1 && e.pos[i+1]-e.pos[i] > 1) || (d <= -1 && e.pos[i-1]-e.pos[i] < -1) {
			s := 1.0
			if d < 0 {
				s = -1.0
			}
			// Degenerate cell: with equal neighbour heights (tied
			// samples) there is nothing to interpolate — the marker
			// keeps the common value and only its position advances.
			// Without this guard the parabolic prediction drifts the
			// marker off a run of exactly-equal observations.
			if e.q[i-1] < e.q[i+1] {
				nq := e.parabolic(i, s)
				if e.q[i-1] < nq && nq < e.q[i+1] {
					e.q[i] = nq
				} else {
					e.q[i] = e.linear(i, s)
				}
			}
			e.pos[i] += s
		}
	}
}

// parabolic is the P² piecewise-parabolic height prediction.
func (e *p2) parabolic(i int, d float64) float64 {
	return e.q[i] + d/(e.pos[i+1]-e.pos[i-1])*
		((e.pos[i]-e.pos[i-1]+d)*(e.q[i+1]-e.q[i])/(e.pos[i+1]-e.pos[i])+
			(e.pos[i+1]-e.pos[i]-d)*(e.q[i]-e.q[i-1])/(e.pos[i]-e.pos[i-1]))
}

// linear is the fallback height prediction when the parabola overshoots.
func (e *p2) linear(i int, d float64) float64 {
	j := i + int(d)
	return e.q[i] + d*(e.q[j]-e.q[i])/(e.pos[j]-e.pos[i])
}

// value returns the current estimate of the p-quantile: the middle
// marker once the estimator is initialised, and the exact interpolated
// quantile of the sorted collected sample for n < 5 (the collection
// phase keeps q[:n] sorted). Callers normally answer n ≤ 64 from the
// accumulator's exact head instead; this guard makes the estimator
// well-defined on its own.
func (e *p2) value(p float64) float64 {
	if e.n == 0 {
		return math.NaN()
	}
	if e.n < 5 {
		return Quantile(e.q[:e.n], p)
	}
	return e.q[2]
}
