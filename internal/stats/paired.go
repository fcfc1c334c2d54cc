package stats

import "math"

// PairedAccumulator accumulates a paired Monte-Carlo comparison online in
// O(1) memory: each Add records one replicate of two estimators evaluated
// on common random numbers (the same seed, hence the same job mix and
// failure trace), and the statistics of interest are those of the
// per-replicate *differences* x-y. Because CRN makes the two series
// positively correlated, Var(x-y) is typically far below Var(x)+Var(y),
// so the paired confidence interval on the mean difference is reached in
// several-fold fewer replicates than an independent two-sample design —
// the variance-reduction core of the paper's §5 strategy comparisons.
//
// The zero value is ready to use.
type PairedAccumulator struct {
	diff Accumulator // per-replicate differences x - y
	x, y Accumulator // marginals, for the variance-reduction diagnostic
}

// Add folds one paired replicate: x and y measured on the same seed.
func (p *PairedAccumulator) Add(x, y float64) {
	p.diff.Add(x - y)
	p.x.Add(x)
	p.y.Add(y)
}

// N returns the number of pairs.
func (p *PairedAccumulator) N() int { return p.diff.N() }

// MeanDiff returns the mean difference x-y (NaN before the first pair).
func (p *PairedAccumulator) MeanDiff() float64 { return p.diff.Mean() }

// Correlation estimates the sample correlation between the paired series
// from the variance identity Var(x-y) = Var(x) + Var(y) - 2·Cov(x,y),
// clamped to [-1, 1]. NaN below two pairs or when either marginal is
// constant.
func (p *PairedAccumulator) Correlation() float64 {
	vx, vy := p.x.Variance(), p.y.Variance()
	denom := 2 * math.Sqrt(vx*vy)
	if denom == 0 || math.IsNaN(denom) {
		return math.NaN()
	}
	r := (vx + vy - p.diff.Variance()) / denom
	return math.Max(-1, math.Min(1, r))
}

// VarianceReduction returns how many times fewer replicates the paired
// design needs than an independent two-sample design for the same
// confidence interval on the mean difference: (Var(x)+Var(y))/Var(x-y).
// +Inf when the differences are constant (perfect pairing), NaN below
// two pairs.
func (p *PairedAccumulator) VarianceReduction() float64 {
	vd := p.diff.Variance()
	if math.IsNaN(vd) {
		return math.NaN()
	}
	indep := p.x.Variance() + p.y.Variance()
	if vd == 0 {
		if indep == 0 {
			return 1
		}
		return math.Inf(1)
	}
	return indep / vd
}
