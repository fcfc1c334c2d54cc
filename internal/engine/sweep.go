package engine

import "repro/internal/failure"

// FailureSpec pairs a failure inter-arrival model with its shape parameter
// (used only by the Weibull model) — one point of a sweep's failure axis.
type FailureSpec struct {
	Model        failure.Model
	WeibullShape float64
}

// SweepGrid spans a scenario grid over a base configuration: the cross
// product of the axes the paper's evaluation varies plus the channel
// count. An empty axis keeps the base configuration's value, so a grid
// with only Strategies set is exactly a strategy comparison. Points
// enumerate with bandwidth outermost and strategy innermost, keeping the
// strategies of one scenario adjacent — the paired design of §5's
// comparisons (identical per-run seeds, hence identical job mixes and
// failure traces).
type SweepGrid struct {
	// BandwidthsBps are aggregated PFS bandwidths in bytes/s (Figure 1's
	// x-axis).
	BandwidthsBps []float64
	// NodeMTBFSeconds are per-node MTBFs in seconds (Figure 2's x-axis).
	NodeMTBFSeconds []float64
	// FailureSpecs are failure inter-arrival laws (extension axis).
	FailureSpecs []FailureSpec
	// Channels are token-channel counts k (extension axis). The grid is
	// a full cross product, so shared-device (non-token) strategies
	// repeat bit-identical results at every k — keep them off the
	// strategy axis of a channel sweep when compute matters; the
	// rectangular output keeps per-k comparisons trivially alignable.
	Channels []int
	// Strategies are the I/O-discipline × checkpoint-policy variants.
	Strategies []Strategy
}

// SweepPoint is one cell of a sweep grid, with every axis value resolved.
type SweepPoint struct {
	// Index is the point's position in grid enumeration order.
	Index int
	// BandwidthBps and NodeMTBFSeconds are the platform overrides.
	BandwidthBps    float64
	NodeMTBFSeconds float64
	// Failure is the failure-process override.
	Failure FailureSpec
	// Channels is the token-channel override (always >= 1).
	Channels int
	// Strategy is the strategy override.
	Strategy Strategy
}

// Points enumerates the grid over the base configuration in evaluation
// order: bandwidth, then MTBF, then failure model, then channel count,
// then strategy (innermost).
func (g SweepGrid) Points(base Config) []SweepPoint {
	bws := g.BandwidthsBps
	if len(bws) == 0 {
		bws = []float64{base.Platform.BandwidthBps}
	}
	mtbfs := g.NodeMTBFSeconds
	if len(mtbfs) == 0 {
		mtbfs = []float64{base.Platform.NodeMTBFSeconds}
	}
	fails := g.FailureSpecs
	if len(fails) == 0 {
		fails = []FailureSpec{{Model: base.FailureModel, WeibullShape: base.WeibullShape}}
	}
	chans := g.Channels
	if len(chans) == 0 {
		k := base.Channels
		if k == 0 {
			k = 1
		}
		chans = []int{k}
	}
	strats := g.Strategies
	if len(strats) == 0 {
		strats = []Strategy{base.Strategy}
	}
	pts := make([]SweepPoint, 0, len(bws)*len(mtbfs)*len(fails)*len(chans)*len(strats))
	for _, bw := range bws {
		for _, mtbf := range mtbfs {
			for _, fs := range fails {
				for _, k := range chans {
					for _, strat := range strats {
						pts = append(pts, SweepPoint{
							Index:           len(pts),
							BandwidthBps:    bw,
							NodeMTBFSeconds: mtbf,
							Failure:         fs,
							Channels:        k,
							Strategy:        strat,
						})
					}
				}
			}
		}
	}
	return pts
}

// Apply resolves the point into a runnable configuration over the base —
// the same resolution Session.Sweep performs per point, exported so
// external callers (the campaign runner) can build the GridPoints they
// pass to Session.SweepPoints.
func (pt SweepPoint) Apply(base Config) Config {
	cfg := base
	cfg.Platform.BandwidthBps = pt.BandwidthBps
	cfg.Platform.NodeMTBFSeconds = pt.NodeMTBFSeconds
	cfg.FailureModel = pt.Failure.Model
	cfg.WeibullShape = pt.Failure.WeibullShape
	cfg.Channels = pt.Channels
	cfg.Strategy = pt.Strategy
	return cfg
}
