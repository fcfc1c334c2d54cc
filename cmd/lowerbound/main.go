// Command lowerbound evaluates the steady-state model of §4 (Theorem 1):
// the I/O-constrained optimal checkpoint periods and the platform-waste
// lower bound, replacing the paper's Maple worksheet.
//
// Examples:
//
//	lowerbound -bw 40 -mtbf 2                 # one point, per-class detail
//	lowerbound -sweep-bw 40:160:20 -mtbf 2    # Figure 1 theory series
//	lowerbound -sweep-mtbf 2:50:4 -bw 40      # Figure 2 theory series
//	lowerbound -bw 40 -simulate Least-Waste -runs 200   # bound vs measured
//
// -simulate cross-checks the bound against a streaming Monte-Carlo
// measurement of the named strategy (O(1) memory at any -runs).
package main

import (
	"context"
	"fmt"
	"io"

	"repro"
	"repro/internal/cliutil"
	"repro/internal/units"
)

func main() { cliutil.Main("lowerbound", run) }

func run(ctx context.Context, args []string, stdout, stderr io.Writer) error {
	fs := cliutil.NewFlagSet("lowerbound", stderr)
	var (
		platformName = fs.String("platform", "cielo", "platform: cielo or prospective")
		bw           = fs.Float64("bw", 40, "aggregated PFS bandwidth in GB/s")
		mtbf         = fs.Float64("mtbf", 2, "node MTBF in years")
		sweepBW      = fs.String("sweep-bw", "", "sweep bandwidth lo:hi:step (GB/s)")
		sweepMTBF    = fs.String("sweep-mtbf", "", "sweep node MTBF lo:hi:step (years)")
		simulate     = fs.String("simulate", "", "cross-check the bound against a streaming Monte-Carlo run of this strategy")
		runs         = fs.Int("runs", 100, "Monte-Carlo replications for -simulate")
		days         = fs.Float64("days", 60, "simulated segment length for -simulate")
		seed         = fs.Uint64("seed", 1, "master random seed for -simulate")
	)
	if stop, err := cliutil.ParseFlags(fs, args, stdout); stop {
		return err
	}

	classes := repro.APEXClasses()
	// bound solves Theorem 1 on the -platform at the given bandwidth
	// (GB/s) and node MTBF (years).
	bound := func(bwGBps, mtbfYears float64) (repro.Platform, repro.LowerBoundSolution, error) {
		p, err := cliutil.Platform(*platformName, bwGBps, mtbfYears)
		if err != nil {
			return p, repro.LowerBoundSolution{}, err
		}
		sol, err := repro.LowerBound(p, classes)
		return p, sol, err
	}
	// sweep prints the bound at each value of a lo:hi:step range; at
	// maps a value to its (bandwidth, MTBF) pair.
	sweep := func(spec, column string, at func(v float64) (float64, float64)) error {
		vals, err := cliutil.SweepValues(spec)
		if err != nil {
			return err
		}
		fmt.Fprintf(stdout, "%s\tlambda\tio_fraction\twaste\n", column)
		for _, v := range vals {
			_, sol, err := bound(at(v))
			if err != nil {
				return err
			}
			fmt.Fprintf(stdout, "%g\t%.6g\t%.4f\t%.4f\n", v, sol.Lambda, sol.IOFraction, sol.Waste)
		}
		return nil
	}
	switch {
	case *sweepBW != "":
		return sweep(*sweepBW, "bandwidth_gbps", func(b float64) (float64, float64) { return b, *mtbf })
	case *sweepMTBF != "":
		return sweep(*sweepMTBF, "mtbf_years", func(y float64) (float64, float64) { return *bw, y })
	}
	p, sol, err := bound(*bw, *mtbf)
	if err != nil {
		return err
	}
	params, err := repro.InstantiateClasses(p, classes)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "platform=%s bandwidth=%s nodeMTBF=%gy systemMTBF=%s\n",
		p.Name, units.FormatBandwidth(p.BandwidthBps), *mtbf, units.FormatDuration(p.SystemMTBF()))
	fmt.Fprintf(stdout, "lambda=%.6g ioFraction=%.4f constrained=%v\n", sol.Lambda, sol.IOFraction, sol.Constrained)
	fmt.Fprintf(stdout, "platform waste lower bound = %.4f (efficiency %.1f%%)\n\n", sol.Waste, 100*(1-sol.Waste))
	fmt.Fprintf(stdout, "%-12s %10s %12s %12s %10s\n", "class", "C (s)", "P_Daly (s)", "P_opt (s)", "W_i")
	for i, cp := range params {
		fmt.Fprintf(stdout, "%-12s %10.1f %12.1f %12.1f %10.4f\n",
			cp.Name, cp.CkptSeconds(p.BandwidthBps), sol.DalyPeriods[i], sol.Periods[i], sol.PerClassWaste[i])
	}
	if *simulate == "" {
		return nil
	}
	return simulateCheck(ctx, stdout, p, *simulate, sol.Waste, *runs, *days, *seed)
}

// simulateCheck measures the named strategy's waste with a streaming
// session experiment (cancellable with SIGINT) and prints it next to the
// theoretical bound.
func simulateCheck(ctx context.Context, stdout io.Writer, p repro.Platform, name string, bound float64, runs int, days float64, seed uint64) error {
	strat, ok := repro.StrategyByName(name)
	if !ok {
		return fmt.Errorf("unknown strategy %q", name)
	}
	cfg := repro.Config{
		Platform:    p,
		Classes:     repro.APEXClasses(),
		Strategy:    strat,
		Seed:        seed,
		HorizonDays: days,
	}
	mc, err := repro.NewSession().MonteCarlo(ctx, cfg, runs)
	if err != nil {
		return err
	}
	s := mc.Summary
	fmt.Fprintf(stdout, "\nmeasured %s over %d runs: mean=%.4f box=[%.4f %.4f] (bound %.4f, gap %+.4f)\n",
		strat.Name(), runs, s.Mean, s.P25, s.P75, bound, s.Mean-bound)
	return nil
}
