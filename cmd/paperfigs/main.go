// Command paperfigs regenerates every table and figure of the paper's
// evaluation section (§6):
//
//	paperfigs table1          # Table 1: the LANL APEX workload
//	paperfigs fig1            # Fig. 1: waste vs bandwidth, Cielo, 2y MTBF
//	paperfigs fig2            # Fig. 2: waste vs node MTBF, Cielo, 40 GB/s
//	paperfigs fig3            # Fig. 3: min bandwidth for 80% efficiency
//	paperfigs all             # everything
//
// The whole campaign runs through one repro.Session, so fig1 + fig2 +
// fig3 share a single warm set of per-worker simulation arenas instead of
// rebuilding them per figure. Under -journal, -resume or -point-timeout,
// fig1 and fig2 each run as a durable campaign, which builds its own
// session and arenas; fig3 still uses the shared one. SIGINT cancels
// gracefully: in-flight workers drain, rows already printed stay flushed,
// and the command exits 130.
//
// Candlesticks (mean, first/last decile, first/last quartile) follow the
// paper's statistics; the theoretical lower bound of §4 accompanies each
// sweep. -runs trades Monte-Carlo precision for time (the paper uses
// 1000); -quick reduces the sweeps for smoke testing.
package main

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"io"
	"time"

	"repro"
	"repro/internal/campaign"
	"repro/internal/cliutil"
	"repro/internal/resultcache"
	"repro/internal/units"
)

// paper renders the tables and figures of one paperfigs run through one
// session.
type paper struct {
	runs, workers, channels int
	seed                    uint64
	days                    float64
	quick, tsv, antithetic  bool
	strategies              []repro.Strategy
	targetCI                repro.TargetCI
	campaign                *cliutil.CampaignFlags
	cache                   *resultcache.Cache
	session                 *repro.Session
	stdout, stderr          io.Writer
	// degraded counts quarantined campaign points across all figures;
	// the run exits 3 when any figure is incomplete.
	degraded int
}

func main() { cliutil.Main("paperfigs", run) }

func run(ctx context.Context, args []string, stdout, stderr io.Writer) error {
	fs := cliutil.NewFlagSet("paperfigs", stderr)
	f := &paper{stdout: stdout, stderr: stderr}
	var strategySpec, targetCISpec string
	var cpuprofile, memprofile string
	fs.IntVar(&f.runs, "runs", 50, "Monte-Carlo replications per point (paper: 1000)")
	fs.IntVar(&f.workers, "workers", 0, "parallel workers (0 = GOMAXPROCS)")
	fs.Uint64Var(&f.seed, "seed", 1, "master random seed")
	fs.Float64Var(&f.days, "days", 60, "simulated segment length in days")
	fs.IntVar(&f.channels, "channels", 1, "token-channel count k (paper: 1)")
	fs.BoolVar(&f.quick, "quick", false, "reduced sweeps and runs (smoke test)")
	fs.BoolVar(&f.tsv, "tsv", false, "emit tab-separated values")
	fs.StringVar(&strategySpec, "strategies", "legend",
		"strategy set per point: 'legend' (the §6 seven), 'all', or comma-separated names")
	fs.StringVar(&targetCISpec, "target-ci", "",
		"sequential stopping per sweep point and fig3 probe: halfWidth[:confidence[:minRuns[:maxRuns]]]; -runs becomes the cap")
	fs.BoolVar(&f.antithetic, "antithetic", false,
		"antithetic variates: replicate pairs share a seed, the odd member draws complemented streams")
	fs.StringVar(&cpuprofile, "cpuprofile", "", "write a CPU profile to this file")
	fs.StringVar(&memprofile, "memprofile", "", "write a heap (allocs) profile to this file on exit")
	f.campaign = cliutil.AddCampaignFlags(fs)
	cacheFlags := cliutil.AddCacheFlags(fs)
	if stop, err := cliutil.ParseFlags(fs, args, stdout); stop {
		return err
	}

	if f.quick {
		f.runs = min(f.runs, 5)
		f.days = min(f.days, 20)
	}
	var err error
	f.strategies, err = cliutil.Strategies(strategySpec)
	if err != nil {
		return err
	}
	f.targetCI, err = cliutil.TargetCI(targetCISpec)
	if err != nil {
		return err
	}
	stopProfiles, err := cliutil.StartProfiles(cpuprofile, memprofile, stderr)
	if err != nil {
		return err
	}
	defer stopProfiles()
	f.cache, err = cacheFlags.Open()
	if err != nil {
		return err
	}

	// One session serves the whole campaign: every figure's grid
	// reconfigures the same warm per-worker arenas. Exact candlesticks
	// need only the waste ratios; paper-scale -runs never materialises
	// per-run Result structs. A -target-ci lets each sweep point (and
	// each fig3 bisection probe) stop as soon as its mean is resolved.
	tci := f.targetCI
	sopts := []repro.SessionOption{
		repro.WithWorkers(f.workers),
		repro.WithKeepWasteRatios(true),
		repro.WithAntithetic(f.antithetic),
		repro.WithTargetCI(tci.HalfWidth, tci.Confidence, tci.MinRuns, tci.MaxRuns),
	}
	if f.cache != nil {
		sopts = append(sopts, repro.WithResultCache(f.cache))
	}
	f.session = repro.NewSession(sopts...)

	parts, ok := map[string][]func(context.Context) error{
		"table1": {f.table1},
		"fig1":   {f.fig1},
		"fig2":   {f.fig2},
		"fig3":   {f.fig3},
		"all":    {f.table1, f.fig1, f.fig2, f.fig3},
	}[cmp.Or(fs.Arg(0), "all")]
	if !ok {
		return cliutil.UsageError(fmt.Errorf("unknown command %q (table1|fig1|fig2|fig3|all)", fs.Arg(0)))
	}
	for _, part := range parts {
		if err := part(ctx); err != nil {
			return err
		}
	}
	cliutil.ReportCacheStats(stderr, "paperfigs", f.cache)
	if f.degraded > 0 {
		return cliutil.DegradedError(fmt.Errorf("campaign degraded: %d quarantined point(s); rerun with -resume to retry them", f.degraded))
	}
	return nil
}

// table1 prints the APEX workload table plus the derived per-class
// simulation parameters on Cielo.
func (f *paper) table1(context.Context) error {
	out := f.stdout
	fmt.Fprintln(out, "== Table 1: LANL Workflow Workload (APEX Workflows report) ==")
	classes := repro.APEXClasses()
	fmt.Fprintf(out, "%-22s", "Workflow")
	for _, c := range classes {
		fmt.Fprintf(out, "%12s", c.Name)
	}
	fmt.Fprintln(out)
	row := func(label string, fn func(repro.Class) string) {
		fmt.Fprintf(out, "%-22s", label)
		for _, c := range classes {
			fmt.Fprintf(out, "%12s", fn(c))
		}
		fmt.Fprintln(out)
	}
	row("Workload percentage", func(c repro.Class) string { return fmt.Sprintf("%g", c.Share*100) })
	row("Work time (h)", func(c repro.Class) string { return fmt.Sprintf("%g", c.WorkHours) })
	row("Number of cores", func(c repro.Class) string {
		return fmt.Sprintf("%.0f", c.MachineFraction*143104)
	})
	row("Initial Input (%mem)", func(c repro.Class) string { return fmt.Sprintf("%g", c.InputPctMem) })
	row("Final Output (%mem)", func(c repro.Class) string { return fmt.Sprintf("%g", c.OutputPctMem) })
	row("Checkpoint (%mem)", func(c repro.Class) string { return fmt.Sprintf("%g", c.CkptPctMem) })

	fmt.Fprintln(out, "\n-- Derived on Cielo (17888 nodes, 286 TB): --")
	p := repro.Cielo(160, 2)
	params, err := repro.InstantiateClasses(p, classes)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "%-22s%12s%12s%12s%12s%12s\n", "class", "nodes", "memory", "ckpt size", "C@160GB/s", "Daly@160")
	sol, err := repro.LowerBound(p, classes)
	if err != nil {
		return err
	}
	for i, cp := range params {
		fmt.Fprintf(out, "%-22s%12d%12s%12s%11.0fs%11.0fs\n",
			cp.Name, cp.Nodes, units.FormatBytes(cp.MemoryBytes),
			units.FormatBytes(cp.CkptBytes), cp.CkptSeconds(p.BandwidthBps), sol.DalyPeriods[i])
	}
	fmt.Fprintln(out)
	return nil
}

// runSweep prints a figure: its title, then the scenario grid on plat
// pulled through the shared session — one warm set of per-worker
// simulation arenas serves every (scenario × strategy) cell — with one
// row per strategy and the §4 theory bound after each scenario's block.
// axisValue maps a sweep point to the printed x-axis figure. With any
// campaign flag set the grid routes through the durable campaign layer
// instead: progress journals to "<-journal>.<fig>" (each figure is its
// own campaign with its own fingerprint), -resume replays completed
// points and restarts the partial one mid-replication, and failed points
// are quarantined on stderr while the figure completes.
func (f *paper) runSweep(ctx context.Context, fig, title string, plat repro.Platform, grid repro.SweepGrid, axis string, axisValue func(repro.SweepPoint) float64) error {
	fmt.Fprintln(f.stdout, title)
	start := time.Now()
	base := repro.Config{
		Platform:    plat,
		Classes:     repro.APEXClasses(),
		Seed:        f.seed,
		HorizonDays: f.days,
		Channels:    f.channels,
	}
	nStrats := len(grid.Strategies)
	printPoint := func(pt repro.SweepPoint, mc repro.MCResult) {
		v := axisValue(pt)
		s := mc.Summary
		cached := 0
		mark := ""
		if mc.Cached {
			cached, mark = 1, "  (cached)"
		}
		if f.tsv {
			fmt.Fprintf(f.stdout, "%s\t%g\t%s\t%s\t%d\n", axis, v, mc.Strategy, s.TSVRow(), cached)
		} else {
			fmt.Fprintf(f.stdout, "%s=%-8g %-18s mean=%.4f box=[%.4f %.4f] whiskers=[%.4f %.4f]%s\n",
				axis, v, mc.Strategy, s.Mean, s.P25, s.P75, s.P10, s.P90, mark)
		}
	}
	theoryAt := func(pt repro.SweepPoint) error {
		if (pt.Index+1)%nStrats != 0 {
			return nil
		}
		return f.theoryRow(pt.Apply(base).Platform, axis, axisValue(pt))
	}

	if f.campaign.Enabled() {
		copts, err := f.campaign.CampaignOptions("."+fig, f.workers, f.antithetic, f.targetCI)
		if err != nil {
			return err
		}
		if f.cache != nil {
			copts.Cache = f.cache
		}
		seq, errf := campaign.New(copts).RunSweep(ctx, base, grid, f.runs)
		for pr := range seq {
			if pr.Status == campaign.StatusDone {
				printPoint(pr.Point, pr.MC)
			} else {
				f.degraded++
				fmt.Fprintf(f.stderr, "paperfigs: %v\n", pr.Err)
			}
			if err := theoryAt(pr.Point); err != nil {
				return err
			}
		}
		return f.done(fig, start, errf())
	}

	points, errf := f.session.Sweep(ctx, base, grid, f.runs)
	for pt, mc := range points {
		printPoint(pt, mc)
		if err := theoryAt(pt); err != nil {
			return err
		}
	}
	return f.done(fig, start, errf())
}

// done closes a figure that ran to completion (err == nil) with its
// wall-clock time.
func (f *paper) done(fig string, start time.Time, err error) error {
	if err == nil {
		fmt.Fprintf(f.stdout, "-- %s done in %v --\n\n", fig, time.Since(start).Round(time.Second))
	}
	return err
}

// theoryRow prints the §4 lower bound for one scenario.
func (f *paper) theoryRow(p repro.Platform, axis string, axisValue float64) error {
	sol, err := repro.LowerBound(p, repro.APEXClasses())
	if err != nil {
		return err
	}
	if f.tsv {
		fmt.Fprintf(f.stdout, "%s\t%g\tTheoretical-Model\t1\t%.6f\t0\t%.6f\t%.6f\t%.6f\t%.6f\t%.6f\t%.6f\t%.6f\t0\n",
			axis, axisValue, sol.Waste, sol.Waste, sol.Waste, sol.Waste, sol.Waste, sol.Waste, sol.Waste, sol.Waste)
	} else {
		fmt.Fprintf(f.stdout, "%s=%-8g %-18s mean=%.4f (λ=%.4g constrained=%v)\n",
			axis, axisValue, "Theoretical-Model", sol.Waste, sol.Lambda, sol.Constrained)
	}
	return nil
}

// fig1 reproduces Figure 1: waste ratio vs aggregated bandwidth on Cielo
// with a 2-year node MTBF.
func (f *paper) fig1(ctx context.Context) error {
	bws := []float64{40, 60, 80, 100, 120, 140, 160}
	if f.quick {
		bws = []float64{40, 100, 160}
	}
	grid := repro.SweepGrid{Strategies: f.strategies}
	for _, bw := range bws {
		grid.BandwidthsBps = append(grid.BandwidthsBps, units.GBps(bw))
	}
	return f.runSweep(ctx, "fig1", "== Figure 1: waste ratio vs system bandwidth (Cielo, node MTBF 2y) ==",
		repro.Cielo(bws[0], 2), grid, "bandwidth_gbps",
		func(pt repro.SweepPoint) float64 { return pt.BandwidthBps / units.GB })
}

// fig2 reproduces Figure 2: waste ratio vs node MTBF on Cielo at 40 GB/s.
func (f *paper) fig2(ctx context.Context) error {
	years := []float64{2, 5, 10, 20, 35, 50}
	if f.quick {
		years = []float64{2, 10, 50}
	}
	grid := repro.SweepGrid{Strategies: f.strategies}
	for _, y := range years {
		grid.NodeMTBFSeconds = append(grid.NodeMTBFSeconds, units.Years(y))
	}
	return f.runSweep(ctx, "fig2", "== Figure 2: waste ratio vs node MTBF (Cielo, 40 GB/s) ==",
		repro.Cielo(40, years[0]), grid, "mtbf_years",
		func(pt repro.SweepPoint) float64 { return pt.NodeMTBFSeconds / units.Year })
}

// fig3 reproduces Figure 3: the minimum aggregated bandwidth needed to
// sustain 80% efficiency on the prospective system, per strategy and node
// MTBF. Every bisection probe reconfigures the shared session's arenas.
func (f *paper) fig3(ctx context.Context) error {
	fmt.Fprintln(f.stdout, "== Figure 3: min bandwidth for 80% efficiency (prospective system) ==")
	if f.campaign.Enabled() {
		// Each fig3 cell is an adaptive bisection — the probe sequence
		// depends on earlier probe results, so there is no static grid to
		// journal point-by-point. The figure reruns from scratch on resume.
		fmt.Fprintln(f.stderr, "paperfigs: note: fig3's bisection probes are not journaled; fig3 reruns in full")
	}
	years := []float64{5, 10, 15, 20, 25}
	if f.quick {
		years = []float64{5, 15, 25}
	}
	// Each sweep point is a full bisection; cap the per-evaluation
	// replication to keep fig3 tractable.
	runs := min(f.runs, 8)
	steps := 10
	if f.quick {
		steps = 6
	}
	loBps, hiBps := units.GBps(50), units.TBps(400)
	start := time.Now()
	for _, y := range years {
		for _, strat := range f.strategies {
			cfg := repro.Config{
				Platform:    repro.Prospective(1000, y),
				Classes:     repro.APEXClasses(),
				Strategy:    strat,
				Seed:        f.seed,
				HorizonDays: f.days,
				Channels:    f.channels,
			}
			bw, err := f.session.MinBandwidth(ctx, cfg, 0.8, loBps, hiBps, runs, steps)
			if err != nil {
				if errors.Is(err, context.Canceled) {
					return err
				}
				fmt.Fprintf(f.stdout, "mtbf_years=%-4g %-18s unreachable (%v)\n", y, strat.Name(), err)
				continue
			}
			if f.tsv {
				fmt.Fprintf(f.stdout, "mtbf_years\t%g\t%s\t%.4f\n", y, strat.Name(), bw/units.TB)
			} else {
				fmt.Fprintf(f.stdout, "mtbf_years=%-4g %-18s min bandwidth = %8.3f TB/s\n", y, strat.Name(), bw/units.TB)
			}
		}
		theory, err := repro.LowerBoundMinBandwidth(repro.Prospective(1000, y), repro.APEXClasses(), 0.2, loBps, hiBps)
		if err != nil {
			return err
		}
		if f.tsv {
			fmt.Fprintf(f.stdout, "mtbf_years\t%g\tTheoretical-Model\t%.4f\n", y, theory/units.TB)
		} else {
			fmt.Fprintf(f.stdout, "mtbf_years=%-4g %-18s min bandwidth = %8.3f TB/s\n", y, "Theoretical-Model", theory/units.TB)
		}
	}
	return f.done("fig3", start, nil)
}
