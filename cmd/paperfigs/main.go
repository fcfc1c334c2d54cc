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
// rebuilding them per figure, and SIGINT cancels gracefully: in-flight
// workers drain, rows already printed stay flushed, and the command exits
// non-zero.
//
// Candlesticks (mean, first/last decile, first/last quartile) follow the
// paper's statistics; the theoretical lower bound of §4 accompanies each
// sweep. -runs trades Monte-Carlo precision for time (the paper uses
// 1000); -quick reduces the sweeps for smoke testing.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"time"

	"repro"
	"repro/internal/campaign"
	"repro/internal/cliutil"
	"repro/internal/resultcache"
	"repro/internal/units"
)

type options struct {
	runs       int
	workers    int
	seed       uint64
	days       float64
	channels   int
	quick      bool
	tsv        bool
	strategies []repro.Strategy
	antithetic bool
	targetCI   repro.TargetCI
	campaign   *cliutil.CampaignFlags
	cache      *resultcache.Cache
}

func main() {
	opts := options{}
	var strategySpec, targetCISpec string
	var cpuprofile, memprofile string
	var antithetic bool
	flag.IntVar(&opts.runs, "runs", 50, "Monte-Carlo replications per point (paper: 1000)")
	flag.IntVar(&opts.workers, "workers", 0, "parallel workers (0 = GOMAXPROCS)")
	flag.Uint64Var(&opts.seed, "seed", 1, "master random seed")
	flag.Float64Var(&opts.days, "days", 60, "simulated segment length in days")
	flag.IntVar(&opts.channels, "channels", 1, "token-channel count k (paper: 1)")
	flag.BoolVar(&opts.quick, "quick", false, "reduced sweeps and runs (smoke test)")
	flag.BoolVar(&opts.tsv, "tsv", false, "emit tab-separated values")
	flag.StringVar(&strategySpec, "strategies", "legend",
		"strategy set per point: 'legend' (the §6 seven), 'all', or comma-separated names")
	flag.StringVar(&targetCISpec, "target-ci", "",
		"sequential stopping per sweep point and fig3 probe: halfWidth[:confidence[:minRuns[:maxRuns]]]; -runs becomes the cap")
	flag.BoolVar(&antithetic, "antithetic", false,
		"antithetic variates: replicate pairs share a seed, the odd member draws complemented streams")
	flag.StringVar(&cpuprofile, "cpuprofile", "", "write a CPU profile to this file")
	flag.StringVar(&memprofile, "memprofile", "", "write a heap (allocs) profile to this file on exit")
	opts.campaign = cliutil.AddCampaignFlags(flag.CommandLine)
	cacheFlags := cliutil.AddCacheFlags(flag.CommandLine)
	version := cliutil.AddVersionFlag(flag.CommandLine)
	flag.Parse()
	cliutil.HandleVersion("paperfigs", *version)

	if opts.quick {
		if opts.runs > 5 {
			opts.runs = 5
		}
		if opts.days > 20 {
			opts.days = 20
		}
	}
	var err error
	opts.strategies, err = cliutil.Strategies(strategySpec)
	if err != nil {
		fatal(err)
	}
	tci, err := cliutil.TargetCI(targetCISpec)
	if err != nil {
		fatal(err)
	}
	opts.antithetic = antithetic
	opts.targetCI = tci
	stopProfiles, err := cliutil.StartProfiles(cpuprofile, memprofile)
	if err != nil {
		fatal(err)
	}
	defer stopProfiles()
	opts.cache, err = cacheFlags.Open()
	if err != nil {
		fatal(err)
	}

	ctx, cancel := cliutil.InterruptContext()
	defer cancel()
	// One session serves the whole campaign: every figure's grid
	// reconfigures the same warm per-worker arenas. Exact candlesticks
	// need only the waste ratios; paper-scale -runs never materialises
	// per-run Result structs. A -target-ci lets each sweep point (and
	// each fig3 bisection probe) stop as soon as its mean is resolved.
	sopts := []repro.SessionOption{
		repro.WithWorkers(opts.workers),
		repro.WithKeepWasteRatios(true),
		repro.WithAntithetic(antithetic),
		repro.WithTargetCI(tci.HalfWidth, tci.Confidence, tci.MinRuns, tci.MaxRuns),
	}
	if opts.cache != nil {
		sopts = append(sopts, repro.WithResultCache(opts.cache))
	}
	session := repro.NewSession(sopts...)

	cmd := flag.Arg(0)
	if cmd == "" {
		cmd = "all"
	}
	switch cmd {
	case "table1":
		table1(opts)
	case "fig1":
		fig1(ctx, session, opts)
	case "fig2":
		fig2(ctx, session, opts)
	case "fig3":
		fig3(ctx, session, opts)
	case "all":
		table1(opts)
		fig1(ctx, session, opts)
		fig2(ctx, session, opts)
		fig3(ctx, session, opts)
	default:
		fmt.Fprintf(os.Stderr, "paperfigs: unknown command %q (table1|fig1|fig2|fig3|all)\n", cmd)
		os.Exit(2)
	}
	cliutil.ReportCacheStats("paperfigs", opts.cache)
	if degradedPoints > 0 {
		stopProfiles()
		fmt.Fprintf(os.Stderr, "paperfigs: campaign degraded: %d quarantined point(s); rerun with -resume to retry them\n", degradedPoints)
		os.Exit(3)
	}
}

// table1 prints the APEX workload table plus the derived per-class
// simulation parameters on Cielo.
func table1(opts options) {
	fmt.Println("== Table 1: LANL Workflow Workload (APEX Workflows report) ==")
	classes := repro.APEXClasses()
	fmt.Printf("%-22s", "Workflow")
	for _, c := range classes {
		fmt.Printf("%12s", c.Name)
	}
	fmt.Println()
	row := func(label string, f func(repro.Class) string) {
		fmt.Printf("%-22s", label)
		for _, c := range classes {
			fmt.Printf("%12s", f(c))
		}
		fmt.Println()
	}
	row("Workload percentage", func(c repro.Class) string { return fmt.Sprintf("%g", c.Share*100) })
	row("Work time (h)", func(c repro.Class) string { return fmt.Sprintf("%g", c.WorkHours) })
	row("Number of cores", func(c repro.Class) string {
		return fmt.Sprintf("%.0f", c.MachineFraction*143104)
	})
	row("Initial Input (%mem)", func(c repro.Class) string { return fmt.Sprintf("%g", c.InputPctMem) })
	row("Final Output (%mem)", func(c repro.Class) string { return fmt.Sprintf("%g", c.OutputPctMem) })
	row("Checkpoint (%mem)", func(c repro.Class) string { return fmt.Sprintf("%g", c.CkptPctMem) })

	fmt.Println("\n-- Derived on Cielo (17888 nodes, 286 TB): --")
	p := repro.Cielo(160, 2)
	params, err := repro.InstantiateClasses(p, classes)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("%-22s%12s%12s%12s%12s%12s\n", "class", "nodes", "memory", "ckpt size", "C@160GB/s", "Daly@160")
	sol, err := repro.LowerBound(p, classes)
	if err != nil {
		fatal(err)
	}
	for i, cp := range params {
		fmt.Printf("%-22s%12d%12s%12s%11.0fs%11.0fs\n",
			cp.Name, cp.Nodes, units.FormatBytes(cp.MemoryBytes),
			units.FormatBytes(cp.CkptBytes), cp.CkptSeconds(p.BandwidthBps), sol.DalyPeriods[i])
	}
	fmt.Println()
}

// degradedPoints counts quarantined campaign points
// across all figures; main exits non-zero when any figure is incomplete.
var degradedPoints int

// runSweep pulls a scenario grid through the shared session — one warm
// set of per-worker simulation arenas serves every (scenario × strategy)
// cell — printing one row per strategy and the §4 theory bound after each
// scenario's block. axisValue maps a sweep point to the printed x-axis
// figure. With any campaign flag set the grid routes through the durable
// campaign layer instead: progress journals to "<-journal>.<fig>" (each
// figure is its own campaign with its own fingerprint), -resume replays
// completed points and restarts the partial one mid-replication, and
// failed points are quarantined on stderr while the figure completes.
func runSweep(ctx context.Context, session *repro.Session, opts options, base repro.Config, grid repro.SweepGrid, fig, axis string, axisValue func(repro.SweepPoint) float64) {
	nStrats := len(grid.Strategies)
	printPoint := func(pt repro.SweepPoint, mc repro.MCResult) {
		v := axisValue(pt)
		s := mc.Summary
		cached := 0
		mark := ""
		if mc.Cached {
			cached, mark = 1, "  (cached)"
		}
		if opts.tsv {
			fmt.Printf("%s\t%g\t%s\t%s\t%d\n", axis, v, mc.Strategy, s.TSVRow(), cached)
		} else {
			fmt.Printf("%s=%-8g %-18s mean=%.4f box=[%.4f %.4f] whiskers=[%.4f %.4f]%s\n",
				axis, v, mc.Strategy, s.Mean, s.P25, s.P75, s.P10, s.P90, mark)
		}
	}
	theoryAt := func(pt repro.SweepPoint) {
		if (pt.Index+1)%nStrats == 0 {
			p := base.Platform
			p.BandwidthBps = pt.BandwidthBps
			p.NodeMTBFSeconds = pt.NodeMTBFSeconds
			theoryRow(opts, p, axis, axisValue(pt))
		}
	}

	if opts.campaign.Enabled() {
		copts, err := opts.campaign.CampaignOptions("."+fig, opts.workers, opts.antithetic, opts.targetCI, nil)
		if err != nil {
			fatal(err)
		}
		if opts.cache != nil {
			copts.Cache = opts.cache
		}
		seq, errf := campaign.New(copts).RunSweep(ctx, base, grid, opts.runs)
		for pr := range seq {
			if pr.Status == campaign.StatusDone {
				printPoint(pr.Point, pr.MC)
			} else {
				degradedPoints++
				fmt.Fprintf(os.Stderr, "paperfigs: %v\n", pr.Err)
			}
			theoryAt(pr.Point)
		}
		if err := errf(); err != nil {
			if errors.Is(err, context.Canceled) {
				cliutil.ExitInterrupted("paperfigs", err)
			}
			fatal(err)
		}
		return
	}

	points, errf := session.Sweep(ctx, base, grid, opts.runs)
	for pt, mc := range points {
		printPoint(pt, mc)
		theoryAt(pt)
	}
	if err := errf(); err != nil {
		if errors.Is(err, context.Canceled) {
			cliutil.ExitInterrupted("paperfigs", err)
		}
		fatal(err)
	}
}

// theoryRow prints the §4 lower bound for one scenario.
func theoryRow(opts options, p repro.Platform, axis string, axisValue float64) {
	sol, err := repro.LowerBound(p, repro.APEXClasses())
	if err != nil {
		fatal(err)
	}
	if opts.tsv {
		fmt.Printf("%s\t%g\tTheoretical-Model\t1\t%.6f\t0\t%.6f\t%.6f\t%.6f\t%.6f\t%.6f\t%.6f\t%.6f\t0\n",
			axis, axisValue, sol.Waste, sol.Waste, sol.Waste, sol.Waste, sol.Waste, sol.Waste, sol.Waste, sol.Waste)
	} else {
		fmt.Printf("%s=%-8g %-18s mean=%.4f (λ=%.4g constrained=%v)\n",
			axis, axisValue, "Theoretical-Model", sol.Waste, sol.Lambda, sol.Constrained)
	}
}

// fig1 reproduces Figure 1: waste ratio vs aggregated bandwidth on Cielo
// with a 2-year node MTBF.
func fig1(ctx context.Context, session *repro.Session, opts options) {
	fmt.Println("== Figure 1: waste ratio vs system bandwidth (Cielo, node MTBF 2y) ==")
	bws := []float64{40, 60, 80, 100, 120, 140, 160}
	if opts.quick {
		bws = []float64{40, 100, 160}
	}
	start := time.Now()
	base := repro.Config{
		Platform:    repro.Cielo(bws[0], 2),
		Classes:     repro.APEXClasses(),
		Seed:        opts.seed,
		HorizonDays: opts.days,
		Channels:    opts.channels,
	}
	grid := repro.SweepGrid{Strategies: opts.strategies}
	for _, bw := range bws {
		grid.BandwidthsBps = append(grid.BandwidthsBps, units.GBps(bw))
	}
	runSweep(ctx, session, opts, base, grid, "fig1", "bandwidth_gbps",
		func(pt repro.SweepPoint) float64 { return pt.BandwidthBps / units.GB })
	fmt.Printf("-- fig1 done in %v --\n\n", time.Since(start).Round(time.Second))
}

// fig2 reproduces Figure 2: waste ratio vs node MTBF on Cielo at 40 GB/s.
func fig2(ctx context.Context, session *repro.Session, opts options) {
	fmt.Println("== Figure 2: waste ratio vs node MTBF (Cielo, 40 GB/s) ==")
	years := []float64{2, 5, 10, 20, 35, 50}
	if opts.quick {
		years = []float64{2, 10, 50}
	}
	start := time.Now()
	base := repro.Config{
		Platform:    repro.Cielo(40, years[0]),
		Classes:     repro.APEXClasses(),
		Seed:        opts.seed,
		HorizonDays: opts.days,
		Channels:    opts.channels,
	}
	grid := repro.SweepGrid{Strategies: opts.strategies}
	for _, y := range years {
		grid.NodeMTBFSeconds = append(grid.NodeMTBFSeconds, units.Years(y))
	}
	runSweep(ctx, session, opts, base, grid, "fig2", "mtbf_years",
		func(pt repro.SweepPoint) float64 { return pt.NodeMTBFSeconds / units.Year })
	fmt.Printf("-- fig2 done in %v --\n\n", time.Since(start).Round(time.Second))
}

// fig3 reproduces Figure 3: the minimum aggregated bandwidth needed to
// sustain 80% efficiency on the prospective system, per strategy and node
// MTBF. Every bisection probe reconfigures the shared session's arenas.
func fig3(ctx context.Context, session *repro.Session, opts options) {
	fmt.Println("== Figure 3: min bandwidth for 80% efficiency (prospective system) ==")
	if opts.campaign.Enabled() {
		// Each fig3 cell is an adaptive bisection — the probe sequence
		// depends on earlier probe results, so there is no static grid to
		// journal point-by-point. The figure reruns from scratch on resume.
		fmt.Fprintln(os.Stderr, "paperfigs: note: fig3's bisection probes are not journaled; fig3 reruns in full")
	}
	years := []float64{5, 10, 15, 20, 25}
	if opts.quick {
		years = []float64{5, 15, 25}
	}
	runs := opts.runs
	if runs > 8 {
		// Each sweep point is a full bisection; cap the per-evaluation
		// replication to keep fig3 tractable.
		runs = 8
	}
	steps := 10
	if opts.quick {
		steps = 6
	}
	loBps, hiBps := units.GBps(50), units.TBps(400)
	start := time.Now()
	for _, y := range years {
		for _, strat := range opts.strategies {
			cfg := repro.Config{
				Platform:    repro.Prospective(1000, y),
				Classes:     repro.APEXClasses(),
				Strategy:    strat,
				Seed:        opts.seed,
				HorizonDays: opts.days,
				Channels:    opts.channels,
			}
			bw, err := session.MinBandwidth(ctx, cfg, 0.8, loBps, hiBps, runs, steps)
			if err != nil {
				if errors.Is(err, context.Canceled) {
					cliutil.ExitInterrupted("paperfigs", err)
				}
				fmt.Printf("mtbf_years=%-4g %-18s unreachable (%v)\n", y, strat.Name(), err)
				continue
			}
			if opts.tsv {
				fmt.Printf("mtbf_years\t%g\t%s\t%.4f\n", y, strat.Name(), bw/units.TB)
			} else {
				fmt.Printf("mtbf_years=%-4g %-18s min bandwidth = %8.3f TB/s\n", y, strat.Name(), bw/units.TB)
			}
		}
		theory, err := repro.LowerBoundMinBandwidth(repro.Prospective(1000, y), repro.APEXClasses(), 0.2, loBps, hiBps)
		if err != nil {
			fatal(err)
		}
		if opts.tsv {
			fmt.Printf("mtbf_years\t%g\tTheoretical-Model\t%.4f\n", y, theory/units.TB)
		} else {
			fmt.Printf("mtbf_years=%-4g %-18s min bandwidth = %8.3f TB/s\n", y, "Theoretical-Model", theory/units.TB)
		}
	}
	fmt.Printf("-- fig3 done in %v --\n\n", time.Since(start).Round(time.Second))
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "paperfigs: %v\n", err)
	os.Exit(1)
}
