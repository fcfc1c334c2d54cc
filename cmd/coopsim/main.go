// Command coopsim runs cooperative-checkpointing simulations from the
// command line: any set of registered strategies on the Cielo or
// prospective platform, with Monte-Carlo replication and candlestick
// output. Strategies resolve by name from the engine registry (-list
// prints the table), so disciplines added through engine.RegisterStrategy
// are sweepable here with no CLI changes.
//
// The whole experiment runs through one repro.Session: a single warm set
// of per-worker simulation arenas serves every (scenario × strategy) cell,
// and SIGINT cancels the campaign gracefully — in-flight workers drain,
// the rows already printed stay flushed, and the command exits non-zero.
//
// Monte-Carlo replication streams through the engine's O(1)-memory path
// unless -breakdown needs the per-run details, so -runs scales to paper
// sizes and beyond without memory growth.
//
// Examples:
//
//	coopsim -bw 40 -mtbf 2 -runs 100                 # all strategies on Cielo
//	coopsim -strategy Least-Waste -bw 80 -runs 1000  # one strategy
//	coopsim -strategy Least-Waste,Fair-Share         # paired subset
//	coopsim -channels 1,2,4 -tsv                     # token-channel sweep
//	coopsim -platform prospective -bw 2000 -mtbf 15  # future system
//	coopsim -tsv > results.tsv                       # machine-readable
//	coopsim -sweep-bw 40:160:20 -journal c.journal   # crash-safe campaign
//	coopsim -sweep-bw 40:160:20 -journal c.journal -resume  # continue it
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"time"

	"repro"
	"repro/internal/api"
	"repro/internal/campaign"
	"repro/internal/cliutil"
	"repro/internal/resultcache"
	"repro/internal/units"
)

func main() {
	var (
		platformName = flag.String("platform", "cielo", "platform: cielo or prospective")
		bw           = flag.Float64("bw", 40, "aggregated PFS bandwidth in GB/s")
		mtbf         = flag.Float64("mtbf", 2, "node MTBF in years")
		strategyName = flag.String("strategy", "all", "comma-separated strategy names (see -list), 'all' or 'legend'")
		channels     = flag.String("channels", "1", "comma-separated token-channel counts k to sweep")
		runs         = flag.Int("runs", 20, "Monte-Carlo replications per strategy")
		workers      = flag.Int("workers", 0, "parallel workers (0 = GOMAXPROCS)")
		seed         = flag.Uint64("seed", 1, "master random seed")
		days         = flag.Float64("days", 60, "simulated segment length in days")
		tsv          = flag.Bool("tsv", false, "emit tab-separated values")
		list         = flag.Bool("list", false, "list the strategy registry (name, discipline, policy, blocking, device) and exit")
		theory       = flag.Bool("theory", true, "print the §4 lower bound")
		breakdown    = flag.Bool("breakdown", false, "print mean waste breakdown by category")
		sweepBW      = flag.String("sweep-bw", "", "sweep bandwidth lo:hi:step (GB/s); repeats the experiment per point")
		sweepMTBF    = flag.String("sweep-mtbf", "", "sweep node MTBF lo:hi:step (years)")
		targetCI     = flag.String("target-ci", "", "sequential stopping: halfWidth[:confidence[:minRuns[:maxRuns]]]; -runs becomes the replicate cap")
		antithetic   = flag.Bool("antithetic", false, "antithetic variates: replicate pairs share a seed, the odd member draws complemented streams")
		paired       = flag.Bool("paired", false, "paired CRN comparison: first strategy is the reference, CI (and -target-ci stopping) on per-replicate differences")
		cpuprofile   = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memprofile   = flag.String("memprofile", "", "write a heap (allocs) profile to this file on exit")
		ndjson       = flag.Bool("ndjson", false, "emit coopsimd wire frames (api.StreamFrame NDJSON) instead of rows; runs the same streaming campaign path as the daemon, so output is bit-identical to GET /v1/campaigns/{id}/results")
		progressFlag = flag.Bool("progress", false, "report campaign progress (points done/total, replicates folded, cache hits) on stderr while running")
	)
	campaignFlags := cliutil.AddCampaignFlags(flag.CommandLine)
	cacheFlags := cliutil.AddCacheFlags(flag.CommandLine)
	version := cliutil.AddVersionFlag(flag.CommandLine)
	flag.Parse()
	cliutil.HandleVersion("coopsim", *version)

	fail := func(err error) {
		fmt.Fprintf(os.Stderr, "coopsim: %v\n", err)
		os.Exit(2)
	}
	stopProfiles, err := cliutil.StartProfiles(*cpuprofile, *memprofile)
	if err != nil {
		fail(err)
	}
	defer stopProfiles()

	if *list {
		printRegistry()
		return
	}
	plat, err := cliutil.Platform(*platformName, *bw, *mtbf)
	if err != nil {
		fail(err)
	}
	strategies, err := cliutil.Strategies(*strategyName)
	if err != nil {
		fail(err)
	}
	channelCounts, err := cliutil.Channels(*channels)
	if err != nil {
		fail(err)
	}
	tci, err := cliutil.TargetCI(*targetCI)
	if err != nil {
		fail(err)
	}
	cache, err := cacheFlags.Open()
	if err != nil {
		fail(err)
	}

	// -ndjson emits the daemon's wire framing by running the identical
	// streaming campaign path; one point frame per line on stdout.
	var emitFrame func(campaign.PointResult)
	if *ndjson {
		if *tsv || *breakdown || *paired {
			fail(errors.New("-ndjson replaces row output; it is incompatible with -tsv, -breakdown and -paired"))
		}
		emitFrame = func(pr campaign.PointResult) {
			p := api.FromPointResult(pr)
			b, err := api.EncodeJSON(api.StreamFrame{Point: &p})
			if err != nil {
				fail(err)
			}
			os.Stdout.Write(b)
		}
	}

	if *tsv {
		fmt.Println("strategy\tbandwidth_gbps\tmtbf_years\tchannels\t" + tsvHeader() + "\truns_used\tci_half_width\tcached")
	}

	// The whole experiment — one point or a -sweep-* series, times the
	// strategy set — is a single scenario grid pulled through one
	// session, so every point reuses the same per-worker simulation
	// arenas and SIGINT aborts the campaign at a replicate boundary.
	base := repro.Config{
		Platform:    plat,
		Classes:     repro.APEXClasses(),
		Seed:        *seed,
		HorizonDays: *days,
	}
	grid := repro.SweepGrid{Strategies: strategies, Channels: channelCounts}
	switch {
	case *sweepBW != "":
		vals, err := cliutil.SweepValues(*sweepBW)
		if err != nil {
			fail(err)
		}
		for _, b := range vals {
			grid.BandwidthsBps = append(grid.BandwidthsBps, units.GBps(b))
		}
	case *sweepMTBF != "":
		vals, err := cliutil.SweepValues(*sweepMTBF)
		if err != nil {
			fail(err)
		}
		for _, y := range vals {
			grid.NodeMTBFSeconds = append(grid.NodeMTBFSeconds, units.Years(y))
		}
	}

	ctx, cancel := cliutil.InterruptContext()
	defer cancel()

	nStrats := len(strategies)
	// cachedRows counts grid cells served without simulating — in-grid
	// k-axis deduplication plus -cache-dir hits — for the closing summary.
	cachedRows, totalRows := 0, 0
	// printRow renders one grid cell; printTheory the §4 bound closing
	// each scenario block. Shared by the plain-session and campaign
	// paths.
	printRow := func(pt repro.SweepPoint, mc repro.MCResult) {
		totalRows++
		if mc.Cached {
			cachedRows++
		}
		bwGBps := pt.BandwidthBps / units.GB
		mtbfYears := pt.NodeMTBFSeconds / units.Year
		p := base.Platform
		p.BandwidthBps = pt.BandwidthBps
		p.NodeMTBFSeconds = pt.NodeMTBFSeconds
		if !*tsv && pt.Index%nStrats == 0 {
			fmt.Printf("platform=%s bandwidth=%s nodeMTBF=%.1fy systemMTBF=%s channels=%d runs=%d days=%.0f seed=%d\n",
				p.Name, units.FormatBandwidth(p.BandwidthBps), mtbfYears,
				units.FormatDuration(p.SystemMTBF()), pt.Channels, *runs, *days, *seed)
			fmt.Printf("%-20s %8s %8s %8s %8s %8s %8s %6s %9s\n",
				"strategy", "mean", "p10", "p25", "p75", "p90", "util", "runs", "±ci")
		}
		s := mc.Summary
		if *tsv {
			fmt.Printf("%s\t%g\t%g\t%d\t%s\t%d\t%.6g\t%d\n",
				mc.Strategy, bwGBps, mtbfYears, pt.Channels, s.TSVRow(), mc.RunsUsed, mc.CIHalfWidth, boolInt(mc.Cached))
		} else {
			mark := ""
			if mc.Cached {
				mark = "  (cached)"
			}
			fmt.Printf("%-20s %8.4f %8.4f %8.4f %8.4f %8.4f %8.3f %6d %9.5f%s\n",
				mc.Strategy, s.Mean, s.P10, s.P25, s.P75, s.P90, mc.MeanUtilization,
				mc.RunsUsed, mc.CIHalfWidth, mark)
			if *breakdown {
				printBreakdown(mc)
			}
		}
	}
	printTheory := func(pt repro.SweepPoint) {
		if *ndjson || !*theory || (pt.Index+1)%nStrats != 0 {
			return
		}
		bwGBps := pt.BandwidthBps / units.GB
		mtbfYears := pt.NodeMTBFSeconds / units.Year
		p := base.Platform
		p.BandwidthBps = pt.BandwidthBps
		p.NodeMTBFSeconds = pt.NodeMTBFSeconds
		sol, err := repro.LowerBound(p, repro.APEXClasses())
		if err != nil {
			fmt.Fprintf(os.Stderr, "coopsim: lower bound: %v\n", err)
			os.Exit(1)
		}
		if *tsv {
			// Columns match tsvHeader: n=1, stddev=0, every order
			// statistic collapses to the deterministic bound, and the
			// trailing runs_used/ci_half_width/cached triple is 1/0/0 —
			// the bound costs one evaluation, carries no Monte-Carlo
			// error, and is recomputed rather than cached.
			fmt.Printf("Theoretical-Model\t%g\t%g\t%d\t1\t%.6f\t0\t%.6f\t%.6f\t%.6f\t%.6f\t%.6f\t%.6f\t%.6f\t1\t0\t0\n",
				bwGBps, mtbfYears, pt.Channels, sol.Waste, sol.Waste, sol.Waste, sol.Waste, sol.Waste, sol.Waste, sol.Waste, sol.Waste)
		} else {
			fmt.Printf("%-20s %8.4f   (λ=%.4g, F=%.3f, constrained=%v)\n",
				"Theoretical-Model", sol.Waste, sol.Lambda, sol.IOFraction, sol.Constrained)
		}
	}

	if campaignFlags.Enabled() || *ndjson {
		// The campaign layer owns its streaming session (the only path
		// with O(1) resumable state), so the exact-candlestick and
		// per-run-detail options are out: quantiles beyond 64 runs are
		// online P² estimates, and -breakdown/-paired need per-run data
		// the journal never stores.
		if *breakdown || *paired {
			fail(fmt.Errorf("-journal/-resume/-retry/-point-timeout run the streaming campaign path; -breakdown and -paired are not supported there"))
		}
		copts, err := campaignFlags.CampaignOptions("", *workers, *antithetic, tci, nil)
		if err != nil {
			fail(err)
		}
		if cache != nil {
			copts.Cache = cache
		}
		camp := campaign.New(copts)
		stopProgress := func() {}
		if *progressFlag {
			stopProgress = startProgressReporter(camp)
		}
		runCampaign(ctx, camp, base, grid, *runs, stopProfiles, printRow, printTheory, emitFrame)
		stopProgress()
		printCacheSummary(cache, cachedRows, totalRows)
		return
	}

	// Exact candlesticks need only the waste ratios; the per-run
	// Result structs are materialised solely for -breakdown.
	sopts := []repro.SessionOption{
		repro.WithWorkers(*workers),
		repro.WithKeepWasteRatios(true),
		repro.WithKeepResults(*breakdown),
		repro.WithAntithetic(*antithetic),
		repro.WithTargetCI(tci.HalfWidth, tci.Confidence, tci.MinRuns, tci.MaxRuns),
	}
	if *progressFlag {
		// The plain path has no campaign snapshot; report folded
		// replicates at decile boundaries instead.
		lastDecile := -1
		sopts = append(sopts, repro.WithProgress(func(done, total int) {
			if total <= 0 {
				return
			}
			if d := done * 10 / total; d != lastDecile {
				lastDecile = d
				fmt.Fprintf(os.Stderr, "coopsim: progress: replicates %d/%d\n", done, total)
			}
		}))
	}
	if cache != nil {
		sopts = append(sopts, repro.WithResultCache(cache))
	}
	session := repro.NewSession(sopts...)

	if *paired {
		// The paired comparison is a single-scenario experiment: the
		// differences only pair when every strategy sees one scenario.
		if *sweepBW != "" || *sweepMTBF != "" || len(channelCounts) != 1 {
			fail(fmt.Errorf("-paired needs a single scenario point (no sweeps, one -channels count)"))
		}
		base.Channels = channelCounts[0]
		runPaired(ctx, session, base, strategies, *runs, *tsv)
		return
	}

	points, errf := session.Sweep(ctx, base, grid, *runs)
	for pt, mc := range points {
		printRow(pt, mc)
		printTheory(pt)
	}
	if err := errf(); err != nil {
		if errors.Is(err, context.Canceled) {
			cliutil.ExitInterrupted("coopsim", err)
		}
		stopProfiles()
		fmt.Fprintf(os.Stderr, "coopsim: %v\n", err)
		os.Exit(1)
	}
	printCacheSummary(cache, cachedRows, totalRows)
}

// boolInt renders a flag as the 0/1 a TSV column wants.
func boolInt(b bool) int {
	if b {
		return 1
	}
	return 0
}

// printCacheSummary reports how much of the grid was served without
// simulating — in-grid deduplication plus -cache-dir hits — and, when a
// disk cache was attached, its traffic counters.
func printCacheSummary(cache *resultcache.Cache, cachedRows, totalRows int) {
	if cachedRows > 0 {
		fmt.Fprintf(os.Stderr, "coopsim: %d of %d grid cell(s) served from cache/dedup\n", cachedRows, totalRows)
	}
	cliutil.ReportCacheStats("coopsim", cache)
}

// startProgressReporter prints the campaign's progress snapshot to
// stderr once a second until the returned stop function runs (which
// prints a final snapshot).
func startProgressReporter(camp *campaign.Campaign) (stop func()) {
	report := func() {
		p := camp.Snapshot()
		fmt.Fprintf(os.Stderr, "coopsim: progress: points %d/%d (%d failed, %d skipped, %d restored), replicates %d/%d, cache hits %d\n",
			p.PointsDone, p.PointsTotal, p.PointsFailed, p.PointsSkipped, p.PointsRestored,
			p.ReplicatesFolded, p.ReplicatesTotal, p.CacheHits)
	}
	done := make(chan struct{})
	finished := make(chan struct{})
	go func() {
		defer close(finished)
		t := time.NewTicker(time.Second)
		defer t.Stop()
		for {
			select {
			case <-t.C:
				report()
			case <-done:
				report()
				return
			}
		}
	}()
	return func() {
		close(done)
		<-finished
	}
}

// runCampaign drives the grid through the durable campaign layer:
// journaled progress, per-point retry/quarantine, circuit breaking. Rows
// print as on the plain path (or as wire frames when emit is set);
// failed and skipped points go to stderr and make the command exit
// non-zero after the whole grid has been given its chance — one
// poisoned point does not abort a sweep.
func runCampaign(ctx context.Context, camp *campaign.Campaign, base repro.Config, grid repro.SweepGrid, runs int, stopProfiles func(), printRow func(repro.SweepPoint, repro.MCResult), printTheory func(repro.SweepPoint), emit func(campaign.PointResult)) {
	seq, errf := camp.RunSweep(ctx, base, grid, runs)
	restored, failed, skipped := 0, 0, 0
	for pr := range seq {
		switch pr.Status {
		case campaign.StatusDone:
			if pr.Restored {
				restored++
			}
			if emit != nil {
				emit(pr)
			} else {
				printRow(pr.Point, pr.MC)
			}
		case campaign.StatusFailed:
			failed++
			if emit != nil {
				emit(pr)
			}
			fmt.Fprintf(os.Stderr, "coopsim: %v\n", pr.Err)
		case campaign.StatusSkipped:
			skipped++
			if emit != nil {
				emit(pr)
			}
			fmt.Fprintf(os.Stderr, "coopsim: point %d (%s) skipped: %v\n",
				pr.Point.Index, pr.Point.Strategy.Name(), pr.Err)
		}
		printTheory(pr.Point)
	}
	if err := errf(); err != nil {
		if errors.Is(err, context.Canceled) {
			// The journal is already sealed durable by the campaign's
			// close path: Ctrl-C + -resume loses no completed work.
			cliutil.ExitInterrupted("coopsim", err)
		}
		stopProfiles()
		fmt.Fprintf(os.Stderr, "coopsim: %v\n", err)
		os.Exit(1)
	}
	if restored > 0 {
		fmt.Fprintf(os.Stderr, "coopsim: %d point(s) restored from journal\n", restored)
	}
	if failed > 0 || skipped > 0 {
		stopProfiles()
		fmt.Fprintf(os.Stderr, "coopsim: campaign degraded: %d failed, %d skipped point(s); rerun with -resume to retry them\n", failed, skipped)
		os.Exit(3)
	}
}

// runPaired runs the -paired experiment: one ComparePaired call on a
// single scenario, printing each strategy's aggregate row followed by the
// paired-difference table (Δmean against the reference strategy with its
// CRN-tightened confidence interval and the variance-reduction
// diagnostics). In TSV mode the comparison table follows the strategy
// rows after a blank line, with its own header.
func runPaired(ctx context.Context, session *repro.Session, base repro.Config, strategies []repro.Strategy, runs int, tsv bool) {
	mcs, cmps, err := session.ComparePaired(ctx, base, strategies, runs)
	if err != nil {
		if errors.Is(err, context.Canceled) {
			cliutil.ExitInterrupted("coopsim", err)
		}
		fmt.Fprintf(os.Stderr, "coopsim: %v\n", err)
		os.Exit(1)
	}
	bwGBps := base.Platform.BandwidthBps / units.GB
	mtbfYears := base.Platform.NodeMTBFSeconds / units.Year
	if !tsv {
		fmt.Printf("platform=%s bandwidth=%s nodeMTBF=%.1fy channels=%d runs<=%d days=%.0f seed=%d (paired vs %s)\n",
			base.Platform.Name, units.FormatBandwidth(base.Platform.BandwidthBps), mtbfYears,
			base.Channels, runs, base.HorizonDays, base.Seed, mcs[0].Strategy)
		fmt.Printf("%-20s %8s %8s %8s %8s %8s %6s %9s\n",
			"strategy", "mean", "p10", "p25", "p75", "p90", "runs", "±ci")
	}
	for _, mc := range mcs {
		s := mc.Summary
		if tsv {
			fmt.Printf("%s\t%g\t%g\t%d\t%s\t%d\t%.6g\t0\n",
				mc.Strategy, bwGBps, mtbfYears, base.Channels, s.TSVRow(), mc.RunsUsed, mc.CIHalfWidth)
		} else {
			fmt.Printf("%-20s %8.4f %8.4f %8.4f %8.4f %8.4f %6d %9.5f\n",
				mc.Strategy, s.Mean, s.P10, s.P25, s.P75, s.P90, mc.RunsUsed, mc.CIHalfWidth)
		}
	}
	if tsv {
		fmt.Println()
		fmt.Println("pair_strategy\treference\tn\tmean_diff\tci_half_width\tconfidence\tcorrelation\tvariance_reduction")
		for _, c := range cmps {
			fmt.Printf("%s\t%s\t%d\t%.6g\t%.6g\t%g\t%.4f\t%.4g\n",
				c.Strategy, c.Reference, c.N, c.MeanDiff, c.CIHalfWidth, c.Confidence, c.Correlation, c.VarianceReduction)
		}
		return
	}
	fmt.Printf("paired differences (CRN, %g%% CI):\n", 100*cmps[0].Confidence)
	fmt.Printf("%-20s %10s %10s %6s %7s %8s\n",
		"strategy", "Δmean", "±ci", "n", "corr", "var-red")
	for _, c := range cmps {
		fmt.Printf("%-20s %+10.5f %10.5f %6d %7.4f %8.1f\n",
			c.Strategy, c.MeanDiff, c.CIHalfWidth, c.N, c.Correlation, c.VarianceReduction)
	}
}

// printRegistry renders the strategy registry as the table embedded in
// the README (regenerate it from this output after registering a new
// strategy).
func printRegistry() {
	fmt.Println("name\tdiscipline\tperiod policy\tcheckpoint wait\tdevice")
	for _, s := range repro.AllStrategies() {
		d := s.Discipline
		wait := "blocking"
		if d.NonBlockingCheckpoints() {
			wait = "non-blocking"
		}
		device := "shared (processor sharing)"
		if d.UsesToken() {
			device = "token (k channels)"
		}
		fmt.Printf("%s\t%s\t%s\t%s\t%s\n", s.Name(), d.Name(), s.Policy.Label(), wait, device)
	}
}

func tsvHeader() string {
	return "n\tmean\tstddev\tmin\tp10\tp25\tp50\tp75\tp90\tmax"
}

func printBreakdown(mc repro.MCResult) {
	agg := map[string]float64{}
	var total float64
	for _, r := range mc.Results {
		for cat, v := range r.WasteByCategory() {
			agg[cat] += v
			total += v
		}
	}
	if total == 0 {
		return
	}
	fmt.Printf("    breakdown:")
	for _, cat := range []string{"checkpoint", "wait", "dilation", "recovery", "lost-work", "aborted-io"} {
		fmt.Printf(" %s=%.1f%%", cat, 100*agg[cat]/total)
	}
	fmt.Println()
}
