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
// the rows already printed stay flushed, and the command exits 130.
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
	"cmp"
	"context"
	"errors"
	"fmt"
	"io"
	"time"

	"repro"
	"repro/internal/api"
	"repro/internal/campaign"
	"repro/internal/cliutil"
	"repro/internal/resultcache"
	"repro/internal/stats"
	"repro/internal/units"
)

func main() { cliutil.Main("coopsim", run) }

func run(ctx context.Context, args []string, stdout, stderr io.Writer) error {
	fs := cliutil.NewFlagSet("coopsim", stderr)
	var (
		platformName = fs.String("platform", "cielo", "platform: cielo or prospective")
		bw           = fs.Float64("bw", 40, "aggregated PFS bandwidth in GB/s")
		mtbf         = fs.Float64("mtbf", 2, "node MTBF in years")
		strategyName = fs.String("strategy", "all", "comma-separated strategy names (see -list), 'all' or 'legend'")
		channels     = fs.String("channels", "1", "comma-separated token-channel counts k to sweep")
		runs         = fs.Int("runs", 20, "Monte-Carlo replications per strategy")
		workers      = fs.Int("workers", 0, "parallel workers (0 = GOMAXPROCS)")
		seed         = fs.Uint64("seed", 1, "master random seed")
		days         = fs.Float64("days", 60, "simulated segment length in days")
		tsv          = fs.Bool("tsv", false, "emit tab-separated values")
		list         = fs.Bool("list", false, "list the strategy registry (name, discipline, policy, blocking, device) and exit")
		theory       = fs.Bool("theory", true, "print the §4 lower bound")
		breakdown    = fs.Bool("breakdown", false, "print mean waste breakdown by category")
		sweepBW      = fs.String("sweep-bw", "", "sweep bandwidth lo:hi:step (GB/s); repeats the experiment per point")
		sweepMTBF    = fs.String("sweep-mtbf", "", "sweep node MTBF lo:hi:step (years)")
		targetCI     = fs.String("target-ci", "", "sequential stopping: halfWidth[:confidence[:minRuns[:maxRuns]]]; -runs becomes the replicate cap")
		antithetic   = fs.Bool("antithetic", false, "antithetic variates: replicate pairs share a seed, the odd member draws complemented streams")
		paired       = fs.Bool("paired", false, "paired CRN comparison: first strategy is the reference, CI (and -target-ci stopping) on per-replicate differences")
		cpuprofile   = fs.String("cpuprofile", "", "write a CPU profile to this file")
		memprofile   = fs.String("memprofile", "", "write a heap (allocs) profile to this file on exit")
		ndjson       = fs.Bool("ndjson", false, "emit coopsimd wire frames (api.StreamFrame NDJSON) instead of rows; runs the same streaming campaign path as the daemon, so output is bit-identical to GET /v1/campaigns/{id}/results")
		progressFlag = fs.Bool("progress", false, "report campaign progress (points done/total, replicates folded, cache hits) on stderr while running")
	)
	campaignFlags := cliutil.AddCampaignFlags(fs)
	cacheFlags := cliutil.AddCacheFlags(fs)
	if stop, err := cliutil.ParseFlags(fs, args, stdout); stop {
		return err
	}

	stopProfiles, err := cliutil.StartProfiles(*cpuprofile, *memprofile, stderr)
	if err != nil {
		return cliutil.UsageError(err)
	}
	defer stopProfiles()

	if *list {
		printRegistry(stdout)
		return nil
	}
	plat, errPlat := cliutil.Platform(*platformName, *bw, *mtbf)
	strategies, errStrat := cliutil.Strategies(*strategyName)
	channelCounts, errChan := cliutil.Channels(*channels)
	tci, errCI := cliutil.TargetCI(*targetCI)
	if err := cmp.Or(errPlat, errStrat, errChan, errCI); err != nil {
		return cliutil.UsageError(err)
	}
	cache, err := cacheFlags.Open()
	if err != nil {
		return cliutil.UsageError(err)
	}

	// -ndjson emits the daemon's wire framing by running the identical
	// streaming campaign path; one point frame per line on stdout.
	var emitFrame func(campaign.PointResult) error
	if *ndjson {
		if *tsv || *breakdown || *paired {
			return cliutil.UsageError(errors.New("-ndjson replaces row output; it is incompatible with -tsv, -breakdown and -paired"))
		}
		emitFrame = func(pr campaign.PointResult) error {
			p := api.FromPointResult(pr)
			b, err := api.EncodeJSON(api.StreamFrame{Point: &p})
			if err != nil {
				return err
			}
			stdout.Write(b)
			return nil
		}
	}

	if *tsv {
		fmt.Fprintln(stdout, "strategy\tbandwidth_gbps\tmtbf_years\tchannels\t"+stats.TSVHeader()+"\truns_used\tci_half_width\tcached")
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
			return cliutil.UsageError(err)
		}
		for _, b := range vals {
			grid.BandwidthsBps = append(grid.BandwidthsBps, units.GBps(b))
		}
	case *sweepMTBF != "":
		vals, err := cliutil.SweepValues(*sweepMTBF)
		if err != nil {
			return cliutil.UsageError(err)
		}
		for _, y := range vals {
			grid.NodeMTBFSeconds = append(grid.NodeMTBFSeconds, units.Years(y))
		}
	}

	nStrats := len(strategies)
	// cachedRows counts grid cells served without simulating — in-grid
	// k-axis deduplication plus -cache-dir hits — for the closing summary.
	cachedRows, totalRows := 0, 0
	// printRow counts one grid cell and renders it (under -ndjson its
	// wire frame is the row); printTheory the §4 bound closing each
	// scenario block. Shared by the plain-session and campaign paths.
	printRow := func(pt repro.SweepPoint, mc repro.MCResult) {
		totalRows++
		if mc.Cached {
			cachedRows++
		}
		if *ndjson {
			return
		}
		bwGBps := pt.BandwidthBps / units.GB
		mtbfYears := pt.NodeMTBFSeconds / units.Year
		p := pt.Apply(base).Platform
		if !*tsv && pt.Index%nStrats == 0 {
			fmt.Fprintf(stdout, "platform=%s bandwidth=%s nodeMTBF=%.1fy systemMTBF=%s channels=%d runs=%d days=%.0f seed=%d\n",
				p.Name, units.FormatBandwidth(p.BandwidthBps), mtbfYears,
				units.FormatDuration(p.SystemMTBF()), pt.Channels, *runs, *days, *seed)
			fmt.Fprintf(stdout, "%-20s %8s %8s %8s %8s %8s %8s %6s %9s\n",
				"strategy", "mean", "p10", "p25", "p75", "p90", "util", "runs", "±ci")
		}
		s := mc.Summary
		if *tsv {
			fmt.Fprintf(stdout, "%s\t%g\t%g\t%d\t%s\t%d\t%.6g\t%d\n",
				mc.Strategy, bwGBps, mtbfYears, pt.Channels, s.TSVRow(), mc.RunsUsed, mc.CIHalfWidth, boolInt(mc.Cached))
		} else {
			mark := ""
			if mc.Cached {
				mark = "  (cached)"
			}
			fmt.Fprintf(stdout, "%-20s %8.4f %8.4f %8.4f %8.4f %8.4f %8.3f %6d %9.5f%s\n",
				mc.Strategy, s.Mean, s.P10, s.P25, s.P75, s.P90, mc.MeanUtilization,
				mc.RunsUsed, mc.CIHalfWidth, mark)
			if *breakdown {
				printBreakdown(stdout, mc)
			}
		}
	}
	printTheory := func(pt repro.SweepPoint) error {
		if *ndjson || !*theory || (pt.Index+1)%nStrats != 0 {
			return nil
		}
		bwGBps := pt.BandwidthBps / units.GB
		mtbfYears := pt.NodeMTBFSeconds / units.Year
		p := pt.Apply(base).Platform
		sol, err := repro.LowerBound(p, repro.APEXClasses())
		if err != nil {
			return fmt.Errorf("lower bound: %w", err)
		}
		if *tsv {
			// Columns match stats.TSVHeader: n=1, stddev=0, every order
			// statistic collapses to the deterministic bound, and the
			// trailing runs_used/ci_half_width/cached triple is 1/0/0 —
			// the bound costs one evaluation, carries no Monte-Carlo
			// error, and is recomputed rather than cached.
			fmt.Fprintf(stdout, "Theoretical-Model\t%g\t%g\t%d\t1\t%.6f\t0\t%.6f\t%.6f\t%.6f\t%.6f\t%.6f\t%.6f\t%.6f\t1\t0\t0\n",
				bwGBps, mtbfYears, pt.Channels, sol.Waste, sol.Waste, sol.Waste, sol.Waste, sol.Waste, sol.Waste, sol.Waste, sol.Waste)
		} else {
			fmt.Fprintf(stdout, "%-20s %8.4f   (λ=%.4g, F=%.3f, constrained=%v)\n",
				"Theoretical-Model", sol.Waste, sol.Lambda, sol.IOFraction, sol.Constrained)
		}
		return nil
	}

	if campaignFlags.Enabled() || *ndjson {
		// The campaign layer owns its streaming session (the only path
		// with O(1) resumable state), so the exact-candlestick and
		// per-run-detail options are out: quantiles beyond 64 runs are
		// online P² estimates, and -breakdown/-paired need per-run data
		// the journal never stores.
		if *breakdown || *paired {
			return cliutil.UsageError(errors.New("-journal/-resume/-point-timeout run the streaming campaign path; -breakdown and -paired are not supported there"))
		}
		copts, err := campaignFlags.CampaignOptions("", *workers, *antithetic, tci)
		if err != nil {
			return cliutil.UsageError(err)
		}
		if cache != nil {
			copts.Cache = cache
		}
		camp := campaign.New(copts)
		stopProgress := func() {}
		if *progressFlag {
			stopProgress = startProgressReporter(camp, stderr)
		}
		err = runCampaign(ctx, camp, base, grid, *runs, stderr, printRow, printTheory, emitFrame)
		stopProgress()
		if err != nil {
			return err
		}
		printCacheSummary(stderr, cache, cachedRows, totalRows)
		return nil
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
				fmt.Fprintf(stderr, "coopsim: progress: replicates %d/%d\n", done, total)
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
			return cliutil.UsageError(errors.New("-paired needs a single scenario point (no sweeps, one -channels count)"))
		}
		base.Channels = channelCounts[0]
		return runPaired(ctx, stdout, session, base, strategies, *runs, *tsv)
	}

	points, errf := session.Sweep(ctx, base, grid, *runs)
	for pt, mc := range points {
		printRow(pt, mc)
		if err := printTheory(pt); err != nil {
			return err
		}
	}
	if err := errf(); err != nil {
		return err
	}
	printCacheSummary(stderr, cache, cachedRows, totalRows)
	return nil
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
func printCacheSummary(stderr io.Writer, cache *resultcache.Cache, cachedRows, totalRows int) {
	if cachedRows > 0 {
		fmt.Fprintf(stderr, "coopsim: %d of %d grid cell(s) served from cache/dedup\n", cachedRows, totalRows)
	}
	cliutil.ReportCacheStats(stderr, "coopsim", cache)
}

// startProgressReporter prints the campaign's progress snapshot to
// stderr once a second until the returned stop function runs (which
// prints a final snapshot).
func startProgressReporter(camp *campaign.Campaign, stderr io.Writer) (stop func()) {
	report := func() {
		p := camp.Snapshot()
		fmt.Fprintf(stderr, "coopsim: progress: points %d/%d (%d failed, %d restored), replicates %d/%d, cache hits %d\n",
			p.PointsDone, p.PointsTotal, p.PointsFailed, p.PointsRestored,
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
// journaled progress and per-point quarantine. Rows are counted and
// print as on the plain path (emit, when set, writes their wire frames);
// failed points go to stderr and make the command exit 3 after the whole
// grid has been given its chance — one poisoned point does not abort a
// sweep.
func runCampaign(ctx context.Context, camp *campaign.Campaign, base repro.Config, grid repro.SweepGrid, runs int, stderr io.Writer, printRow func(repro.SweepPoint, repro.MCResult), printTheory func(repro.SweepPoint) error, emit func(campaign.PointResult) error) error {
	seq, errf := camp.RunSweep(ctx, base, grid, runs)
	restored, failed := 0, 0
	for pr := range seq {
		if emit != nil {
			if err := emit(pr); err != nil {
				return err
			}
		}
		switch pr.Status {
		case campaign.StatusDone:
			if pr.Restored {
				restored++
			}
			printRow(pr.Point, pr.MC)
		case campaign.StatusFailed:
			failed++
			fmt.Fprintf(stderr, "coopsim: %v\n", pr.Err)
		}
		if err := printTheory(pr.Point); err != nil {
			return err
		}
	}
	// A cancelled campaign's journal is already durable: the campaign
	// closes it on every exit, so Ctrl-C + -resume loses no completed
	// work.
	if err := errf(); err != nil {
		return err
	}
	if restored > 0 {
		fmt.Fprintf(stderr, "coopsim: %d point(s) restored from journal\n", restored)
	}
	if failed > 0 {
		return cliutil.DegradedError(fmt.Errorf("campaign degraded: %d failed point(s); rerun with -resume to retry them", failed))
	}
	return nil
}

// runPaired runs the -paired experiment: one ComparePaired call on a
// single scenario, printing each strategy's aggregate row followed by the
// paired-difference table (Δmean against the reference strategy with its
// CRN-tightened confidence interval and the variance-reduction
// diagnostics). In TSV mode the comparison table follows the strategy
// rows after a blank line, with its own header.
func runPaired(ctx context.Context, stdout io.Writer, session *repro.Session, base repro.Config, strategies []repro.Strategy, runs int, tsv bool) error {
	mcs, cmps, err := session.ComparePaired(ctx, base, strategies, runs)
	if err != nil {
		return err
	}
	bwGBps := base.Platform.BandwidthBps / units.GB
	mtbfYears := base.Platform.NodeMTBFSeconds / units.Year
	if !tsv {
		fmt.Fprintf(stdout, "platform=%s bandwidth=%s nodeMTBF=%.1fy channels=%d runs<=%d days=%.0f seed=%d (paired vs %s)\n",
			base.Platform.Name, units.FormatBandwidth(base.Platform.BandwidthBps), mtbfYears,
			base.Channels, runs, base.HorizonDays, base.Seed, mcs[0].Strategy)
		fmt.Fprintf(stdout, "%-20s %8s %8s %8s %8s %8s %6s %9s\n",
			"strategy", "mean", "p10", "p25", "p75", "p90", "runs", "±ci")
	}
	for _, mc := range mcs {
		s := mc.Summary
		if tsv {
			fmt.Fprintf(stdout, "%s\t%g\t%g\t%d\t%s\t%d\t%.6g\t0\n",
				mc.Strategy, bwGBps, mtbfYears, base.Channels, s.TSVRow(), mc.RunsUsed, mc.CIHalfWidth)
		} else {
			fmt.Fprintf(stdout, "%-20s %8.4f %8.4f %8.4f %8.4f %8.4f %6d %9.5f\n",
				mc.Strategy, s.Mean, s.P10, s.P25, s.P75, s.P90, mc.RunsUsed, mc.CIHalfWidth)
		}
	}
	if tsv {
		fmt.Fprintln(stdout)
		fmt.Fprintln(stdout, "pair_strategy\treference\tn\tmean_diff\tci_half_width\tconfidence\tcorrelation\tvariance_reduction")
		for _, c := range cmps {
			fmt.Fprintf(stdout, "%s\t%s\t%d\t%.6g\t%.6g\t%g\t%.4f\t%.4g\n",
				c.Strategy, c.Reference, c.N, c.MeanDiff, c.CIHalfWidth, c.Confidence, c.Correlation, c.VarianceReduction)
		}
		return nil
	}
	fmt.Fprintf(stdout, "paired differences (CRN, %g%% CI):\n", 100*cmps[0].Confidence)
	fmt.Fprintf(stdout, "%-20s %10s %10s %6s %7s %8s\n",
		"strategy", "Δmean", "±ci", "n", "corr", "var-red")
	for _, c := range cmps {
		fmt.Fprintf(stdout, "%-20s %+10.5f %10.5f %6d %7.4f %8.1f\n",
			c.Strategy, c.MeanDiff, c.CIHalfWidth, c.N, c.Correlation, c.VarianceReduction)
	}
	return nil
}

// printRegistry renders the strategy registry as the table embedded in
// the README (regenerate it from this output after registering a new
// strategy).
func printRegistry(stdout io.Writer) {
	fmt.Fprintln(stdout, "name\tdiscipline\tperiod policy\tcheckpoint wait\tdevice")
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
		fmt.Fprintf(stdout, "%s\t%s\t%s\t%s\t%s\n", s.Name(), d.Name(), s.Policy.Label(), wait, device)
	}
}

func printBreakdown(stdout io.Writer, mc repro.MCResult) {
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
	fmt.Fprint(stdout, "    breakdown:")
	for _, cat := range []string{"checkpoint", "wait", "dilation", "recovery", "lost-work", "aborted-io"} {
		fmt.Fprintf(stdout, " %s=%.1f%%", cat, 100*agg[cat]/total)
	}
	fmt.Fprintln(stdout)
}
