// Command traceview runs one simulation and dumps its event trace as CSV,
// for debugging scheduling behaviour and for building timelines of the
// cooperative scheduler's decisions.
//
// Examples:
//
//	traceview -strategy Least-Waste -days 2 | head -50
//	traceview -bw 40 -mtbf 2 -kinds ckpt-grant,ckpt-commit > grants.csv
//	traceview -summary            # per-kind event counts only
package main

import (
	"bufio"
	"context"
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"

	"repro"
	"repro/internal/cliutil"
)

func main() {
	var (
		platformName = flag.String("platform", "cielo", "platform: cielo or prospective")
		bw           = flag.Float64("bw", 40, "aggregated PFS bandwidth in GB/s")
		mtbf         = flag.Float64("mtbf", 2, "node MTBF in years")
		strategyName = flag.String("strategy", "Least-Waste", "strategy name")
		seed         = flag.Uint64("seed", 1, "random seed")
		days         = flag.Float64("days", 2, "simulated days")
		kinds        = flag.String("kinds", "", "comma-separated event kinds to keep (default all)")
		summary      = flag.Bool("summary", false, "print per-kind counts instead of the trace")
		limit        = flag.Int("limit", 0, "stop after this many trace rows (0 = unlimited)")
	)
	version := cliutil.AddVersionFlag(flag.CommandLine)
	flag.Parse()
	cliutil.HandleVersion("traceview", *version)

	var p repro.Platform
	switch *platformName {
	case "cielo":
		p = repro.Cielo(*bw, *mtbf)
	case "prospective":
		p = repro.Prospective(*bw, *mtbf)
	default:
		fmt.Fprintf(os.Stderr, "traceview: unknown platform %q\n", *platformName)
		os.Exit(2)
	}
	strat, ok := repro.StrategyByName(*strategyName)
	if !ok {
		fmt.Fprintf(os.Stderr, "traceview: unknown strategy %q\n", *strategyName)
		os.Exit(2)
	}

	keep := map[string]bool{}
	for _, k := range strings.Split(*kinds, ",") {
		if k = strings.TrimSpace(k); k != "" {
			keep[k] = true
		}
	}

	out := bufio.NewWriter(os.Stdout)
	defer out.Flush()

	counts := map[string]int{}
	rows := 0
	cfg := repro.Config{
		Platform:    p,
		Classes:     repro.APEXClasses(),
		Strategy:    strat,
		Seed:        *seed,
		HorizonDays: *days,
		// Keep generation proportional to the short horizon.
		Gen: repro.GenConfig{MinDays: *days, Buffer: 1.15, ShareTol: 0.05},
		Trace: func(ev repro.TraceEvent) {
			counts[ev.Kind]++
			if *summary {
				return
			}
			if len(keep) > 0 && !keep[ev.Kind] {
				return
			}
			if *limit > 0 && rows >= *limit {
				return
			}
			rows++
			fmt.Fprintf(out, "%.3f,%s,%d,%s,%q\n", ev.Time, ev.Kind, ev.Job, ev.Class, ev.Note)
		},
	}
	if *days <= 2 {
		cfg.WarmupDays, cfg.CooldownDays = 0.25, 0.25
	}

	if !*summary {
		fmt.Fprintln(out, "time_s,kind,job,class,note")
	}
	res, err := repro.NewSession(repro.WithWorkers(1)).Run(context.Background(), cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "traceview: %v\n", err)
		os.Exit(1)
	}
	if *summary {
		kindNames := make([]string, 0, len(counts))
		for k := range counts {
			kindNames = append(kindNames, k)
		}
		sort.Strings(kindNames)
		for _, k := range kindNames {
			fmt.Fprintf(out, "%-16s %8d\n", k, counts[k])
		}
		fmt.Fprintf(out, "%-16s %8.3f\n", "waste-ratio", res.WasteRatio)
	}
}
