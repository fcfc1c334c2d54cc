// Burst-buffer study: the paper's §8 future-work extension. Compares
// checkpointing straight to the parallel file system against a two-tier
// path (node-local NVRAM commit + asynchronous PFS drain) and a resilient
// buffer appliance, across two failure regimes. Demonstrates the three
// regimes recorded in EXPERIMENTS.md: resilient buffers always help,
// node-local buffers need a PFS that can absorb their drain traffic, and
// a node-local buffer over a starved PFS backfires.
package main

import (
	"context"
	"fmt"
	"log"

	"repro"
)

func main() {
	const runs = 6
	ctx := context.Background()
	session := repro.NewSession(repro.WithKeepResults(true), repro.WithKeepWasteRatios(true))
	for _, scenario := range []struct {
		label     string
		bwGBps    float64
		mtbfYears float64
	}{
		{"starved PFS, frequent failures", 40, 2},
		{"ample PFS, frequent failures", 160, 2},
	} {
		fmt.Printf("=== Cielo, %s (%.0f GB/s, %gy node MTBF) ===\n",
			scenario.label, scenario.bwGBps, scenario.mtbfYears)
		base := repro.Config{
			Platform:    repro.Cielo(scenario.bwGBps, scenario.mtbfYears),
			Classes:     repro.APEXClasses(),
			Strategy:    repro.OrderedNBDaly(),
			Seed:        5,
			HorizonDays: 20,
		}

		nodeLocal := repro.DefaultBurstBuffer() // 1 GB/s per node, drains to PFS
		resilient := repro.DefaultBurstBuffer()
		resilient.Resilient = true

		for _, tier := range []struct {
			name string
			bb   *repro.BurstBuffer
		}{
			{"direct to PFS", nil},
			{"node-local NVRAM", &nodeLocal},
			{"resilient appliance", &resilient},
		} {
			cfg := base
			cfg.BurstBuffer = tier.bb
			mc, err := session.MonteCarlo(ctx, cfg, runs)
			if err != nil {
				log.Fatal(err)
			}
			drains := 0
			for _, r := range mc.Results {
				drains += r.Drains
			}
			fmt.Printf("%-20s waste mean=%.3f box=[%.3f %.3f]  (drains landed: %d)\n",
				tier.name, mc.Summary.Mean, mc.Summary.P25, mc.Summary.P75, drains/runs)
		}
		fmt.Println()
	}
}
