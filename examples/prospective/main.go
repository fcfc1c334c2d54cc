// Prospective-system provisioning: a reduced version of the paper's
// Figure 3. For the 50 000-node / 7 PB future system, find the minimum
// aggregated file-system bandwidth each strategy needs to sustain 80%
// platform efficiency, and compare against the theoretical requirement of
// §4. The paper's headline: the status-quo Oblivious-Fixed strategy can
// need an order of magnitude more bandwidth than cooperative Least-Waste.
package main

import (
	"context"
	"fmt"
	"log"

	"repro"
)

func main() {
	const (
		mtbfYears = 15  // "failures are not endemic" regime of §6.2
		target    = 0.8 // 80% efficiency, the ECP-style goal
	)
	p := repro.Prospective(1000, mtbfYears)
	fmt.Printf("Prospective system: %d nodes, node MTBF %dy (system MTBF %.1f h), target efficiency %.0f%%\n",
		p.Nodes, mtbfYears, p.SystemMTBF()/3600, target*100)

	loBps, hiBps := 50e9, 400e12
	strategies := []repro.Strategy{
		repro.ObliviousFixed(),
		repro.OrderedNBFixed(),
		repro.OrderedNBDaly(),
		repro.LeastWaste(),
	}
	ctx := context.Background()
	session := repro.NewSession()
	for _, strat := range strategies {
		cfg := repro.Config{
			Platform:    p,
			Classes:     repro.APEXClasses(),
			Strategy:    strat,
			Seed:        3,
			HorizonDays: 20, // reduced from the paper's 60 for example speed
		}
		bw, err := session.MinBandwidth(ctx, cfg, target, loBps, hiBps, 3, 8)
		if err != nil {
			fmt.Printf("%-18s cannot reach target below %.0f TB/s\n", strat.Name(), hiBps/1e12)
			continue
		}
		fmt.Printf("%-18s needs >= %7.2f TB/s\n", strat.Name(), bw/1e12)
	}

	theory, err := repro.LowerBoundMinBandwidth(p, repro.APEXClasses(), 1-target, loBps, hiBps)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%-18s needs >= %7.2f TB/s (Theorem 1)\n", "Theoretical-Model", theory/1e12)
}
