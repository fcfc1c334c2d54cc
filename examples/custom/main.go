// Custom workload study: the public API beyond the paper's exact setup.
// Defines a bespoke two-class workload on a mid-size machine, then explores
// the extensions: a Weibull (bursty) failure process, the adversarial
// Degraded interference model of footnote 2, and an execution trace of the
// cooperative scheduler's decisions.
package main

import (
	"context"
	"fmt"
	"log"

	"repro"
)

func main() {
	// A 4096-node machine with 100 TB of memory and a 100 GB/s PFS.
	machine := repro.Platform{
		Name:            "custom-4k",
		Nodes:           4096,
		MemoryBytes:     100e12,
		BandwidthBps:    100e9,
		NodeMTBFSeconds: 5 * 365 * 86400,
	}
	// Two classes: a large simulation writing huge checkpoints and doing
	// periodic analysis dumps (regular I/O), and a small ensemble job.
	classes := []repro.Class{
		{
			Name: "climate", Share: 0.75, WorkHours: 96, MachineFraction: 0.5,
			InputPctMem: 20, OutputPctMem: 150, CkptPctMem: 200,
			RegularIOPctMem: 80, RegularIOPhases: 6,
		},
		{
			Name: "ensemble", Share: 0.25, WorkHours: 24, MachineFraction: 0.125,
			InputPctMem: 5, OutputPctMem: 50, CkptPctMem: 60,
		},
	}

	base := repro.Config{
		Platform:    machine,
		Classes:     classes,
		Strategy:    repro.LeastWaste(),
		Seed:        11,
		HorizonDays: 15,
	}

	// One session runs every simulation below on one warm arena.
	ctx := context.Background()
	session := repro.NewSession(repro.WithWorkers(1))

	// 1. Exponential vs Weibull failures (same mean rate, shape 0.7:
	// clustered infant failures).
	exp, err := session.Run(ctx, base)
	if err != nil {
		log.Fatal(err)
	}
	weib := base
	weib.FailureModel = repro.FailuresWeibull
	weib.WeibullShape = 0.7
	weibRes, err := session.Run(ctx, weib)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("failure law   exponential: waste %.3f (%d failures) | weibull(0.7): waste %.3f (%d failures)\n",
		exp.WasteRatio, exp.Failures, weibRes.WasteRatio, weibRes.Failures)

	// 2. Linear vs adversarial interference under the Oblivious
	// discipline (footnote 2's "more adversarial interference model").
	obl := base
	obl.Strategy = repro.ObliviousDaly()
	lin, err := session.Run(ctx, obl)
	if err != nil {
		log.Fatal(err)
	}
	adv := obl
	adv.Interference = repro.Degraded{Gamma: 0.8}
	advRes, err := session.Run(ctx, adv)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("interference  linear: waste %.3f | degraded(0.8): waste %.3f\n",
		lin.WasteRatio, advRes.WasteRatio)

	// 3. Trace the first cooperative scheduling decisions.
	traced := base
	traced.HorizonDays = 3
	count := 0
	traced.Trace = func(ev repro.TraceEvent) {
		if ev.Kind == "ckpt-grant" || ev.Kind == "ckpt-commit" {
			if count < 8 {
				fmt.Printf("trace t=%9.0fs job=%-4d class=%-8s %s\n", ev.Time, ev.Job, ev.Class, ev.Kind)
			}
			count++
		}
	}
	if _, err := session.Run(ctx, traced); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("(%d checkpoint grant/commit events in 3 days)\n", count)
}
