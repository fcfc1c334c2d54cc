package engine

import (
	"fmt"
	"math"
	"testing"
)

// TestWasteConservationAllStrategies is the node-second conservation
// property, run across every registered strategy and channel count, on
// both the fresh-build and arena-replicate paths: every allocated
// node-second inside the measurement window is classified as exactly one
// of useful or a waste category, so
//
//	useful + Σ waste-categories + idle ≡ total window node-seconds
//
// with idle = capacity − allocated, i.e. useful + Σ waste ≡ allocated,
// within 1e-6 relative. A discipline or device change that double-counts
// or drops an interval — a mis-attributed wait, an unaccounted channel,
// a leaky arena reset — breaks this identity.
func TestWasteConservationAllStrategies(t *testing.T) {
	for _, strat := range AllStrategies() {
		for _, k := range []int{1, 2, 4} {
			t.Run(fmt.Sprintf("%s/k=%d", strat.Name(), k), func(t *testing.T) {
				cfg := tinyConfig(strat, 41)
				cfg.Channels = k

				fresh := mustRun(t, cfg)
				checkConservation(t, cfg, fresh, "fresh")

				a, err := NewArena(cfg)
				if err != nil {
					t.Fatalf("NewArena: %v", err)
				}
				// Dirty the pools with another seed before replicating
				// the seed under test, so the checked run exercises the
				// reuse path, then verify it matches the fresh build.
				if _, err := a.Run(99); err != nil {
					t.Fatal(err)
				}
				reused, err := a.Run(cfg.Seed)
				if err != nil {
					t.Fatal(err)
				}
				checkConservation(t, cfg, reused, "arena")
				if reused != fresh {
					t.Errorf("arena replicate diverged from fresh build")
				}
			})
		}
	}
}

// checkConservation verifies the node-second identity on one Result.
func checkConservation(t *testing.T, cfg Config, res Result, path string) {
	t.Helper()
	w0, w1 := cfg.WithDefaults().window()
	capacity := float64(cfg.Platform.Nodes) * (w1 - w0)
	allocated := res.Utilization * capacity

	wasteSum := 0.0
	for _, v := range res.WasteVec {
		wasteSum += v
	}
	if math.Abs(wasteSum-res.WasteNodeSeconds) > 1e-6*math.Max(1, res.WasteNodeSeconds) {
		t.Errorf("%s: Σ WasteVec %.6g != WasteNodeSeconds %.6g", path, wasteSum, res.WasteNodeSeconds)
	}

	classified := res.UsefulNodeSeconds + wasteSum
	if math.Abs(classified-allocated) > 1e-6*allocated {
		t.Errorf("%s: useful+waste = %.6g, allocated = %.6g (diff %.3g rel)",
			path, classified, allocated, (classified-allocated)/allocated)
	}

	idle := capacity - allocated
	if idle < -1e-6*capacity {
		t.Errorf("%s: negative idle time %.6g (allocated exceeds capacity)", path, idle)
	}
	if total := classified + idle; math.Abs(total-capacity) > 1e-6*capacity {
		t.Errorf("%s: useful+waste+idle = %.6g, capacity = %.6g", path, total, capacity)
	}

	if res.UsefulNodeSeconds <= 0 {
		t.Errorf("%s: no useful work recorded", path)
	}
}
