package engine

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"reflect"
	"testing"

	"repro/internal/workload"
)

// schedulerDigests are the Result digests (see resultDigest) of seeds 1
// and 2 for every arenaConfigs entry, recorded while the engine still
// offered two event schedulers — a 4-ary heap and a calendar queue —
// which produced them identically.
var schedulerDigests = map[string][2]string{
	"Fair-Share":          {"0b4a23bc57c36cac", "e3b38bb561d03273"},
	"Least-Waste":         {"a6f55fb7b6a4d070", "4604f0cf828d08b3"},
	"Oblivious-Daly":      {"a0af02b94113ee99", "d026a55c0c564709"},
	"Oblivious-Fixed":     {"286f8a16cf6bfe53", "4d6e9f3341907721"},
	"Ordered-Daly":        {"1c4a5c39b9b53a23", "52da5d2a88d66925"},
	"Ordered-Fixed":       {"922bac3c537eacc0", "550e346502018ed1"},
	"Ordered-NB-Daly":     {"536d3b8b9a3b1ae6", "be7cacf6c5eef051"},
	"Ordered-NB-Fixed":    {"234d4ebbfbac7c1c", "aa61b2e45e8800ec"},
	"Random-Daly":         {"a1fade15e5d3a08c", "4a321369ab6b96c7"},
	"Shortest-First-Daly": {"e475cdaec0183471", "052480f55269f490"},
	"burst-buffer":        {"6b267c61f0fb430b", "3e5a1ff6a6161916"},
	"burst-buffer-random": {"f7a723c7456fb385", "293656c13a1edda4"},
	"least-waste-k2":      {"82232333663c450e", "a9b979f429bf9067"},
}

// resultDigest is the first 8 bytes, in hex, of the sha256 of a Result's
// %+v rendering, which prints every float in its shortest exact form.
func resultDigest(r Result) string {
	sum := sha256.Sum256([]byte(fmt.Sprintf("%+v", r)))
	return hex.EncodeToString(sum[:8])
}

// TestSchedulerBitIdentity pins the event scheduler to the recorded
// digests: the one heap, its branch-free sifts, in-place re-keying
// (device wakes, the failure chain, handlers re-arming their own firing
// event) and each job's one timer over two reserved deadlines must
// dispatch the same (time, sequence) order the two former schedulers
// did, so every Result field of every registered strategy, the
// burst-buffer path and the multi-channel device is unchanged bit for
// bit. A Result field added
// later changes the rendering; the failure message prints the new
// digests.
func TestSchedulerBitIdentity(t *testing.T) {
	cfgs := arenaConfigs()
	if len(cfgs) != len(schedulerDigests) {
		t.Fatalf("%d arena configs, %d recorded digests", len(cfgs), len(schedulerDigests))
	}
	for name, cfg := range cfgs {
		t.Run(name, func(t *testing.T) {
			for k, seed := range []uint64{1, 2} {
				c := cfg
				c.Seed = seed
				if got, want := resultDigest(mustRun(t, c)), schedulerDigests[name][k]; got != want {
					t.Errorf("seed %d: Result digest %s, recorded %s", seed, got, want)
				}
			}
		})
	}
}

// TestArenaZeroAllocs: once an arena is warm, a replicate allocates
// nothing — also with regular I/O phases, whose trigger points derive
// from a phase index instead of a per-instance slice. The heap4 subtest
// level names the event queue under test, sim's 4-ary heap.
func TestArenaZeroAllocs(t *testing.T) {
	regularIO := tinyClasses()
	for i := range regularIO {
		regularIO[i].RegularIOPctMem = 20
		regularIO[i].RegularIOPhases = 3
	}
	classes := map[string][]workload.Class{"plain": tinyClasses(), "regular-io": regularIO}
	t.Run("heap4", func(t *testing.T) {
		for _, name := range []string{"plain", "regular-io"} {
			t.Run(name, func(t *testing.T) {
				cfg := tinyConfig(OrderedNBDaly(), 0)
				cfg.Classes = classes[name]
				a, err := NewArena(cfg)
				if err != nil {
					t.Fatal(err)
				}
				// Warm every pool: two seeds so the event pool and run
				// chunks are sized, then measure on a warmed seed (a
				// colder seed would grow pools, which is sizing, not a
				// leak).
				for _, seed := range []uint64{1, 2} {
					if _, err := a.Run(seed); err != nil {
						t.Fatal(err)
					}
				}
				allocs := testing.AllocsPerRun(3, func() {
					if _, err := a.Run(1); err != nil {
						t.Fatal(err)
					}
				})
				if allocs != 0 {
					t.Fatalf("warm arena replicate allocates %v per run, want 0", allocs)
				}
			})
		}
	})
}

// TestSchedulerReconfigureKeepsEngine: Reconfigure keeps the arena's
// event engine, and with it the warmed event pool and heap, whether the
// new scenario equals the old one or not; replicates after either stay
// bit-identical to fresh builds.
func TestSchedulerReconfigureKeepsEngine(t *testing.T) {
	cfgA := tinyConfig(OrderedDaly(), 3)
	cfgB := tinyConfig(LeastWaste(), 3)
	cfgB.Platform = tinyPlatform(0.25, 0.5)

	a, err := NewArena(cfgA)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := a.Run(3); err != nil {
		t.Fatal(err)
	}
	eng := a.eng
	for _, cfg := range []Config{cfgA, cfgB} {
		if err := a.Reconfigure(cfg); err != nil {
			t.Fatal(err)
		}
		if a.eng != eng {
			t.Fatalf("Reconfigure to %s rebuilt the event engine", cfg.Strategy.Name())
		}
		got, err := a.Run(3)
		if err != nil {
			t.Fatal(err)
		}
		if fresh := mustRun(t, cfg); !reflect.DeepEqual(fresh, got) {
			t.Fatalf("%s replicate after Reconfigure diverged:\n fresh %+v\n got   %+v", cfg.Strategy.Name(), fresh, got)
		}
	}
}
