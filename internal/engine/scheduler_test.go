package engine

import (
	"reflect"
	"testing"

	"repro/internal/sim"
	"repro/internal/workload"
)

// TestSchedulerBitIdentity pins the tentpole guarantee: both event
// schedulers dispatch the identical (time, sequence) total order, so a
// run forced onto the calendar queue reproduces the heap4 run's Result
// bit for bit — every field, every waste category — across all
// registered strategies, the burst-buffer path and the multi-channel
// device.
func TestSchedulerBitIdentity(t *testing.T) {
	for name, cfg := range arenaConfigs() {
		t.Run(name, func(t *testing.T) {
			h := cfg
			h.Scheduler = SchedulerHeap4
			c := cfg
			c.Scheduler = SchedulerCalendar
			heapRes := mustRun(t, h)
			calRes := mustRun(t, c)
			if !reflect.DeepEqual(heapRes, calRes) {
				t.Fatalf("calendar run diverged from heap4:\n heap4    %+v\n calendar %+v", heapRes, calRes)
			}
		})
	}
}

// TestSchedulerAutoCrossover pins the auto policy: heap4 below the
// crossover horizon, calendar at and beyond it, and explicit names
// override the horizon either way.
func TestSchedulerAutoCrossover(t *testing.T) {
	cases := []struct {
		scheduler string
		horizon   float64
		want      sim.SchedulerKind
	}{
		{"", 60, sim.Heap4},
		{SchedulerAuto, 60, sim.Heap4},
		{SchedulerAuto, CalendarAutoHorizonDays - 1, sim.Heap4},
		{SchedulerAuto, CalendarAutoHorizonDays, sim.Calendar},
		{SchedulerAuto, 5 * 365, sim.Calendar},
		{SchedulerHeap4, 5 * 365, sim.Heap4},
		{SchedulerCalendar, 6, sim.Calendar},
	}
	for _, tc := range cases {
		cfg := tinyConfig(OrderedDaly(), 0)
		cfg.Scheduler = tc.scheduler
		cfg.HorizonDays = tc.horizon
		kind, err := cfg.withDefaults().schedulerKind()
		if err != nil {
			t.Fatalf("schedulerKind(%q, %v days): %v", tc.scheduler, tc.horizon, err)
		}
		if kind != tc.want {
			t.Errorf("scheduler %q at %v days resolved to %v, want %v",
				tc.scheduler, tc.horizon, kind, tc.want)
		}
	}

	bad := tinyConfig(OrderedDaly(), 0)
	bad.Scheduler = "splay"
	if _, err := Run(bad); err == nil {
		t.Fatal("Run accepted an unknown scheduler name")
	}
}

// TestSchedulerReconfigureKeepsEngine: a Reconfigure that does not change
// the resolved scheduler keeps the engine (and its warmed pools); one
// that does change it swaps the engine, and replicates stay bit-identical
// to fresh builds either way.
func TestSchedulerReconfigureKeepsEngine(t *testing.T) {
	cfgH := tinyConfig(OrderedDaly(), 3)
	cfgH.Scheduler = SchedulerHeap4
	cfgC := tinyConfig(OrderedDaly(), 3)
	cfgC.Scheduler = SchedulerCalendar

	a, err := NewArena(cfgH)
	if err != nil {
		t.Fatal(err)
	}
	if a.eng.Scheduler() != sim.Heap4 {
		t.Fatalf("arena scheduler %v, want Heap4", a.eng.Scheduler())
	}
	eng := a.eng
	if err := a.Reconfigure(cfgH); err != nil {
		t.Fatal(err)
	}
	if a.eng != eng {
		t.Fatal("same-scheduler Reconfigure rebuilt the engine")
	}
	if err := a.Reconfigure(cfgC); err != nil {
		t.Fatal(err)
	}
	if a.eng == eng || a.eng.Scheduler() != sim.Calendar {
		t.Fatalf("calendar Reconfigure kept engine %p (scheduler %v)", a.eng, a.eng.Scheduler())
	}
	fresh := mustRun(t, cfgC)
	got, err := a.Run(3)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(fresh, got) {
		t.Fatalf("post-swap replicate diverged:\n fresh %+v\n got   %+v", fresh, got)
	}
}

// TestArenaZeroAllocsBothSchedulers is the satellite regression test:
// once an arena is warm, a replicate allocates nothing — under either
// scheduler, and with regular I/O phases, whose trigger points derive from
// a phase index instead of a per-instance slice. The calendar queue must
// satisfy this through its retained bucket capacity and tuned width
// (sim.Engine.Reset keeps both).
func TestArenaZeroAllocsBothSchedulers(t *testing.T) {
	regularIO := tinyClasses()
	for i := range regularIO {
		regularIO[i].RegularIOPctMem = 20
		regularIO[i].RegularIOPhases = 3
	}
	classes := map[string][]workload.Class{"plain": tinyClasses(), "regular-io": regularIO}
	for _, scheduler := range []string{SchedulerHeap4, SchedulerCalendar} {
		t.Run(scheduler, func(t *testing.T) {
			for _, name := range []string{"plain", "regular-io"} {
				t.Run(name, func(t *testing.T) {
					cfg := tinyConfig(OrderedNBDaly(), 0)
					cfg.Scheduler = scheduler
					cfg.Classes = classes[name]
					a, err := NewArena(cfg)
					if err != nil {
						t.Fatal(err)
					}
					// Warm every pool: two seeds so the event pool, run
					// chunks and calendar buckets are sized, then
					// measure on a warmed seed (a colder seed would grow
					// pools, which is sizing, not a leak).
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
						t.Fatalf("warm %s arena replicate allocates %v per run, want 0", scheduler, allocs)
					}
				})
			}
		})
	}
}
