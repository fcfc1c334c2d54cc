package engine

import (
	"testing"

	"repro/internal/platform"
	"repro/internal/workload"
)

// zeroOutputConfigs are tiny Oblivious scenarios whose classes write no
// final output, plain and with three regular-I/O phases. On the shared
// device a zero-byte transfer completes inside Submit, so a job whose
// work completes finishes — and is retired — inside its own timer's fire.
func zeroOutputConfigs() map[string]Config {
	cfgs := map[string]Config{}
	for _, regular := range []bool{false, true} {
		for _, strat := range []Strategy{ObliviousFixed(), ObliviousDaly()} {
			cfg := tinyConfig(strat, 0)
			name := strat.Name()
			for i := range cfg.Classes {
				cfg.Classes[i].OutputPctMem = 0
				if regular {
					cfg.Classes[i].RegularIOPctMem = 20
					cfg.Classes[i].RegularIOPhases = 3
				}
			}
			if regular {
				name += "/regular-io"
			}
			cfgs[name] = cfg
		}
	}
	return cfgs
}

// zeroOutputDigests are the Result digests (see resultDigest) of seeds 1
// and 2 for every zeroOutputConfigs entry, recorded while each job still
// had separate compute-boundary and checkpoint events.
var zeroOutputDigests = map[string][2]string{
	"Oblivious-Fixed":            {"c44dc32c277fe5a0", "cf3a679c137220f7"},
	"Oblivious-Daly":             {"92ec7727542aa17e", "3ef428f44992fcb2"},
	"Oblivious-Fixed/regular-io": {"a7935750e10ff4a1", "c8d23ce7f0fec996"},
	"Oblivious-Daly/regular-io":  {"498f7b7fe1db00fc", "c61c38ae74d7f958"},
}

// TestZeroByteOutputInsideOwnTimer: a job whose zero-byte output
// completes inside its own timer's fire is retired there, while the
// engine still holds the firing event; the fire must then leave the
// recycled jobRun alone and let the engine drop the event. The Results
// stay those of the separate-event design, and the trace shows the path
// was taken (the job completes at the instant its work does).
func TestZeroByteOutputInsideOwnTimer(t *testing.T) {
	for name, cfg := range zeroOutputConfigs() {
		t.Run(name, func(t *testing.T) {
			for k, seed := range []uint64{1, 2} {
				c := cfg
				c.Seed = seed
				inside := 0
				var last TraceEvent
				c.Trace = func(ev TraceEvent) {
					if ev.Kind == "job-complete" && last.Kind == "work-complete" && last.Job == ev.Job && last.Time == ev.Time {
						inside++
					}
					last = ev
				}
				mustRun(t, c)
				if inside == 0 {
					t.Fatalf("seed %d: no job completed inside its own timer's fire", seed)
				}
				c.Trace = nil
				if got, want := resultDigest(mustRun(t, c)), zeroOutputDigests[name][k]; got != want {
					t.Errorf("seed %d: Result digest %s, recorded %s", seed, got, want)
				}
			}
		})
	}
}

// TestJobTimerStandsAtEarlierDeadline steps every arena and zero-output
// scenario one event at a time and checks, between events, that each
// live job's one timer is queued exactly at the earlier of its two
// reserved deadlines (and absent when neither is set), and that the
// compute-boundary deadline is set exactly while the job computes.
func TestJobTimerStandsAtEarlierDeadline(t *testing.T) {
	cfgs := arenaConfigs()
	for name, cfg := range zeroOutputConfigs() {
		cfgs["zero-output/"+name] = cfg
	}
	for name, cfg := range cfgs {
		t.Run(name, func(t *testing.T) {
			a, err := NewArena(cfg)
			if err != nil {
				t.Fatal(err)
			}
			for _, seed := range []uint64{1, 2} {
				if err := a.prepare(seed, false); err != nil {
					t.Fatal(err)
				}
				s := &a.s
				s.start()
				for s.eng.Now() <= s.horizon && s.eng.Step() {
					for _, j := range s.runs {
						if j != nil {
							checkJobTimer(t, s, j)
						}
					}
				}
			}
		})
	}
}

func checkJobTimer(t *testing.T, s *simulation, j *jobRun) {
	t.Helper()
	at := s.eng.Now()
	if j.firing {
		t.Fatalf("t=%v job %d: firing flag left set", at, j.id)
	}
	computing := j.phase == phaseCompute || j.phase == phaseCkptWait
	if computing == j.stopAt.IsZero() {
		t.Fatalf("t=%v job %d in phase %v: compute deadline set %v", at, j.id, j.phase, !j.stopAt.IsZero())
	}
	k := j.stopAt
	if j.ckptAt.Before(k) {
		k = j.ckptAt
	}
	switch {
	case k.IsZero() && j.timer != nil:
		t.Fatalf("t=%v job %d: timer queued at %v with no deadline", at, j.id, j.timer.Time())
	case !k.IsZero() && (j.timer == nil || j.timer.Key() != k || j.timer.Cancelled()):
		t.Fatalf("t=%v job %d: timer %v, earlier deadline at %v", at, j.id, j.timer, k.Time())
	}
}

// queueOpsBefore is the number of event-queue operations (pushes, pops,
// removals and in-place re-keys) one 3-year replicate of each legend
// strategy cost, summed, while each job had separate compute-boundary
// and checkpoint events and a fired event always left the queue: 4 422 725
// operations for the same 1 372 882 fired events.
const (
	queueOpsBefore   = 4422725
	legendFired3Year = 1372882
)

// TestQueueOpsPerLegendStrategy pins the queue traffic of one 3-year
// replicate per legend strategy (Cielo, 40 GB/s, seed 1): the same events
// fire, and the queue operations they cost stay at least 35% below the
// separate-event design's.
func TestQueueOpsPerLegendStrategy(t *testing.T) {
	if testing.Short() {
		t.Skip("3-year replicates skipped in -short mode")
	}
	var fired, ops uint64
	for _, st := range LegendStrategies() {
		a, err := NewArena(Config{Platform: platform.Cielo(40, 2), Classes: workload.APEXClasses(), Strategy: st, HorizonDays: 3 * 365})
		if err != nil {
			t.Fatal(err)
		}
		res, err := a.Run(1)
		if err != nil {
			t.Fatal(err)
		}
		o := a.eng.QueueOps()
		t.Logf("%-16s fired %7d  push %7d  pop %7d  remove %7d  rekey %7d  total %7d", st.Name(), res.Events, o.Push, o.Pop, o.Remove, o.Rekey, o.Total())
		fired += res.Events
		ops += o.Total()
	}
	if fired != legendFired3Year {
		t.Fatalf("%d events fired, want %d", fired, legendFired3Year)
	}
	if limit := uint64(queueOpsBefore * 65 / 100); ops > limit {
		t.Fatalf("%d queue operations, want at most %d (35%% below %d)", ops, limit, queueOpsBefore)
	}
	t.Logf("%d queue operations for %d fired events (%.2f per event, %.2f before)", ops, fired, float64(ops)/float64(fired), float64(queueOpsBefore)/float64(fired))
}
