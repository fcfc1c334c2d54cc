package engine

import (
	"errors"
	"fmt"

	"repro/internal/burstbuffer"
	"repro/internal/failure"
	"repro/internal/iomodel"
	"repro/internal/iosched"
	"repro/internal/metrics"
	"repro/internal/platform"
	"repro/internal/sim"
	"repro/internal/units"
	"repro/internal/workload"
)

// Config fully specifies one simulation run. The zero values of optional
// fields select the paper's defaults.
type Config struct {
	// Platform is the machine to simulate. Required.
	Platform platform.Platform
	// Classes is the application-class set. Required (use
	// workload.APEXClasses for the paper's workload).
	Classes []workload.Class
	// Strategy selects the I/O discipline and checkpoint policy.
	Strategy Strategy
	// Seed drives every random choice of the run (job mix, durations,
	// shuffling, failures). Runs with equal configs are bit-reproducible.
	Seed uint64

	// Scheduler selects the event-queue implementation of the simulation
	// core: "auto" (the default; picks per horizon), "heap4" (intrusive
	// 4-ary indexed heap) or "calendar" (bucketed calendar queue for
	// large horizons). Both schedulers dispatch the identical
	// (time, sequence) total order, so results are bit-identical under
	// either — the knob is purely a throughput trade.
	Scheduler string

	// Gen overrides workload generation; zero value selects
	// workload.DefaultGenConfig with MinDays = HorizonDays.
	Gen workload.GenConfig
	// HorizonDays is the simulated segment length (default 60, §5).
	HorizonDays float64
	// WarmupDays and CooldownDays are excluded from the measurement
	// window at the start and end of the segment (default 1 and 1, §5).
	WarmupDays, CooldownDays float64

	// Interference is the shared-device bandwidth model for the
	// Oblivious discipline (default iomodel.LinearShare). Ignored by the
	// token disciplines.
	Interference iomodel.InterferenceModel
	// Channels is the number of concurrent token channels k of the I/O
	// device — a partitioned checkpoint store with k parallel write
	// lanes, each at the aggregated bandwidth. Zero selects the paper's
	// single token. Ignored by shared-device (non-token) disciplines.
	Channels int
	// FailureModel selects the failure inter-arrival law (default
	// exponential); WeibullShape applies when the model is Weibull.
	FailureModel failure.Model
	// WeibullShape is the Weibull shape parameter k (extension).
	WeibullShape float64
	// BurstBuffer, when non-nil, enables the §8 two-tier checkpoint
	// path: commits go to node-local NVRAM and drain asynchronously to
	// the PFS (see package burstbuffer).
	BurstBuffer *burstbuffer.Config

	// DisableFailures removes failure injection (baseline runs).
	DisableFailures bool
	// DisableCheckpoints removes CR activity entirely (baseline runs).
	DisableCheckpoints bool
	// BaselineIO makes every I/O proceed at full bandwidth with no
	// interference (baseline runs, used with the two Disable flags to
	// measure the §6.1 fault-free/checkpoint-free denominator).
	BaselineIO bool
	// PairedBaseline additionally runs the matching baseline simulation
	// (same seed, hence same job list) and reports the paper's exact
	// waste ratio, waste / baselineUseful, in Result.PairedWasteRatio.
	PairedBaseline bool

	// Trace, when non-nil, receives every simulation event (expensive;
	// testing and debugging only).
	Trace func(TraceEvent)
}

// TraceEvent is one observable simulation transition.
type TraceEvent struct {
	Time  float64
	Kind  string // e.g. "job-start", "ckpt-commit", "failure"
	Job   int32  // runtime instance id, -1 when not applicable
	Class string
	Note  string
}

// Scheduler registry names for Config.Scheduler.
const (
	// SchedulerAuto selects the scheduler per horizon: heap4 below the
	// measured crossover, calendar at or above it.
	SchedulerAuto = "auto"
	// SchedulerHeap4 forces the intrusive 4-ary indexed heap.
	SchedulerHeap4 = "heap4"
	// SchedulerCalendar forces the bucketed calendar queue.
	SchedulerCalendar = "calendar"
)

// SchedulerNames returns the valid Config.Scheduler values.
func SchedulerNames() []string {
	return []string{SchedulerAuto, SchedulerHeap4, SchedulerCalendar}
}

// CalendarAutoHorizonDays is the auto-selection crossover: at horizons of
// two years and beyond the calendar queue's O(1) dequeue amortises its
// scan overhead, below it the heap's tighter constants and O(log n)
// cancel win (BENCH_7.json records the measured family behind this
// number; on the reference machine the calendar pulls ahead between the
// one- and two-year Cielo scenarios).
const CalendarAutoHorizonDays = 730

// schedulerKind resolves the Scheduler knob to a sim scheduler after
// defaulting.
func (c Config) schedulerKind() (sim.SchedulerKind, error) {
	switch c.Scheduler {
	case "", SchedulerAuto:
		if c.HorizonDays >= CalendarAutoHorizonDays {
			return sim.Calendar, nil
		}
		return sim.Heap4, nil
	default:
		if k, ok := sim.SchedulerByName(c.Scheduler); ok {
			return k, nil
		}
		return 0, fmt.Errorf("engine: unknown scheduler %q (auto, heap4 or calendar)", c.Scheduler)
	}
}

// withDefaults returns a copy with defaults resolved.
func (c Config) withDefaults() Config {
	if c.Strategy.Discipline == nil {
		c.Strategy.Discipline = iosched.Oblivious
	}
	if c.Scheduler == "" {
		c.Scheduler = SchedulerAuto
	}
	if c.Channels == 0 {
		c.Channels = 1
	}
	if c.HorizonDays == 0 {
		c.HorizonDays = 60
	}
	if c.WarmupDays == 0 {
		c.WarmupDays = 1
	}
	if c.CooldownDays == 0 {
		c.CooldownDays = 1
	}
	zero := workload.GenConfig{}
	if c.Gen == zero {
		c.Gen = workload.DefaultGenConfig()
		c.Gen.MinDays = c.HorizonDays
	}
	if c.Interference == nil {
		c.Interference = iomodel.LinearShare{}
	}
	return c
}

// Validate reports every configuration error after defaulting, one
// descriptive error per offending field, joined with errors.Join — so a
// config that is wrong in three ways surfaces all three at once instead
// of one deep failure per fix attempt. Every driver entry point (arena
// construction and the grid coordinator, hence Session.Run / MonteCarlo
// / Sweep / Compare / MinBandwidth) validates through here before any
// simulation state is touched; a nil return guarantees the configuration
// builds.
func (c Config) Validate() error {
	return c.withDefaults().validate()
}

// validate collects the configuration errors of an already-defaulted
// config.
func (c Config) validate() error {
	var errs []error
	if err := c.Platform.Validate(); err != nil {
		errs = append(errs, err)
	}
	if err := workload.ValidateClasses(c.Classes); err != nil {
		errs = append(errs, err)
	}
	if c.HorizonDays <= 0 {
		errs = append(errs, fmt.Errorf("engine: non-positive horizon %v days", c.HorizonDays))
	} else if c.WarmupDays < 0 || c.CooldownDays < 0 ||
		c.WarmupDays+c.CooldownDays >= c.HorizonDays {
		errs = append(errs, fmt.Errorf("engine: warmup %v + cooldown %v days leave no measurement window in %v days",
			c.WarmupDays, c.CooldownDays, c.HorizonDays))
	}
	if c.FailureModel == failure.Weibull && c.WeibullShape <= 0 {
		errs = append(errs, fmt.Errorf("engine: Weibull failure model requires a positive shape, got %v", c.WeibullShape))
	}
	if c.Channels < 1 {
		errs = append(errs, fmt.Errorf("engine: non-positive channel count %d", c.Channels))
	}
	if _, err := c.schedulerKind(); err != nil {
		errs = append(errs, err)
	}
	if c.BurstBuffer != nil {
		if err := c.BurstBuffer.Validate(); err != nil {
			errs = append(errs, err)
		}
	}
	return errors.Join(errs...)
}

// Result aggregates one run's measurements over the window.
type Result struct {
	// Strategy is the strategy label.
	Strategy string
	// WasteRatio is waste / (useful + waste) over the measurement
	// window: the y-axis of Figures 1 and 2.
	WasteRatio float64
	// PairedWasteRatio is waste / baseline-useful when
	// Config.PairedBaseline was set (else 0): the paper's exact
	// denominator definition.
	PairedWasteRatio float64
	// UsefulNodeSeconds and WasteNodeSeconds decompose the window.
	UsefulNodeSeconds float64
	WasteNodeSeconds  float64
	// WasteVec breaks waste down by category, indexed by
	// metrics.Category. A fixed array filled in place, so arena
	// replicates stay allocation-free; use WasteByCategory for a
	// name-keyed view.
	WasteVec [metrics.NumCategories]float64
	// Utilization is allocated node-time over window capacity.
	Utilization float64

	// Population statistics.
	JobsGenerated  int
	JobsCompleted  int
	JobsFailed     int
	Failures       int // failures that struck an allocated node
	FailureEvents  int // all injected failures
	Checkpoints    int // committed
	CheckpointsCut int // aborted by failures
	Drains         int // burst-buffer drains landed on the PFS
	Events         uint64

	// SimulatedSeconds is the horizon actually executed.
	SimulatedSeconds float64
}

// WasteByCategory returns the waste breakdown keyed by category name. The
// map is built on every call — a convenience for JSON/CLI output only;
// hot paths should index WasteVec by metrics.Category directly.
func (r Result) WasteByCategory() map[string]float64 {
	out := make(map[string]float64, len(r.WasteVec))
	for i, v := range r.WasteVec {
		out[metrics.Category(i).String()] = v
	}
	return out
}

// window returns the measurement bounds in seconds.
func (c Config) window() (w0, w1 float64) {
	return units.Days(c.WarmupDays), units.Days(c.HorizonDays - c.CooldownDays)
}
