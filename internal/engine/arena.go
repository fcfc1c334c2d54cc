package engine

import (
	"fmt"

	"repro/internal/failure"
	"repro/internal/iomodel"
	"repro/internal/iosched"
	"repro/internal/metrics"
	"repro/internal/platform"
	"repro/internal/rng"
	"repro/internal/sim"
	"repro/internal/units"
	"repro/internal/workload"
)

// Arena is a reusable simulation workspace: the expensive state of a run —
// the event engine and its pool, the node map, the I/O device, the job
// spec/instance pools, the workload buffer, the RNG streams — is built once
// and re-seeded per replicate, so steady-state Monte-Carlo replicates
// allocate near zero. A replicate run in a reused arena is bit-identical to
// a fresh-build run of the same configuration and seed: every reset path
// restores the exact initial state (see the package's arena tests).
//
// An Arena is not safe for concurrent use; the grid coordinator holds one
// per worker. Reconfigure swaps the scenario (bandwidth, MTBF, strategy,
// failure model, ...) while keeping the pools, which is what makes
// multi-point parameter sweeps cheap.
type Arena struct {
	cfg    Config // defaulted and validated
	params []workload.ClassParams
	// classPeriods is the burst-buffer cooperative period solution (nil
	// unless that model is active): seed-independent, cached per scenario.
	classPeriods []float64
	// stratName caches cfg.Strategy.Name() so replicates never rebuild
	// the label (the composition allocates).
	stratName string

	eng    *sim.Engine
	device iomodel.Device
	// sel is the token device's selector (nil on shared devices), kept so
	// stateful selectors can be reset per replicate.
	sel     iomodel.Selector
	genRNG  rng.RNG
	failRNG rng.RNG
	failSrc failure.Source

	s simulation

	jobs     []workload.Job
	specPool []specState
	pool     runPool

	// baseline is the lazily built arena for Config.PairedBaseline runs.
	baseline *Arena
}

// NewArena validates the configuration and assembles a reusable arena for
// it. The heavy per-run state is allocated here once; each Run call then
// reuses it.
func NewArena(cfg Config) (*Arena, error) {
	a := &Arena{}
	if err := a.Reconfigure(cfg); err != nil {
		return nil, err
	}
	return a, nil
}

// Reconfigure swaps the arena's scenario, revalidating it and recomputing
// the scenario-derived state (class parameters, I/O device, cooperative
// periods) while retaining every pool. Replicates after a Reconfigure are
// bit-identical to fresh-build runs of the new configuration.
func (a *Arena) Reconfigure(cfg Config) error {
	cfg = cfg.WithDefaults()
	if err := cfg.validate(); err != nil {
		return err
	}
	params, err := workload.Instantiate(cfg.Platform, cfg.Classes)
	if err != nil {
		return err
	}
	periods, err := deriveBBPeriods(cfg, params)
	if err != nil {
		return err
	}
	a.cfg = cfg
	a.params = params
	a.classPeriods = periods
	a.stratName = cfg.Strategy.Name()
	a.baseline = nil

	// The engine — and with it the event pool and heap capacity — is
	// kept across reconfigurations.
	if a.eng == nil {
		a.eng = sim.New()
	}

	// The device is dictated by the arbiter's capabilities, not by an
	// engine-side discipline switch: shared processor sharing for
	// non-token disciplines, a k-channel token device otherwise, with the
	// grant order instantiated by the arbiter for this scenario.
	bw := cfg.Platform.BandwidthBps
	arb := cfg.Strategy.Discipline
	a.sel = nil
	switch {
	case cfg.BaselineIO:
		a.device = iomodel.NewSharedDevice(a.eng, bw, iomodel.Unlimited{})
	case !arb.UsesToken():
		a.device = iomodel.NewSharedDevice(a.eng, bw, cfg.Interference)
	default:
		sel := arb.NewSelector(iosched.Scenario{
			MuIndSeconds: cfg.Platform.NodeMTBFSeconds,
			BandwidthBps: bw,
			Classes:      len(params),
			Background:   cfg.BurstBuffer != nil,
		})
		if sel == nil {
			return fmt.Errorf("engine: discipline %s uses a token but built no selector", arb.Name())
		}
		a.sel = sel
		a.device = iomodel.NewTokenDeviceK(a.eng, bw, sel, cfg.Channels)
	}

	if a.s.nodes == nil || a.s.nodes.Total() != cfg.Platform.Nodes {
		a.s.nodes = platform.NewNodeMap(cfg.Platform.Nodes)
	}
	w0, w1 := cfg.window()
	if a.s.ledger == nil {
		a.s.ledger = metrics.NewLedger(w0, w1)
	}
	return nil
}

// Run executes one replicate with the given seed, reusing the arena's
// state. The result is bit-identical to a freshly built arena's run of
// the same configuration and seed.
func (a *Arena) Run(seed uint64) (Result, error) { return a.RunAnti(seed, false) }

// RunAnti executes one replicate with antithetic sampling switched on or
// off: with it on, the workload and failure streams draw the complements
// of the uniforms the plain replicate of the same seed draws
// (rng.SetAntithetic), so the pair's results bracket the plain run's and
// their average cancels first-order Monte-Carlo noise. RunAnti(seed,
// false) is exactly Run(seed). A paired baseline inherits the switch, so
// the baseline's job list stays identical to the measured run's.
func (a *Arena) RunAnti(seed uint64, antithetic bool) (Result, error) {
	res, err := a.replicate(seed, antithetic)
	if err != nil {
		return Result{}, err
	}
	if a.cfg.PairedBaseline && !a.cfg.BaselineIO {
		if a.baseline == nil {
			base := a.cfg
			base.PairedBaseline = false
			base.DisableFailures = true
			base.DisableCheckpoints = true
			base.BaselineIO = true
			b, err := NewArena(base)
			if err != nil {
				return Result{}, fmt.Errorf("engine: paired baseline: %w", err)
			}
			a.baseline = b
		}
		baseRes, err := a.baseline.RunAnti(seed, antithetic)
		if err != nil {
			return Result{}, fmt.Errorf("engine: paired baseline: %w", err)
		}
		if baseRes.UsefulNodeSeconds > 0 {
			res.PairedWasteRatio = res.WasteNodeSeconds / baseRes.UsefulNodeSeconds
		}
	}
	return res, nil
}

// replicate re-seeds the arena and runs one simulation end to end.
func (a *Arena) replicate(seed uint64, antithetic bool) (Result, error) {
	if err := a.prepare(seed, antithetic); err != nil {
		return Result{}, err
	}
	a.s.execute()
	return a.s.finalize(), nil
}

// prepare re-seeds the arena for one replicate: every layer is reset, the
// workload and failure streams are drawn, and the initial instances are
// queued, ready for execute.
func (a *Arena) prepare(seed uint64, antithetic bool) error {
	// Order matters: the engine reset recycles every scheduled event, so
	// the device reset may simply drop its stale wake handle.
	a.eng.Reset()
	a.device.Reset()
	if ss, ok := a.sel.(iomodel.StatefulSelector); ok {
		// Stateful grant orders (randomness, served-share accounting)
		// restart from the replicate seed, keeping arena reuse
		// bit-identical to a fresh build of the same seed.
		ss.ResetSelector(seed)
	}
	a.pool.reset()

	a.genRNG.ReseedStream(seed, rng.StreamWorkload)
	a.genRNG.SetAntithetic(antithetic)
	jobs, err := workload.GenerateInto(&a.genRNG, a.cfg.Platform, a.params, a.cfg.Gen, a.jobs[:0])
	if err != nil {
		return err
	}
	a.jobs = jobs

	a.failRNG.ReseedStream(seed, rng.StreamFailure)
	a.failRNG.SetAntithetic(antithetic)
	a.failSrc.Reset(&a.failRNG, failure.Config{
		Model:           a.cfg.FailureModel,
		WeibullShape:    a.cfg.WeibullShape,
		NodeMTBFSeconds: a.cfg.Platform.NodeMTBFSeconds,
		Nodes:           a.cfg.Platform.Nodes,
		Disabled:        a.cfg.DisableFailures,
	})

	s := &a.s
	s.cfg = a.cfg
	s.cfg.Seed = seed
	s.eng = a.eng
	s.params = a.params
	s.specs = s.specs[:0]
	s.runs = s.runs[:0]
	s.queue.Reset()
	s.nodes.Reset()
	s.device = a.device
	s.failSrc = &a.failSrc
	w0, w1 := a.cfg.window()
	s.ledger.Reset(w0, w1)
	s.horizon = units.Days(a.cfg.HorizonDays)
	s.bw = a.cfg.Platform.BandwidthBps
	s.muInd = a.cfg.Platform.NodeMTBFSeconds
	s.res = Result{Strategy: a.stratName, JobsGenerated: len(jobs)}
	s.classPeriods = a.classPeriods
	s.failNode = 0
	s.failEv = nil
	s.failArm.s = s
	s.schedArm.s = s
	s.pool = &a.pool

	// One spec per generated job; the initial instance of each is queued
	// in priority order.
	if cap(a.specPool) < len(jobs) {
		a.specPool = make([]specState, len(jobs))
	}
	specs := a.specPool[:len(jobs)]
	for i, job := range jobs {
		specs[i] = specState{spec: job, class: &a.params[job.Class]}
		s.specs = append(s.specs, &specs[i])
	}
	for _, spec := range s.specs {
		s.newInstance(spec)
	}
	return nil
}

// runChunkSize is how many jobRun structs one pool chunk holds.
const runChunkSize = 64

// runPool hands out jobRun structs: finished instances first (put), then
// fresh slots of chunked backing arrays. Chunks are retained across
// replicates (reset rewinds the cursor) and pointers into a chunk stay
// valid for the whole arena lifetime. Because a replicate recycles every
// killed or completed instance, the pool grows with the peak number of
// live instances, not with the number the replicate creates.
type runPool struct {
	chunks [][]jobRun
	chunk  int // index of the chunk the cursor is in
	next   int // next unused slot within that chunk
	// free holds finished instances awaiting reuse.
	free []*jobRun
}

// get returns a zeroed jobRun: the most recently finished instance if
// any, else a fresh slot, growing the pool by one chunk when exhausted.
func (p *runPool) get() *jobRun {
	var j *jobRun
	if n := len(p.free); n > 0 {
		j = p.free[n-1]
		p.free[n-1] = nil
		p.free = p.free[:n-1]
	} else {
		if p.chunk == len(p.chunks) {
			p.chunks = append(p.chunks, make([]jobRun, runChunkSize))
		}
		j = &p.chunks[p.chunk][p.next]
		p.next++
		if p.next == runChunkSize {
			p.chunk++
			p.next = 0
		}
	}
	*j = jobRun{}
	return j
}

// put returns a finished instance to the pool. Nothing may reference it
// afterwards: its timers are cancelled and its transfers aborted or done.
func (p *runPool) put(j *jobRun) { p.free = append(p.free, j) }

// reset rewinds the pool so the next replicate reuses the chunks from the
// start.
func (p *runPool) reset() {
	clear(p.free)
	p.chunk, p.next, p.free = 0, 0, p.free[:0]
}
