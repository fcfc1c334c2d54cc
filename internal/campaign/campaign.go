package campaign

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"iter"
	"sync"
	"time"

	"repro/internal/driver"
	"repro/internal/engine"
)

// PointStatus classifies a campaign point's outcome.
type PointStatus int

const (
	// StatusDone marks a point with valid aggregates (simulated now or
	// restored from the journal).
	StatusDone PointStatus = iota
	// StatusFailed marks a point quarantined after its attempt failed:
	// its Err is a *PointError, the rest of the grid still ran.
	StatusFailed
)

// String implements fmt.Stringer.
func (s PointStatus) String() string {
	switch s {
	case StatusDone:
		return "done"
	case StatusFailed:
		return "failed"
	}
	return fmt.Sprintf("PointStatus(%d)", int(s))
}

// PointError quarantines one grid point's failure: the campaign reports
// it and moves on instead of aborting the sweep.
type PointError struct {
	// Point identifies the failed cell.
	Point driver.SweepPoint
	// Attempts counts the point's attempts: one per campaign run that
	// simulated it, this run included.
	Attempts int
	// Err is this run's attempt error.
	Err error
}

// Error implements error.
func (e *PointError) Error() string {
	return fmt.Sprintf("campaign: point %d (%s) failed after %d attempt(s): %v",
		e.Point.Index, e.Point.Strategy.Name(), e.Attempts, e.Err)
}

// Unwrap exposes the attempt's error to errors.Is/As.
func (e *PointError) Unwrap() error { return e.Err }

// PointResult is one grid point's outcome in campaign order.
type PointResult struct {
	Point driver.SweepPoint
	// MC holds the aggregates when Status is StatusDone.
	MC driver.MCResult
	// Status classifies the outcome; Err is the *PointError when
	// StatusFailed.
	Status PointStatus
	Err    error
	// Attempts counts simulation attempts across campaign runs (0 for a
	// point restored from the journal or the cache without simulating).
	Attempts int
	// Restored marks a point satisfied entirely from the journal.
	Restored bool
}

// Options configures a campaign.
type Options struct {
	// JournalPath enables durable progress journaling; empty runs the
	// campaign unjournaled (failed points are still quarantined).
	JournalPath string
	// Resume permits reopening an existing journal at JournalPath and
	// continuing it. Without Resume an existing journal file is an
	// error — refusing to guess is safer than silently merging.
	Resume bool
	// SnapshotEvery journals an in-point accumulator snapshot every this
	// many folded replicates (0 selects 8). Snapshot cadence trades
	// journal I/O against re-simulated replicates on resume — a resumed
	// point restarts from the last snapshot and re-folds the short tail
	// bit-identically, so the setting never affects results. 1 is the
	// zero-loss setting: a snapshot record at every replicate boundary
	// (fsync bandwidth then bounds replicate throughput — ~2.5 KB of
	// journal per replicate).
	SnapshotEvery int
	// SyncEvery batches journal fsyncs (0 selects 16; point completions
	// always sync). At most SyncEvery-1 snapshot records can be lost to
	// a crash — each costing SnapshotEvery re-simulated replicates on
	// resume, never correctness.
	SyncEvery int
	// PointTimeout is the per-point deadline (0: none), counted from
	// the dispatch of the point's first replicate; a point past it is
	// quarantined. A replicate is not interrupted mid-simulation: the
	// deadline takes effect at the point's next replicate boundary, or
	// inside a hook that honours its context.
	PointTimeout time.Duration
	// Workers bounds the session's parallelism (0 means GOMAXPROCS).
	Workers int
	// Antithetic and TargetCI configure the session's variance-reduction
	// and sequential-stopping behaviour, as the Session options.
	Antithetic bool
	TargetCI   driver.TargetCI
	// Progress, when set, receives campaign-wide replicate progress
	// (done, total) across all points, monotone within a run.
	Progress func(done, total int)
	// Cache, when non-nil, is the session's result cache
	// (driver.WithResultCache); every completed point, journal replays
	// included, is stored in it. A hit — like a repeated cell, with or
	// without a cache — yields MC.Cached and journals cache_hit plus the
	// point's aggregates, so a resume needs no cache. Results are
	// bit-identical either way.
	Cache driver.ResultCache
}

// Progress is a point-in-time snapshot of campaign advancement — the
// lightweight observation the management plane polls without consuming
// the result iterator. Counters cover the current campaign run: points
// replayed from the journal count as done (and restored), replicates
// folded includes the in-flight points' progress, and cache hits count
// points served from the result cache or a repeated cell instead of
// simulated.
type Progress struct {
	// PointsDone and PointsFailed classify the points the run has
	// concluded so far; PointsTotal is the grid size.
	PointsDone, PointsFailed, PointsTotal int
	// PointsRestored counts the done points that were replayed from the
	// journal rather than simulated or cache-served this run.
	PointsRestored int
	// ReplicatesFolded / ReplicatesTotal measure replicate progress
	// across the whole grid (total = points × runs; a point stopped
	// early by a target CI or served whole from cache/journal advances
	// by its RunsUsed, and a failed point by the replicates it folded,
	// so the ratio may finish below 1).
	ReplicatesFolded, ReplicatesTotal int
	// CacheHits counts points served Cached this run.
	CacheHits int
}

// Campaign runs sweeps durably over one driver.Session.
type Campaign struct {
	opts    Options
	session *driver.Session
	// folded is the session's last folded-replicate count; served adds
	// the RunsUsed of points yielded unfolded (journal replays, cached
	// cells). Both change on the RunSweep goroutine only.
	folded, served int
	progressTotal  int
	// progMu guards prog, the snapshot Snapshot serves: every other
	// Campaign field is single-goroutine, but the snapshot is exactly
	// the state outside observers poll concurrently.
	progMu sync.Mutex
	prog   Progress
}

// Snapshot returns the current progress. Safe to call from any
// goroutine, including while RunSweep is executing on another.
func (c *Campaign) Snapshot() Progress {
	c.progMu.Lock()
	defer c.progMu.Unlock()
	return c.prog
}

// note applies a mutation to the progress snapshot under its lock.
func (c *Campaign) note(f func(*Progress)) {
	c.progMu.Lock()
	f(&c.prog)
	c.progMu.Unlock()
}

// New returns a campaign runner. The underlying session uses the
// streaming aggregation path — the only path with O(1) resumable state.
func New(opts Options) *Campaign {
	c := &Campaign{opts: opts}
	sopts := []driver.SessionOption{
		driver.WithWorkers(opts.Workers),
		driver.WithAntithetic(opts.Antithetic),
	}
	if opts.TargetCI.HalfWidth > 0 {
		sopts = append(sopts, driver.WithTargetCI(opts.TargetCI.HalfWidth,
			opts.TargetCI.Confidence, opts.TargetCI.MinRuns, opts.TargetCI.MaxRuns))
	}
	if opts.Cache != nil {
		sopts = append(sopts, driver.WithResultCache(opts.Cache))
	}
	// The session progress hook always feeds the Snapshot counters —
	// replicate-level progress inside the in-flight points — and
	// forwards to the caller's Progress callback when one is set.
	sopts = append(sopts, driver.WithProgress(func(done, _ int) {
		c.folded = done
		c.reportFolded()
	}))
	c.session = driver.NewSession(sopts...)
	return c
}

// reportFolded publishes the campaign-wide replicate progress.
func (c *Campaign) reportFolded() {
	n := c.folded + c.served
	c.note(func(p *Progress) { p.ReplicatesFolded = n })
	if c.opts.Progress != nil {
		c.opts.Progress(n, c.progressTotal)
	}
}

// fingerprintSpec is the canonical identity of a campaign: everything
// that influences its results, reduced to plain data. Two campaigns with
// equal fingerprints produce bit-identical journals. Scheduler is always
// empty: Config once carried an event-queue knob that campaign specs
// normally left unset, and keeping the empty field keeps their
// fingerprints byte-identical, so journals written then still resume.
type fingerprintSpec struct {
	PlatformName    string   `json:"platform"`
	Nodes           int      `json:"nodes"`
	MemoryBytes     float64  `json:"memory_bytes"`
	BandwidthBps    float64  `json:"bandwidth_bps"`
	NodeMTBFSeconds float64  `json:"node_mtbf_seconds"`
	Classes         []string `json:"classes"`
	Seed            uint64   `json:"seed"`
	Scheduler       string   `json:"scheduler"`
	Horizon         float64  `json:"horizon_days"`
	Warmup          float64  `json:"warmup_days"`
	Cooldown        float64  `json:"cooldown_days"`
	Gen             any      `json:"gen"`
	Interference    string   `json:"interference"`
	Channels        int      `json:"channels"`
	FailureModel    int      `json:"failure_model"`
	WeibullShape    float64  `json:"weibull_shape"`
	BurstBuffer     any      `json:"burst_buffer,omitempty"`
	Disable         [3]bool  `json:"disable"`
	PairedBaseline  bool     `json:"paired_baseline"`
	Antithetic      bool     `json:"antithetic"`
	TargetCI        any      `json:"target_ci"`
	Runs            int      `json:"runs"`

	GridBandwidths []float64    `json:"grid_bandwidths"`
	GridMTBFs      []float64    `json:"grid_mtbfs"`
	GridFailures   [][2]float64 `json:"grid_failures"`
	GridChannels   []int        `json:"grid_channels"`
	GridStrategies []string     `json:"grid_strategies"`
}

// fingerprint hashes the campaign's canonical spec. Interfaces and
// function fields of Config are identified by name (strategies) or by
// dynamic type plus parameters (interference models) — the precision a
// journal header can have without serializing code. A parameterless
// model keeps its bare type name, so nil, LinearShare and Unlimited hash
// as they did before parameters were included.
func (c *Campaign) fingerprint(base engine.Config, grid driver.SweepGrid, runs int) string {
	classes := make([]string, len(base.Classes))
	for i, cl := range base.Classes {
		classes[i] = fmt.Sprintf("%v", cl)
	}
	interference := fmt.Sprintf("%T", base.Interference)
	if params := fmt.Sprintf("%+v", base.Interference); base.Interference != nil && params != "{}" {
		interference += params
	}
	spec := fingerprintSpec{
		PlatformName:    base.Platform.Name,
		Nodes:           base.Platform.Nodes,
		MemoryBytes:     base.Platform.MemoryBytes,
		BandwidthBps:    base.Platform.BandwidthBps,
		NodeMTBFSeconds: base.Platform.NodeMTBFSeconds,
		Classes:         classes,
		Seed:            base.Seed,
		Horizon:         base.HorizonDays,
		Warmup:          base.WarmupDays,
		Cooldown:        base.CooldownDays,
		Gen:             base.Gen,
		Interference:    interference,
		Channels:        base.Channels,
		FailureModel:    int(base.FailureModel),
		WeibullShape:    base.WeibullShape,
		Disable:         [3]bool{base.DisableFailures, base.DisableCheckpoints, base.BaselineIO},
		PairedBaseline:  base.PairedBaseline,
		Antithetic:      c.opts.Antithetic,
		TargetCI:        c.opts.TargetCI,
		Runs:            runs,
		GridBandwidths:  grid.BandwidthsBps,
		GridMTBFs:       grid.NodeMTBFSeconds,
		GridChannels:    grid.Channels,
	}
	if base.BurstBuffer != nil {
		spec.BurstBuffer = *base.BurstBuffer
	}
	if base.Strategy.Name() != "" {
		spec.GridStrategies = append(spec.GridStrategies, "base:"+base.Strategy.Name())
	}
	for _, fs := range grid.FailureSpecs {
		spec.GridFailures = append(spec.GridFailures, [2]float64{float64(fs.Model), fs.WeibullShape})
	}
	for _, s := range grid.Strategies {
		spec.GridStrategies = append(spec.GridStrategies, s.Name())
	}
	blob, err := json.Marshal(spec)
	if err != nil {
		// Every field is plain data; Marshal cannot fail on it.
		panic(err)
	}
	sum := sha256.Sum256(blob)
	return hex.EncodeToString(sum[:])
}

// openOrCreate sets up the journal per Options, returning the replayed
// state when resuming (nil otherwise).
func (c *Campaign) openOrCreate(fp string, points, runs int, seed uint64) (*Journal, *ReplayState, error) {
	if c.opts.JournalPath == "" {
		return nil, nil, nil
	}
	syncEvery := c.opts.SyncEvery
	if syncEvery == 0 {
		syncEvery = 16
	}
	if c.opts.Resume {
		j, st, err := OpenJournal(c.opts.JournalPath, syncEvery)
		if err == nil {
			if st.Header.Fingerprint != fp {
				j.Close()
				return nil, nil, fmt.Errorf("campaign: journal %s belongs to a different campaign (fingerprint %.12s…, this campaign %.12s…)",
					c.opts.JournalPath, st.Header.Fingerprint, fp)
			}
			return j, st, nil
		}
		if !errors.Is(err, fs.ErrNotExist) {
			return nil, nil, err
		}
		// Fall through: resuming a journal that does not exist yet
		// starts one — the ergonomic first run of a -resume campaign.
	}
	j, err := CreateJournal(c.opts.JournalPath, Header{
		Fingerprint: fp, Points: points, Runs: runs, Seed: seed,
	}, syncEvery)
	return j, nil, err
}

// RunSweep evaluates the grid over the base configuration durably, as
// one driver.Session.SweepPoints run: each point gets one attempt with
// journaled snapshots, a failed point is quarantined, and results stream
// in grid order as an iterator. The returned errf (call it after iteration)
// reports campaign-level failure — journal durability loss or context
// cancellation; per-point failures are in-band as PointResult.Status.
//
// Resume semantics when Options.Resume finds a journal: completed points
// replay instantly as Restored; a point with a mid-experiment snapshot
// restarts at replicate Folded+1 under the pinned CRN schedule, folding
// into its restored accumulators — bit-identical to never having
// stopped; a previously failed point gets a fresh attempt, from its last
// journaled snapshot.
func (c *Campaign) RunSweep(ctx context.Context, base engine.Config, grid driver.SweepGrid, runs int) (iter.Seq[PointResult], func() error) {
	var campErr error
	seq := func(yield func(PointResult) bool) {
		campErr = c.runSweep(ctx, base, grid, runs, yield)
	}
	return seq, func() error { return campErr }
}

// Run evaluates a single configuration durably — a one-point campaign.
func (c *Campaign) Run(ctx context.Context, cfg engine.Config, runs int) (PointResult, error) {
	grid := driver.SweepGrid{}
	var out PointResult
	seq, errf := c.RunSweep(ctx, cfg, grid, runs)
	for pr := range seq {
		out = pr
	}
	return out, errf()
}

func (c *Campaign) runSweep(ctx context.Context, base engine.Config, grid driver.SweepGrid, runs int, yield func(PointResult) bool) error {
	if err := base.Validate(); err != nil {
		return err
	}
	pts := grid.Points(base)
	fp := c.fingerprint(base, grid, runs)
	j, replayed, err := c.openOrCreate(fp, len(pts), runs, base.Seed)
	if err != nil {
		return err
	}
	sealed := false
	defer func() {
		// Close is the crash-consistency boundary: everything appended
		// — completed points and the latest snapshots — is synced even
		// when the campaign stops early, so a later resume loses
		// nothing that was reported.
		if !sealed {
			j.Close()
		}
	}()

	c.progressTotal = len(pts) * runs
	c.folded, c.served = 0, 0
	c.note(func(p *Progress) {
		*p = Progress{PointsTotal: len(pts), ReplicatesTotal: c.progressTotal}
	})

	// ~2.5 KB of journal per snapshot and fsync cost scales with dirty
	// bytes, so per-replicate records would bound replicate throughput by
	// disk bandwidth; every 8th boundary keeps the overhead a fraction of
	// a percent and a crash re-simulates at most the short tail.
	every := c.opts.SnapshotEvery
	if every == 0 {
		every = 8
	}
	// attempts: each point's journaled failures plus this run's attempt.
	attempts := make([]int, len(pts))
	gps := make([]driver.GridPoint, len(pts))
	for i, pt := range pts {
		gp := driver.GridPoint{Config: pt.Apply(base), Timeout: c.opts.PointTimeout}
		attempts[i] = 1
		if replayed != nil {
			if st := replayed.Points[pt.Index]; st != nil {
				attempts[i] += st.Attempts
				gp.Done, gp.Resume = st.Done, st.Snap
			}
		}
		if j != nil && gp.Done == nil {
			// Durability errors latch in the journal and fail the
			// campaign at the next point the sweep reports.
			gp.OnSnapshot = func(s driver.MCSnapshot) {
				_ = j.append(recSnap, snapRecord{Point: pt.Index, Snap: s}, false)
			}
			gp.SnapshotEvery = every
		}
		gps[i] = gp
	}

	var fatal error
	stopped := false
	err = c.session.SweepPoints(ctx, gps, runs, func(p int, mc driver.MCResult, perr error) bool {
		var pr PointResult
		pr, fatal = c.conclude(j, pts[p], gps[p], attempts[p], mc, perr)
		stopped = fatal != nil || !yield(pr)
		return !stopped
	})
	if fatal != nil {
		return fatal
	}
	if err != nil || stopped {
		// Cancelled, or the consumer stopped early: the journal is
		// left unsealed for a resume.
		return err
	}
	if err := j.Seal(); err != nil {
		return err
	}
	sealed = true
	return j.Close()
}

// conclude journals one point's outcome as the sweep reports it and
// updates the progress counters. A replayed point is already journaled;
// a Cached one is journaled as cache_hit then point_done, so a resume
// replays it without needing a cache; a quarantined one as
// attempt_failed then point_error, the record pair earlier writers
// journaled, kept so journals stay byte-identical. The returned error is
// campaign-fatal (journal loss); per-point failure comes back inside the
// PointResult.
func (c *Campaign) conclude(j *Journal, pt driver.SweepPoint, gp driver.GridPoint, attempts int, mc driver.MCResult, perr error) (PointResult, error) {
	if jerr := j.Err(); jerr != nil {
		// The journal can no longer guarantee durability; pressing on
		// would break the resume contract silently.
		return PointResult{}, jerr
	}
	// The journal latches its first append error, so the last append of
	// each record pair reports a failure of either.
	if perr != nil {
		var panicErr *driver.PanicError
		rec := failRecord{Point: pt.Index, Attempt: attempts, Error: perr.Error()}
		attempt := rec
		attempt.Panic = errors.As(perr, &panicErr)
		_ = j.append(recAttemptFail, attempt, true)
		if err := j.append(recPointError, rec, true); err != nil {
			return PointResult{}, err
		}
		c.note(func(p *Progress) { p.PointsFailed++ })
		return PointResult{Point: pt, Status: StatusFailed, Attempts: attempts,
			Err: &PointError{Point: pt, Attempts: attempts, Err: perr}}, nil
	}

	pr := PointResult{Point: pt, MC: mc, Status: StatusDone}
	switch {
	case gp.Done != nil:
		pr.Restored = true
	case mc.Cached:
		_ = j.append(recCacheHit, cacheHitRecord{Point: pt.Index}, false)
	default:
		pr.Attempts = attempts
		// A snapshot that already folds the whole experiment completes
		// the point without simulating.
		pr.Restored = gp.Resume != nil && gp.Resume.Folded > 0 && mc.RunsUsed <= gp.Resume.Folded
	}
	if gp.Done == nil {
		if err := j.append(recPointDone, doneRecord{Point: pt.Index, MC: toRecord(mc)}, true); err != nil {
			return PointResult{}, err
		}
	}
	c.note(func(p *Progress) {
		p.PointsDone++
		if pr.Restored {
			p.PointsRestored++
		} else if mc.Cached {
			p.CacheHits++
		}
	})
	if pr.Restored || mc.Cached {
		c.served += mc.RunsUsed
		c.reportFolded()
	}
	return pr, nil
}
