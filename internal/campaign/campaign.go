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
	"math/rand/v2"
	"sync"
	"time"

	"repro/internal/engine"
)

// RetryPolicy bounds how hard the campaign fights for each point before
// quarantining it.
type RetryPolicy struct {
	// MaxAttempts is the attempt budget per point per campaign run
	// (minimum 1; 0 selects 1, i.e. no retries).
	MaxAttempts int
	// BaseBackoff is the delay before the first retry; each further
	// retry doubles it up to MaxBackoff. Zero selects 100ms.
	BaseBackoff time.Duration
	// MaxBackoff caps the exponential growth. Zero selects 5s.
	MaxBackoff time.Duration
	// JitterFrac spreads each backoff uniformly over ±JitterFrac of its
	// nominal value, drawn from a deterministic per-(point, attempt)
	// stream so campaign timing stays reproducible. Zero means no
	// jitter; values are clamped to [0, 1].
	JitterFrac float64
	// PointTimeout is the per-attempt deadline; an attempt that exceeds
	// it is cancelled (cooperatively — the engine's workers observe the
	// context between events) and counts as a failure. Zero means no
	// deadline.
	PointTimeout time.Duration
	// BreakerThreshold trips a per-strategy circuit breaker: once this
	// many consecutive points of one strategy have failed, its remaining
	// points are skipped (StatusSkipped) instead of simulated. A
	// completed point resets the strategy's count. Zero disables the
	// breaker.
	BreakerThreshold int
}

func (p RetryPolicy) withDefaults() RetryPolicy {
	if p.MaxAttempts <= 0 {
		p.MaxAttempts = 1
	}
	if p.BaseBackoff <= 0 {
		p.BaseBackoff = 100 * time.Millisecond
	}
	if p.MaxBackoff <= 0 {
		p.MaxBackoff = 5 * time.Second
	}
	if p.JitterFrac < 0 {
		p.JitterFrac = 0
	} else if p.JitterFrac > 1 {
		p.JitterFrac = 1
	}
	return p
}

// backoff returns the nominal delay before retry number `retry` (1-based)
// with the deterministic jitter for (seed, point, retry) applied.
func (p RetryPolicy) backoff(seed uint64, point, retry int) time.Duration {
	d := p.BaseBackoff
	for i := 1; i < retry && d < p.MaxBackoff; i++ {
		d *= 2
	}
	if d > p.MaxBackoff {
		d = p.MaxBackoff
	}
	if p.JitterFrac > 0 {
		rng := rand.New(rand.NewPCG(seed, uint64(point)<<20|uint64(retry)))
		d = time.Duration(float64(d) * (1 + p.JitterFrac*(2*rng.Float64()-1)))
	}
	return d
}

// PointStatus classifies a campaign point's outcome.
type PointStatus int

const (
	// StatusDone marks a point with valid aggregates (simulated now or
	// restored from the journal).
	StatusDone PointStatus = iota
	// StatusFailed marks a point quarantined after its attempt budget:
	// its Err is a *PointError, the rest of the grid still ran.
	StatusFailed
	// StatusSkipped marks a point skipped by the circuit breaker.
	StatusSkipped
)

// String implements fmt.Stringer.
func (s PointStatus) String() string {
	switch s {
	case StatusDone:
		return "done"
	case StatusFailed:
		return "failed"
	case StatusSkipped:
		return "skipped"
	}
	return fmt.Sprintf("PointStatus(%d)", int(s))
}

// PointError quarantines one grid point's failure: the campaign reports
// it and moves on instead of aborting the sweep.
type PointError struct {
	// Point identifies the failed cell.
	Point engine.SweepPoint
	// Attempts is how many attempts were burned (this campaign run plus
	// journaled earlier runs).
	Attempts int
	// Err is the last attempt's error.
	Err error
}

// Error implements error.
func (e *PointError) Error() string {
	return fmt.Sprintf("campaign: point %d (%s) failed after %d attempt(s): %v",
		e.Point.Index, e.Point.Strategy.Name(), e.Attempts, e.Err)
}

// Unwrap exposes the last attempt's error to errors.Is/As.
func (e *PointError) Unwrap() error { return e.Err }

// PointResult is one grid point's outcome in campaign order.
type PointResult struct {
	Point engine.SweepPoint
	// MC holds the aggregates when Status is StatusDone.
	MC engine.MCResult
	// Status classifies the outcome; Err is the *PointError when
	// StatusFailed.
	Status PointStatus
	Err    error
	// Attempts counts simulation attempts across campaign runs (0 for a
	// point restored or skipped without simulating).
	Attempts int
	// Restored marks a point satisfied entirely from the journal.
	Restored bool
}

// Options configures a campaign.
type Options struct {
	// JournalPath enables durable progress journaling; empty runs the
	// campaign unjournaled (still with retry/quarantine/breaker).
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
	// Retry is the failure-handling policy.
	Retry RetryPolicy
	// Workers bounds the engine's parallelism (0 means GOMAXPROCS).
	Workers int
	// Antithetic and TargetCI configure the engine's variance-reduction
	// and sequential-stopping behaviour, as the Session options.
	Antithetic bool
	TargetCI   engine.TargetCI
	// Progress, when set, receives campaign-wide replicate progress
	// (done, total) across all points, monotone within a run.
	Progress func(done, total int)
	// Cache, when non-nil, memoises points by content address
	// (engine.ExperimentKey): before simulating a point the campaign
	// consults the cache, and every completed point — simulated now or
	// restored from the journal — is stored back. A hit yields
	// StatusDone with MC.Cached set and journals a cache_hit record
	// followed by the point's aggregates, so a resume replays the point
	// without needing the cache. Results are bit-identical either way;
	// see engine.ResultCache.
	Cache engine.ResultCache
}

// Progress is a point-in-time snapshot of campaign advancement — the
// lightweight observation the management plane polls without consuming
// the result iterator. Counters cover the current campaign run: points
// replayed from the journal count as done (and restored), replicates
// folded includes the in-flight point's progress, and cache hits count
// points satisfied from the result cache instead of simulated.
type Progress struct {
	// PointsDone, PointsFailed and PointsSkipped classify the points the
	// run has concluded so far; PointsTotal is the grid size.
	PointsDone, PointsFailed, PointsSkipped, PointsTotal int
	// PointsRestored counts the done points that were replayed from the
	// journal rather than simulated or cache-served this run.
	PointsRestored int
	// ReplicatesFolded / ReplicatesTotal measure replicate progress
	// across the whole grid (total = points × runs; a point stopped
	// early by a target CI or served whole from cache/journal advances
	// by its RunsUsed, so the ratio may finish below 1).
	ReplicatesFolded, ReplicatesTotal int
	// CacheHits counts points served from Options.Cache this run.
	CacheHits int
}

// Campaign runs sweeps durably over one engine.Session.
type Campaign struct {
	opts    Options
	session *engine.Session
	// progressBase offsets the session's per-experiment progress into
	// campaign-wide progress; mutated only between experiments.
	progressBase  int
	progressTotal int
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
	sopts := []engine.SessionOption{
		engine.WithWorkers(opts.Workers),
		engine.WithAntithetic(opts.Antithetic),
	}
	if opts.TargetCI.HalfWidth > 0 {
		sopts = append(sopts, engine.WithTargetCI(opts.TargetCI.HalfWidth,
			opts.TargetCI.Confidence, opts.TargetCI.MinRuns, opts.TargetCI.MaxRuns))
	}
	// The session progress hook always feeds the Snapshot counters —
	// replicate-level progress inside the in-flight point — and forwards
	// to the caller's Progress callback when one is set.
	sopts = append(sopts, engine.WithProgress(func(done, _ int) {
		folded := c.progressBase + done
		c.note(func(p *Progress) { p.ReplicatesFolded = folded })
		if opts.Progress != nil {
			opts.Progress(folded, c.progressTotal)
		}
	}))
	c.session = engine.NewSession(sopts...)
	return c
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
// function fields of Config are identified by name (strategies) or
// dynamic type (interference models) — the precision a journal header
// can have without serializing code.
func (c *Campaign) fingerprint(base engine.Config, grid engine.SweepGrid, runs int) string {
	classes := make([]string, len(base.Classes))
	for i, cl := range base.Classes {
		classes[i] = fmt.Sprintf("%v", cl)
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
		Interference:    fmt.Sprintf("%T", base.Interference),
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

// RunSweep evaluates the grid over the base configuration durably: each
// point runs as its own Monte-Carlo experiment with journaled snapshots,
// retry, quarantine and breaker handling, and results stream in grid
// order as an iterator. The returned errf (call it after iteration)
// reports campaign-level failure — journal durability loss or context
// cancellation; per-point failures are in-band as PointResult.Status.
//
// Resume semantics when Options.Resume finds a journal: completed points
// replay instantly as Restored; a point with a mid-experiment snapshot
// restarts at replicate Folded+1 under the pinned CRN schedule, folding
// into its restored accumulators — bit-identical to never having
// stopped; previously failed points get a fresh attempt budget.
func (c *Campaign) RunSweep(ctx context.Context, base engine.Config, grid engine.SweepGrid, runs int) (iter.Seq[PointResult], func() error) {
	var campErr error
	seq := func(yield func(PointResult) bool) {
		campErr = c.runSweep(ctx, base, grid, runs, yield)
	}
	return seq, func() error { return campErr }
}

// Run evaluates a single configuration durably — a one-point campaign.
func (c *Campaign) Run(ctx context.Context, cfg engine.Config, runs int) (PointResult, error) {
	grid := engine.SweepGrid{}
	var out PointResult
	seq, errf := c.RunSweep(ctx, cfg, grid, runs)
	for pr := range seq {
		out = pr
	}
	return out, errf()
}

func (c *Campaign) runSweep(ctx context.Context, base engine.Config, grid engine.SweepGrid, runs int, yield func(PointResult) bool) error {
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

	policy := c.opts.Retry.withDefaults()
	c.progressTotal = len(pts) * runs
	c.progressBase = 0
	c.note(func(p *Progress) {
		*p = Progress{PointsTotal: len(pts), ReplicatesTotal: c.progressTotal}
	})
	// breaker counts consecutive failed points per strategy, seeded from
	// the journal so a resumed campaign remembers a tripping streak.
	breaker := map[string]int{}

	for _, pt := range pts {
		if err := ctx.Err(); err != nil {
			return err
		}
		name := pt.Strategy.Name()
		var st *PointState
		if replayed != nil {
			st = replayed.Points[pt.Index]
		}
		// cacheKey is the point's content address when the result cache is
		// on and the point is cacheable ("" otherwise).
		cacheKey := ""
		if c.opts.Cache != nil {
			if key, ok := engine.ExperimentKey(pt.Apply(base), runs, engine.MCOptions{
				TargetCI: c.opts.TargetCI, Antithetic: c.opts.Antithetic,
			}); ok {
				cacheKey = key
			}
		}

		// Completed in a previous run: replay, no simulation.
		if st != nil && st.Done != nil {
			c.cachePut(cacheKey, *st.Done)
			c.progressBase += st.Done.RunsUsed
			c.note(func(p *Progress) {
				p.PointsDone++
				p.PointsRestored++
				p.ReplicatesFolded = c.progressBase
			})
			if c.opts.Progress != nil {
				c.opts.Progress(c.progressBase, c.progressTotal)
			}
			breaker[name] = 0
			if !yield(PointResult{Point: pt, MC: *st.Done, Status: StatusDone, Restored: true}) {
				return nil
			}
			continue
		}

		// Result cache: a point whose content address is already cached
		// completes without simulating. The hit is journaled (cache_hit,
		// then the aggregates as a normal point_done) so a resume replays
		// it without needing the cache present.
		if cacheKey != "" {
			if mc, hit := c.opts.Cache.Get(cacheKey); hit {
				mc.Cached = true
				if err := j.append(recCacheHit, cacheHitRecord{Point: pt.Index, Key: cacheKey}, false); err != nil {
					return err
				}
				if err := j.append(recPointDone, doneRecord{Point: pt.Index, MC: toRecord(mc)}, true); err != nil {
					return err
				}
				c.progressBase += mc.RunsUsed
				c.note(func(p *Progress) {
					p.PointsDone++
					p.CacheHits++
					p.ReplicatesFolded = c.progressBase
				})
				if c.opts.Progress != nil {
					c.opts.Progress(c.progressBase, c.progressTotal)
				}
				breaker[name] = 0
				if !yield(PointResult{Point: pt, MC: mc, Status: StatusDone}) {
					return nil
				}
				continue
			}
		}

		// Circuit breaker: a strategy that keeps poisoning points stops
		// consuming the campaign's budget.
		if policy.BreakerThreshold > 0 && breaker[name] >= policy.BreakerThreshold {
			reason := fmt.Sprintf("circuit breaker open for strategy %s (%d consecutive failures)", name, breaker[name])
			if err := j.append(recPointSkipped, skipRecord{Point: pt.Index, Strategy: name, Reason: reason}, true); err != nil {
				return err
			}
			c.progressBase += runs
			c.note(func(p *Progress) {
				p.PointsSkipped++
				p.ReplicatesFolded = c.progressBase
			})
			if !yield(PointResult{Point: pt, Status: StatusSkipped, Err: fmt.Errorf("campaign: %s", reason)}) {
				return nil
			}
			continue
		}

		pr, err := c.runPoint(ctx, base, pt, runs, policy, j, st)
		if err != nil {
			return err
		}
		if pr.Status == StatusDone {
			c.cachePut(cacheKey, pr.MC)
			breaker[name] = 0
			c.progressBase += pr.MC.RunsUsed
			c.note(func(p *Progress) {
				p.PointsDone++
				if pr.Restored {
					p.PointsRestored++
				}
				p.ReplicatesFolded = c.progressBase
			})
		} else {
			breaker[name]++
			c.progressBase += runs
			c.note(func(p *Progress) {
				p.PointsFailed++
				p.ReplicatesFolded = c.progressBase
			})
		}
		if !yield(pr) {
			return nil
		}
	}

	if err := j.Seal(); err != nil {
		return err
	}
	sealed = true
	return j.Close()
}

// cachePut stores a completed point under its content address, clearing
// the provenance flag so cache entries stay canonical. No-op without a
// cache or for uncacheable points (key "").
func (c *Campaign) cachePut(key string, mc engine.MCResult) {
	if c.opts.Cache == nil || key == "" {
		return
	}
	mc.Cached = false
	c.opts.Cache.Put(key, mc)
}

// runPoint drives one grid point to completion, failure or quarantine.
// The returned error is campaign-fatal (journal loss, cancellation);
// per-point failure comes back inside the PointResult.
func (c *Campaign) runPoint(ctx context.Context, base engine.Config, pt engine.SweepPoint, runs int, policy RetryPolicy, j *Journal, st *PointState) (PointResult, error) {
	cfg := pt.Apply(base)
	snap := (*engine.MCSnapshot)(nil)
	priorAttempts := 0
	if st != nil {
		snap = st.Snap
		priorAttempts = st.Attempts
	}
	restoredFrom := 0
	if snap != nil {
		restoredFrom = snap.Folded
	}

	var lastErr error
	attempts := 0
	for attempts < policy.MaxAttempts {
		attempts++
		if err := ctx.Err(); err != nil {
			return PointResult{}, err
		}

		attemptCtx := ctx
		cancel := context.CancelFunc(func() {})
		if policy.PointTimeout > 0 {
			attemptCtx, cancel = context.WithTimeout(ctx, policy.PointTimeout)
		}
		spec := engine.ResumeSpec{
			From:          snap,
			SnapshotEvery: c.opts.SnapshotEvery,
		}
		if j != nil {
			spec.OnSnapshot = func(s engine.MCSnapshot) {
				// Journal the snapshot and keep it in memory: a retry
				// of this point resumes from the last boundary instead
				// of replaying the whole point. Durability errors latch
				// in the journal and fail the campaign after the
				// attempt returns.
				_ = j.append(recSnap, snapRecord{Point: pt.Index, Snap: s}, false)
				s2 := s
				snap = &s2
			}
			if spec.SnapshotEvery == 0 {
				// ~2.5 KB of journal per snapshot and fsync cost scales
				// with dirty bytes, so per-replicate records would bound
				// replicate throughput by disk bandwidth; every 8th
				// boundary keeps the overhead a fraction of a percent
				// and a crash re-simulates at most the short tail.
				spec.SnapshotEvery = 8
			}
		} else {
			spec.OnSnapshot = func(s engine.MCSnapshot) {
				s2 := s
				snap = &s2
			}
			if spec.SnapshotEvery == 0 {
				// Unjournaled campaigns only snapshot to bound retry
				// re-work; per-replicate granularity is overkill.
				spec.SnapshotEvery = 16
			}
		}

		mc, err := c.session.MonteCarloResume(attemptCtx, cfg, runs, spec)
		cancel()
		if jerr := j.Err(); jerr != nil {
			// The journal can no longer guarantee durability; pressing
			// on would break the resume contract silently.
			return PointResult{}, jerr
		}
		if err == nil {
			if aerr := j.append(recPointDone, doneRecord{Point: pt.Index, MC: toRecord(mc)}, true); aerr != nil {
				return PointResult{}, aerr
			}
			return PointResult{
				Point: pt, MC: mc, Status: StatusDone,
				Attempts: priorAttempts + attempts,
				Restored: restoredFrom > 0 && attempts == 1 && mc.RunsUsed <= restoredFrom,
			}, nil
		}
		if ctx.Err() != nil {
			// The campaign itself was cancelled (SIGINT, parent
			// deadline) — not a point failure.
			return PointResult{}, err
		}
		lastErr = err
		var pe *engine.PanicError
		isPanic := errors.As(err, &pe)
		if aerr := j.append(recAttemptFail, failRecord{
			Point: pt.Index, Attempt: priorAttempts + attempts,
			Error: err.Error(), Panic: isPanic,
		}, true); aerr != nil {
			return PointResult{}, aerr
		}
		if attempts < policy.MaxAttempts {
			select {
			case <-ctx.Done():
				return PointResult{}, ctx.Err()
			case <-time.After(policy.backoff(base.Seed, pt.Index, attempts)):
			}
		}
	}

	perr := &PointError{Point: pt, Attempts: priorAttempts + attempts, Err: lastErr}
	if aerr := j.append(recPointError, failRecord{
		Point: pt.Index, Attempt: perr.Attempts, Error: lastErr.Error(),
	}, true); aerr != nil {
		return PointResult{}, aerr
	}
	return PointResult{Point: pt, Status: StatusFailed, Err: perr, Attempts: perr.Attempts}, nil
}
