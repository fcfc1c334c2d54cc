package driver

import (
	"context"
	"fmt"
	"runtime"
	"runtime/debug"
	"slices"
	"sync"
	"time"

	"repro/internal/engine"
	"repro/internal/faultinject"
)

// This file is the grid coordinator, the one replicate scheduler every
// Monte-Carlo experiment runs on. MonteCarlo and each MinBandwidth probe
// are one-point grids; SweepPoints (hence Sweep, Compare and campaigns)
// and the non-reference strategies of ComparePaired are n-point grids.
// The unit of dispatch is a (point, replicate-chunk) work item. Workers
// steal across point boundaries — no worker idles at a point boundary
// while any point in the dispatch horizon still has work — while the
// coordinator (the caller's goroutine) folds each point's replicates in
// strict run order through mcFold and releases concluded points in point
// order through a bounded reorder window.
//
// Workers claim sure work before speculative work. A run is sure when its
// point folds it whatever the stopping rule decides: every run of a
// fixed-runs point, and under sequential stopping every run below the
// next fold count where the rule can fire. A run past that count is
// speculative — the rule may stop the point first and the run is then
// dropped — so a worker takes one only when no point in the dispatch
// horizon has a sure run, and only after yielding its processor once to
// let the coordinator publish pending folds. A fixed-runs grid thus
// dispatches exactly as plain work stealing would, and a one-worker
// target-CI sweep simulates essentially only the replicates it folds,
// while a lone point still keeps its workers busy one decision ahead
// rather than idle.
//
// Results do not depend on the schedule: replicate i of a point is a pure
// function of (cfg.Seed, i) under the CRN schedule regardless of which
// worker simulates it, and all aggregation — including sequential-stopping
// decisions, evaluated at the fold boundaries of the same prefix — happens
// in per-point run order on the coordinator.

// GridPoint is one experiment of a SweepPoints run: a configuration plus
// the hooks a durable campaign runner threads through the sweep.
type GridPoint struct {
	Config engine.Config
	// Done, when non-nil, is the point's known result (replayed from a
	// journal), yielded unsimulated and cached like a simulated one.
	Done *MCResult
	// Resume, when non-nil, restores the point from a snapshot: dispatch
	// starts at Resume.Folded, bit-identical to never having stopped.
	Resume *MCSnapshot
	// OnSnapshot, when non-nil, receives the point's state after every
	// SnapshotEvery-th folded replicate (<= 0: every one), on the
	// caller's goroutine. Resume and OnSnapshot need the streaming path.
	OnSnapshot    func(MCSnapshot)
	SnapshotEvery int
	// Timeout, when positive, is the point's deadline, counted from the
	// dispatch of its first replicate; past it the point fails with
	// context.DeadlineExceeded. A replicate is not interrupted
	// mid-simulation: the deadline takes effect at the point's next
	// replicate boundary, or inside a hook that honours its context.
	Timeout time.Duration
}

// gridPoint is one Monte-Carlo experiment of a grid run.
type gridPoint struct {
	GridPoint
	runs int
	opts MCOptions
}

// gridItem is one simulated replicate in flight from a worker to the
// coordinator. Every dispatched run index produces exactly one item: a
// result or an error.
type gridItem struct {
	p, i int
	r    engine.Result
	err  error
}

// gridPointState tracks one grid point. The scheduling counters (cursor,
// foldedPub, active) and the point context are shared with workers under
// gridSweep.mu; the fold state (fold, pending, nextFold, mc, err, done)
// belongs to the coordinator alone, except the fold's stopping-rule
// configuration (seqOn, minRuns), fixed at setup, which workers read to
// tell sure runs from speculative ones.
type gridPointState struct {
	key string
	// ctx is set at the point's first dispatch: the grid context, or a
	// child carrying the point's Timeout. Workers read it under
	// gridSweep.mu.
	ctx    context.Context
	cancel context.CancelFunc
	// chunk is the work-item length: a few runs under fixed
	// replication, single runs (pairs under antithetic) under sequential
	// stopping — the step between two stopping decisions — so that a
	// worker chooses sure over speculative work (see eligibleLocked)
	// claim by claim.
	chunk int

	// Coordinator-private fold state.
	fold     *mcFold
	pending  map[int]gridItem
	nextFold int
	total    int
	mc       MCResult
	err      error
	invalid  bool // err came from run-count or configuration validation
	done     bool

	// Scheduling state, guarded by gridSweep.mu.
	cursor    int  // next run index to dispatch
	foldedPub int  // published fold progress (mirrors nextFold)
	active    bool // dispatchable: not done, not errored, not a duplicate
}

// gridSweep is one grid execution.
type gridSweep struct {
	ctx    context.Context
	pts    []gridPoint
	states []*gridPointState
	arenas []*engine.Arena

	// The coordinator sets points up lazily and in order (see prepare):
	// ready counts those set up, keyOwner maps a content address to its
	// first cell, and chunk, progress and done feed each active point.
	ready    int
	keyOwner map[string]int
	chunk    int
	progress func(done int)
	done     int

	// window bounds per-point dispatch past the fold frontier (4 per
	// worker), which also caps the pending map per point.
	window int
	// lookahead bounds dispatch past the yield frontier in points,
	// capping how many finished MCResults the reorder window can hold.
	lookahead int

	mu   sync.Mutex
	cond *sync.Cond
	// nextYield is the reorder frontier: the lowest grid point not yet
	// delivered to the consumer. Written by the coordinator only.
	nextYield int
	halted    bool

	// dups lists, per canonical point, the later points that repeat its
	// content address.
	dups map[int][]int
	// memoise keys the cacheable points: keyOwner then deduplicates
	// repeated cells, and cache (nil disables it) serves and stores them.
	memoise bool
	cache   ResultCache
}

// runGrid evaluates pts under the grid coordinator, yielding each point's
// outcome in point order on the caller's goroutine: its result or its own
// failure, after which the grid goes on unless yield returns false.
// memoise keys each cacheable point by its ExperimentKey: a repeated cell
// is simulated once, and the session's result cache serves and stores
// the point. progress (nil disables it) observes the running count of
// folded replicates, a resumed point's snapshot included. It returns
// ctx.Err() if the context ends the run first — the first undelivered
// point is then the count of yields so far — and nil otherwise.
//
// With WithOnResult the lookahead is one point, so the per-run hook sees
// whole-experiment run order: point p+1 dispatches only once point p has
// been yielded.
func (s *Session) runGrid(ctx context.Context, pts []gridPoint, memoise bool, progress func(done int), yield func(p int, mc MCResult, err error) bool) error {
	g := &gridSweep{
		ctx:      ctx,
		pts:      pts,
		states:   make([]*gridPointState, len(pts)),
		dups:     map[int][]int{},
		memoise:  memoise,
		cache:    s.cache,
		keyOwner: map[string]int{},
		progress: progress,
	}
	g.cond = sync.NewCond(&g.mu)

	// The pool sizes to the grid's whole replication, not any single
	// point's: a 30-point × 4-run grid keeps 16 workers busy even though
	// no point alone would. Workers never outnumber the runs left to
	// simulate (counted before cache hits, which lazy setup finds later).
	runs, work := 0, 0
	for _, pt := range pts {
		runs += max(pt.runs, 0)
		if pt.Done == nil && pt.runs > 0 {
			left := pt.opts.budget(pt.runs)
			if pt.Resume != nil {
				left -= min(max(pt.Resume.Folded, 0), left)
			}
			work += left
		}
	}
	g.arenas = s.arenasFor(runs)
	workers := min(len(g.arenas), work)
	g.window = 4 * workers
	g.lookahead = 2*workers + 2
	if s.opts.OnResult != nil {
		g.lookahead = 1
	}
	// A fixed-runs chunk is at most window/workers runs, so every worker
	// can hold a chunk of the same point, and at most an even share of
	// the outstanding work, so a small one-point grid still fans out.
	g.chunk = 4
	if workers > 0 {
		g.chunk = min(g.chunk, (work+workers-1)/workers)
	}
	g.prepare(g.lookahead)

	// Room for every run the workers may hold past the fold frontiers of
	// a few points, so a worker rarely blocks on a busy coordinator.
	resCh := make(chan gridItem, 4*workers+4)
	started := false
	// Halt dispatch, release the point deadlines and drain on every exit
	// — error, cancellation, early break, even a panicking yield — so the
	// run never leaks a worker goroutine or a timer past its return.
	defer func() {
		g.mu.Lock()
		g.halted = true
		for _, st := range g.states[:g.ready] {
			g.retireLocked(st)
		}
		g.cond.Broadcast()
		g.mu.Unlock()
		if started {
			for range resCh {
			}
		}
	}()

	for {
		// Release concluded points in order. An invalid point surfaces
		// at its position before anything else; cancellation surfaces at
		// the first point not yet delivered when it was observed.
		for g.nextYield < len(pts) {
			p := g.nextYield
			st := g.states[p]
			if !st.invalid {
				if e := ctx.Err(); e != nil {
					return e
				}
				if !st.done && st.err == nil {
					break
				}
			}
			if !yield(p, st.mc, st.err) {
				return nil
			}
			g.prepare(p + 1 + g.lookahead)
			g.mu.Lock()
			g.nextYield++
			g.cond.Broadcast()
			g.mu.Unlock()
		}
		if g.nextYield == len(pts) {
			return nil
		}
		if !started {
			// Workers start only once a point needs simulating: a
			// pre-cancelled context or a fully cached grid spawns none.
			started = true
			var wg sync.WaitGroup
			for w := 0; w < workers; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					g.work(w, resCh)
				}(w)
			}
			go func() {
				wg.Wait()
				close(resCh)
			}()
		}
		select {
		case it, ok := <-resCh:
			if !ok {
				// Workers only exit once halted, which only the defer
				// sets — unreachable, but fail loudly over hanging.
				return fmt.Errorf("engine: grid: result channel closed with %d points pending", len(pts)-g.nextYield)
			}
			g.process(it)
		case <-ctx.Done():
			// Surfaced by the yield loop's ctx check next iteration.
		}
	}
}

// prepare sets up the points below hi that are not yet, so a long
// grid's keys and cache lookups run while its first points simulate
// rather than before them. The coordinator calls it before moving the
// dispatch horizon up to hi, so no worker sees a point being set up.
func (g *gridSweep) prepare(hi int) {
	for hi = min(hi, len(g.pts)); g.ready < hi; g.ready++ {
		g.setup(g.ready)
	}
}

// setup resolves point idx: a replayed result, a validation or resume
// failure, a cache or in-grid duplicate hit, a resumed point that is
// already complete, or an active point with its fold state. The checks
// run in the order a caller sees their errors: run count and
// configuration first, then (after the coordinator's context check) the
// resume and snapshot preconditions.
func (g *gridSweep) setup(idx int) {
	pt, keyOwner := g.pts[idx], g.keyOwner
	st := &gridPointState{}
	g.states[idx] = st
	if pt.Done != nil {
		st.mc, st.done = *pt.Done, true
		// A replayed cell serves its later repeats and the cache like a
		// simulated one, unless an earlier cell already owns its key.
		if key := g.key(pt); key != "" {
			if _, owned := keyOwner[key]; !owned {
				keyOwner[key], st.key = idx, key
				g.put(key, st.mc)
			}
		}
		return
	}
	if pt.runs <= 0 {
		st.err, st.invalid = fmt.Errorf("engine: non-positive run count %d", pt.runs), true
		return
	}
	if err := pt.Config.Validate(); err != nil {
		st.err, st.invalid = err, true
		return
	}
	if (pt.Resume != nil || pt.OnSnapshot != nil) && (pt.opts.KeepResults || pt.opts.KeepWasteRatios) {
		st.err = fmt.Errorf("engine: resume and snapshots require the streaming path (no KeepResults/KeepWasteRatios)")
		return
	}
	st.key = g.key(pt)
	if st.key != "" {
		if owner, ok := keyOwner[st.key]; ok {
			// A repeat of an earlier cell's content address (the
			// k-axis × shared-device case SweepGrid documents) is never
			// dispatched: it takes that cell's outcome once concluded.
			if can := g.states[owner]; can.done || can.err != nil {
				copyOutcome(st, can)
			} else {
				g.dups[owner] = append(g.dups[owner], idx)
			}
			return
		}
		keyOwner[st.key] = idx
		if g.cache != nil {
			if mc, ok := g.cache.Get(st.key); ok {
				mc.Cached = true
				st.mc, st.done = mc, true
				return
			}
		}
	}
	st.fold = newMCFold(pt.Config, pt.runs, pt.opts)
	st.fold.onSnapshot, st.fold.snapshotEvery = pt.OnSnapshot, max(pt.SnapshotEvery, 1)
	st.total = st.fold.total
	if rs := pt.Resume; rs != nil {
		if rs.Folded < 0 || rs.Folded > st.total {
			st.err = fmt.Errorf("engine: resume snapshot folds %d replicates, experiment has %d", rs.Folded, st.total)
			return
		}
		if err := st.fold.restore(rs); err != nil {
			st.err = err
			return
		}
		st.cursor, st.nextFold, st.foldedPub = rs.Folded, rs.Folded, rs.Folded
		if st.nextFold == st.total {
			st.mc, st.done = st.fold.finalize(), true
			g.finishPoint(idx)
			return
		}
	}
	st.pending = map[int]gridItem{}
	st.active = true
	st.chunk = g.chunk
	if st.fold.seqOn {
		st.chunk = 1
		if pt.opts.Antithetic {
			st.chunk = 2
		}
	}
	if g.progress != nil {
		g.done += st.nextFold
		st.fold.progress = func() {
			g.done++
			g.progress(g.done)
		}
	}
}

// work is one grid worker: claim a work item, simulate its runs on this
// worker's arena (reconfigured when the claim switches points) under the
// point's context, send one item per run. Exits when next reports the
// run halted.
func (g *gridSweep) work(w int, resCh chan<- gridItem) {
	lastP := -1
	reconfigured := false
	for {
		p, i, n, pctx := g.next(lastP)
		if p < 0 {
			return
		}
		if p != lastP {
			lastP = p
			reconfigured = false
		}
		pt := &g.pts[p]
		var claimErr error
		if faultinject.Armed() {
			claimErr = fireGridDispatch(pctx, p, i, n)
		}
		for k := i; k < i+n; k++ {
			if claimErr != nil {
				resCh <- gridItem{p: p, i: k, err: claimErr}
				continue
			}
			if err := pctx.Err(); err != nil {
				resCh <- gridItem{p: p, i: k, err: err}
				continue
			}
			r, err := runReplicate(pctx, g.arenas, w, &reconfigured, pt.Config, p, k, pt.opts.Antithetic)
			resCh <- gridItem{p: p, i: k, r: r, err: err}
		}
	}
}

// fireGridDispatch fires the dispatch fault-injection site under the same
// panic guard runReplicate gives user code: an injected panic surfaces as
// a *PanicError on the chunk's first run instead of killing the process.
func fireGridDispatch(ctx context.Context, p, i, n int) (err error) {
	defer func() {
		if pv := recover(); pv != nil {
			err = &PanicError{Run: i, Value: pv, Stack: debug.Stack()}
		}
	}()
	return faultinject.Fire(ctx, faultinject.SiteGridDispatch,
		faultinject.GridDispatch{Point: p, Run: i, Len: n})
}

// next claims the next work item for a worker, sure work first: the next
// sure run of its current point (keeping the arena configured), else of
// the lowest-index point in the dispatch horizon that has one — work
// stealing across point boundaries. Only when no sure run is eligible
// anywhere does it speculate, on its current point if it can, else on
// the lowest eligible point, after yielding the processor once; it never
// waits for a fold while any run is eligible. The point's first claim
// starts its deadline. Blocks while no work is eligible; returns p = -1
// once the run halts.
func (g *gridSweep) next(lastP int) (p, i, n int, ctx context.Context) {
	g.mu.Lock()
	defer g.mu.Unlock()
	yielded := false
	for {
		if g.halted {
			return -1, 0, 0, nil
		}
		p = g.pickLocked(lastP, true)
		if p < 0 {
			p = g.pickLocked(lastP, false)
			if p >= 0 && !yielded {
				// Only speculation is left. The coordinator, woken by this
				// worker's last send, may be queued behind it on the same
				// processor: yield once so that it can publish its folds,
				// which often makes a run sure, then claim.
				yielded = true
				g.mu.Unlock()
				runtime.Gosched()
				g.mu.Lock()
				continue
			}
		}
		if p >= 0 {
			st := g.states[p]
			if st.ctx == nil {
				st.ctx = g.ctx
				if t := g.pts[p].Timeout; t > 0 {
					st.ctx, st.cancel = context.WithTimeout(g.ctx, t)
				}
			}
			n = min(st.chunk, g.window-(st.cursor-st.foldedPub), st.total-st.cursor)
			i = st.cursor
			st.cursor += n
			return p, i, n, st.ctx
		}
		g.cond.Wait()
	}
}

// pickLocked returns the point a worker last on lastP claims from — lastP
// itself while it has eligible work, else the lowest eligible point in
// the dispatch horizon — or -1. With sure set, only points whose next run
// is sure are eligible. Callers hold g.mu.
func (g *gridSweep) pickLocked(lastP int, sure bool) int {
	if lastP >= 0 && g.eligibleLocked(lastP, sure) {
		return lastP
	}
	hi := min(len(g.states), g.nextYield+g.lookahead)
	for q := g.nextYield; q < hi; q++ {
		if g.eligibleLocked(q, sure) {
			return q
		}
	}
	return -1
}

// eligibleLocked reports whether point p has dispatchable work and, with
// sure set, whether its next run is sure: one the point folds whatever
// its stopping rule decides. Every run of a fixed-runs point is sure.
// Under sequential stopping the rule can next fire at fold count
// foldedPub+1 (rounded up to a pair boundary under antithetic, where it
// decides only at even counts) and never below its floor, so every run
// below that count is sure. Callers hold g.mu.
func (g *gridSweep) eligibleLocked(p int, sure bool) bool {
	if p >= g.nextYield+g.lookahead {
		return false
	}
	st := g.states[p]
	if !st.active || st.cursor >= st.total || st.cursor-st.foldedPub >= g.window {
		return false
	}
	if !sure || !st.fold.seqOn {
		return true
	}
	decide := st.foldedPub + 1
	if g.pts[p].opts.Antithetic {
		decide += decide % 2
	}
	return st.cursor < max(decide, st.fold.minRuns)
}

// process folds one delivered item on the coordinator: buffer it, fold
// the point's contiguous prefix in run order, and conclude the point
// when its stopping rule fires, its budget completes, a replicate fails
// or its deadline has passed. Items for points that already concluded
// (runs speculated past a stop, or past a failure) are dropped. Once the
// grid's context is done nothing more folds, so the OnResult and
// progress deliveries made before the cancellation was observed form an
// exact in-order prefix.
func (g *gridSweep) process(it gridItem) {
	st := g.states[it.p]
	if st.done || st.err != nil {
		return
	}
	// Every item of a point follows its first claim, which set st.ctx.
	if st.ctx != g.ctx && st.ctx.Err() != nil && g.ctx.Err() == nil {
		g.fail(it.p, st.ctx.Err())
		return
	}
	st.pending[it.i] = it
	changed := false
	for g.ctx.Err() == nil {
		q, ok := st.pending[st.nextFold]
		if !ok {
			break
		}
		delete(st.pending, st.nextFold)
		if q.err != nil {
			g.fail(it.p, fmt.Errorf("engine: run %d: %w", q.i, q.err))
			return
		}
		stop := st.fold.fold(q.i, q.r)
		st.nextFold++
		changed = true
		if stop || st.nextFold == st.total {
			st.mc = st.fold.finalize()
			st.done = true
			st.pending = nil
			g.finishPoint(it.p)
			break
		}
	}
	if changed {
		g.mu.Lock()
		st.foldedPub = st.nextFold
		if st.done {
			g.retireLocked(st)
		}
		g.cond.Broadcast()
		g.mu.Unlock()
	}
}

// retireLocked stops dispatching a concluded point and releases its
// deadline. Callers hold g.mu.
func (g *gridSweep) retireLocked(st *gridPointState) {
	st.active = false
	if st.cancel != nil {
		st.cancel()
	}
}

// fail concludes point p with err: dispatch of it stops, and its
// duplicate cells fail with it.
func (g *gridSweep) fail(p int, err error) {
	st := g.states[p]
	st.err = err
	st.pending = nil
	g.mu.Lock()
	g.retireLocked(st)
	g.cond.Broadcast()
	g.mu.Unlock()
	g.finishPoint(p)
}

// key returns the point's content address, or "" when the grid does
// not memoise or the point is not cacheable.
func (g *gridSweep) key(pt gridPoint) string {
	if !g.memoise {
		return ""
	}
	k, _ := ExperimentKey(pt.Config, pt.runs, pt.opts)
	return k
}

// put stores a concluded point in the session cache, if there is one,
// with its provenance flag cleared so that entries stay canonical.
func (g *gridSweep) put(key string, mc MCResult) {
	if g.cache == nil || key == "" {
		return
	}
	mc.Cached = false
	g.cache.Put(key, cloneMCResult(mc))
}

// finishPoint settles a concluded canonical point: a completed one goes
// to the cache, and its duplicate cells take its outcome.
func (g *gridSweep) finishPoint(p int) {
	st := g.states[p]
	if st.err == nil {
		g.put(st.key, st.mc)
	}
	for _, d := range g.dups[p] {
		copyOutcome(g.states[d], st)
	}
	delete(g.dups, p)
}

// copyOutcome gives duplicate cell d the outcome of its concluded
// canonical cell: a clone of the result marked Cached, or the failure.
func copyOutcome(d, can *gridPointState) {
	if can.err != nil {
		d.err = can.err
		return
	}
	d.mc = cloneMCResult(can.mc)
	d.mc.Cached = true
	d.done = true
}

// cloneMCResult deep-copies the slice-valued fields so that a result
// handed out twice cannot alias mutations between consumers.
func cloneMCResult(mc MCResult) MCResult {
	mc.WasteRatios = slices.Clone(mc.WasteRatios)
	mc.Results = slices.Clone(mc.Results)
	return mc
}
