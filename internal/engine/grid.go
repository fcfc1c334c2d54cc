package engine

import (
	"context"
	"fmt"
	"runtime/debug"
	"sync"

	"repro/internal/faultinject"
)

// This file is the grid coordinator, the one replicate scheduler every
// Monte-Carlo experiment runs on. MonteCarlo, MonteCarloResume and each
// MinBandwidth probe are one-point grids; Sweep, Compare and the
// non-reference strategies of ComparePaired are n-point grids. The unit of
// dispatch is a (point, replicate-chunk) work item. Workers steal across
// point boundaries — no worker idles at a point boundary while any point
// in the dispatch horizon still has work — while the coordinator (the
// caller's goroutine) folds each point's replicates in strict run order
// through mcFold and releases finished points in point order through a
// bounded reorder window.
//
// Results do not depend on the schedule: replicate i of a point is a pure
// function of (cfg.Seed, i) under the CRN schedule regardless of which
// worker simulates it, and all aggregation — including sequential-stopping
// decisions, evaluated at the fold boundaries of the same prefix — happens
// in per-point run order on the coordinator.

// gridPoint is one Monte-Carlo experiment of a grid run.
type gridPoint struct {
	cfg  Config
	runs int
	opts MCOptions
}

// gridItem is one simulated replicate in flight from a worker to the
// coordinator. Every dispatched run index produces exactly one item: a
// result, an error, or a canceled marker.
type gridItem struct {
	p, i int
	r    Result
	err  error
	// canceled marks a context error observed at dispatch; the
	// coordinator surfaces ctx.Err() itself rather than folding these.
	canceled bool
}

// gridPointState tracks one grid point. The scheduling counters (cursor,
// foldedPub, active) are shared with workers under gridSweep.mu; the
// fold state (fold, pending, nextFold, mc, err, done) belongs to the
// coordinator alone.
type gridPointState struct {
	cfg  Config
	key  string
	anti bool
	// chunk is the work-item length: a few runs under fixed
	// replication, single runs (pairs under antithetic) under sequential
	// stopping so speculation past a stopping decision stays bounded.
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
	states []*gridPointState
	arenas []*Arena

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
	// errPoint is the lowest grid point that failed; dispatch freezes at
	// it (points before it still complete) and the run surfaces its
	// error when the yield frontier reaches it.
	errPoint int
	halted   bool

	// dups lists, per canonical point, the later points that repeat its
	// content address.
	dups map[int][]int
	memo *sweepMemo
}

// runGrid evaluates pts under the grid coordinator, yielding each point's
// result in point order on the caller's goroutine. memo (nil disables
// it) serves and stores cacheable points and deduplicates repeated cells;
// progress (nil disables it) observes the running count of folded
// replicates across the grid. On failure it returns the failing point's
// index and the unwrapped cause — ctx.Err() on cancellation, "engine:
// run %d: ..." on a replicate failure; otherwise (-1, nil), also when
// yield stops the iteration early.
//
// With WithOnResult the lookahead is one point, so the per-run hook sees
// whole-experiment run order: point p+1 dispatches only once point p has
// been yielded.
func (s *Session) runGrid(ctx context.Context, pts []gridPoint, memo *sweepMemo, progress func(done int), yield func(p int, mc MCResult) bool) (int, error) {
	g := &gridSweep{
		states:   make([]*gridPointState, len(pts)),
		errPoint: len(pts),
		dups:     map[int][]int{},
		memo:     memo,
	}
	g.cond = sync.NewCond(&g.mu)
	keyOwner := map[string]int{}
	runs := 0
	for idx, pt := range pts {
		g.setup(idx, pt, keyOwner)
		runs += max(pt.runs, 0)
	}

	// The pool sizes to the grid's whole replication, not any single
	// point's: a 30-point × 4-run grid keeps 16 workers busy even though
	// no point alone would. Workers never outnumber the outstanding runs.
	g.arenas = s.arenasFor(runs)
	work := 0
	for _, st := range g.states {
		if st.active {
			work += st.total - st.cursor
		}
	}
	workers := min(len(g.arenas), work)
	g.window = 4 * workers
	g.lookahead = 2*workers + 2
	if s.opts.OnResult != nil {
		g.lookahead = 1
	}
	// A fixed-runs chunk is at most window/workers runs, so every worker
	// can hold a chunk of the same point, and at most an even share of
	// the outstanding work, so a small one-point grid still fans out.
	chunk := 4
	if workers > 0 {
		chunk = min(chunk, (work+workers-1)/workers)
	}
	done := 0
	for _, st := range g.states {
		if !st.active {
			continue
		}
		st.chunk = chunk
		if st.fold.seqOn {
			st.chunk = 1
			if st.anti {
				st.chunk = 2
			}
		}
		if progress != nil {
			st.fold.progress = func() {
				done++
				progress(done)
			}
		}
	}

	// Room for every run the workers may hold past the fold frontiers of
	// a few points, so a worker rarely blocks on a busy coordinator.
	resCh := make(chan gridItem, 4*workers+4)
	started := false
	// Halt dispatch and drain on every exit — error, cancellation, early
	// break, even a panicking yield — so the run never leaks a worker
	// goroutine past its return.
	defer func() {
		if !started {
			return
		}
		g.mu.Lock()
		g.halted = true
		g.cond.Broadcast()
		g.mu.Unlock()
		for range resCh {
		}
	}()

	for {
		// Release finished points in order. An invalid point surfaces
		// at its position before anything else; cancellation surfaces at
		// the first point not yet delivered when it was observed.
		for g.nextYield < len(pts) {
			p := g.nextYield
			st := g.states[p]
			if st.invalid {
				return p, st.err
			}
			if e := ctx.Err(); e != nil {
				return p, e
			}
			if st.err != nil {
				return p, st.err
			}
			if !st.done {
				break
			}
			if !yield(p, st.mc) {
				return -1, nil
			}
			g.mu.Lock()
			g.nextYield++
			g.cond.Broadcast()
			g.mu.Unlock()
		}
		if g.nextYield == len(pts) {
			return -1, nil
		}
		if !started {
			// Workers start only once a point needs simulating: a
			// pre-cancelled context or a fully memoised grid spawns none.
			started = true
			var wg sync.WaitGroup
			for w := 0; w < workers; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					g.work(ctx, w, resCh)
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
				return g.nextYield, fmt.Errorf("engine: grid: result channel closed with %d points pending", len(pts)-g.nextYield)
			}
			g.process(ctx, it)
		case <-ctx.Done():
			// Surfaced by the yield loop's ctx check next iteration.
		}
	}
}

// setup resolves point idx before any dispatch: a validation or resume
// failure, a memo or in-grid duplicate hit, a resumed point that is
// already complete, or an active point with its fold state. The checks
// run in the order a caller sees their errors: run count and
// configuration first, then (after the coordinator's context check) the
// resume and snapshot preconditions.
func (g *gridSweep) setup(idx int, pt gridPoint, keyOwner map[string]int) {
	st := &gridPointState{cfg: pt.cfg, anti: pt.opts.Antithetic}
	g.states[idx] = st
	fail := func(err error, invalid bool) {
		st.err, st.invalid = err, invalid
		g.errPoint = min(g.errPoint, idx)
	}
	if pt.runs <= 0 {
		fail(fmt.Errorf("engine: non-positive run count %d", pt.runs), true)
		return
	}
	if err := pt.cfg.Validate(); err != nil {
		fail(err, true)
		return
	}
	if err := pt.opts.checkStreaming(); err != nil {
		fail(err, false)
		return
	}
	st.key = g.memo.key(pt.cfg)
	if st.key != "" {
		if owner, ok := keyOwner[st.key]; ok {
			// A repeat of an earlier cell's content address (the
			// k-axis × shared-device case SweepGrid documents) is never
			// dispatched: it receives a clone of that cell's result,
			// marked Cached.
			if can := g.states[owner]; can.done {
				st.mc = cloneMCResult(can.mc)
				st.mc.Cached = true
				st.done = true
			} else {
				g.dups[owner] = append(g.dups[owner], idx)
			}
			return
		}
		keyOwner[st.key] = idx
		if mc, ok := g.memo.lookup(st.key); ok {
			st.mc = mc
			st.done = true
			return
		}
	}
	st.fold = newMCFold(pt.cfg, pt.runs, pt.opts)
	st.total = st.fold.total
	if rs := pt.opts.resume; rs != nil {
		if rs.Folded > st.total {
			fail(fmt.Errorf("engine: resume snapshot folds %d replicates, experiment has %d", rs.Folded, st.total), false)
			return
		}
		if err := st.fold.restore(rs); err != nil {
			fail(err, false)
			return
		}
		st.cursor, st.nextFold, st.foldedPub = rs.Folded, rs.Folded, rs.Folded
		if st.nextFold == st.total {
			st.mc, st.done = st.fold.finalize(), true
			return
		}
	}
	st.pending = map[int]gridItem{}
	st.active = true
}

// work is one grid worker: claim a work item, simulate its runs on this
// worker's arena (reconfigured when the claim switches points), send one
// item per run. Exits when next reports the run halted.
func (g *gridSweep) work(ctx context.Context, w int, resCh chan<- gridItem) {
	lastP := -1
	reconfigured := false
	for {
		p, i, n := g.next(lastP)
		if p < 0 {
			return
		}
		if p != lastP {
			lastP = p
			reconfigured = false
		}
		st := g.states[p]
		var claimErr error
		if faultinject.Armed() {
			claimErr = fireGridDispatch(ctx, p, i, n)
		}
		for k := i; k < i+n; k++ {
			if claimErr != nil {
				resCh <- gridItem{p: p, i: k, err: claimErr}
				continue
			}
			if err := ctx.Err(); err != nil {
				resCh <- gridItem{p: p, i: k, err: err, canceled: true}
				continue
			}
			r, err := runReplicate(ctx, g.arenas, w, &reconfigured, st.cfg, k, st.anti)
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

// next claims the next work item for a worker: its current point while
// that point has dispatchable work (keeping the arena configured), else
// the lowest-index point in the dispatch horizon — work stealing across
// point boundaries. Blocks while no work is eligible; returns p = -1
// once the run halts.
func (g *gridSweep) next(lastP int) (p, i, n int) {
	g.mu.Lock()
	defer g.mu.Unlock()
	for {
		if g.halted {
			return -1, 0, 0
		}
		p = -1
		if lastP >= 0 && g.eligibleLocked(lastP) {
			p = lastP
		} else {
			hi := min(len(g.states), g.nextYield+g.lookahead, g.errPoint)
			for q := g.nextYield; q < hi; q++ {
				if g.eligibleLocked(q) {
					p = q
					break
				}
			}
		}
		if p >= 0 {
			st := g.states[p]
			n = min(st.chunk, g.window-(st.cursor-st.foldedPub), st.total-st.cursor)
			i = st.cursor
			st.cursor += n
			return p, i, n
		}
		g.cond.Wait()
	}
}

// eligibleLocked reports whether point p has dispatchable work. Callers
// hold g.mu.
func (g *gridSweep) eligibleLocked(p int) bool {
	if p >= g.errPoint || p >= g.nextYield+g.lookahead {
		return false
	}
	st := g.states[p]
	return st.active && st.cursor < st.total && st.cursor-st.foldedPub < g.window
}

// process folds one delivered item on the coordinator: buffer it, fold
// the point's contiguous prefix in run order, and finalize the point when
// its stopping rule fires or its budget completes. Items for points that
// already finished (runs speculated past a stop, or past a failure) are
// dropped. Once ctx is done nothing more folds, so the OnResult and
// progress deliveries made before the cancellation was observed form an
// exact in-order prefix.
func (g *gridSweep) process(ctx context.Context, it gridItem) {
	st := g.states[it.p]
	if st.done || st.err != nil || it.canceled {
		return
	}
	st.pending[it.i] = it
	changed := false
	for ctx.Err() == nil {
		q, ok := st.pending[st.nextFold]
		if !ok {
			break
		}
		delete(st.pending, st.nextFold)
		if q.err != nil {
			st.err = fmt.Errorf("engine: run %d: %w", q.i, q.err)
			st.pending = nil
			g.mu.Lock()
			st.active = false
			if it.p < g.errPoint {
				g.errPoint = it.p
			}
			g.cond.Broadcast()
			g.mu.Unlock()
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
			st.active = false
		}
		g.cond.Broadcast()
		g.mu.Unlock()
	}
}

// finishPoint memoises a completed canonical point and materialises its
// duplicate cells as Cached clones.
func (g *gridSweep) finishPoint(p int) {
	st := g.states[p]
	g.memo.store(st.key, st.mc)
	for _, d := range g.dups[p] {
		sd := g.states[d]
		sd.mc = cloneMCResult(st.mc)
		sd.mc.Cached = true
		sd.done = true
	}
	delete(g.dups, p)
}
