package engine

import (
	"fmt"
	"math"

	"repro/internal/failure"
	"repro/internal/iomodel"
	"repro/internal/jobsched"
	"repro/internal/metrics"
	"repro/internal/platform"
	"repro/internal/sim"
	"repro/internal/workload"
)

// simulation holds the assembled run state.
type simulation struct {
	cfg     Config
	eng     *sim.Engine
	params  []workload.ClassParams
	specs   []*specState
	runs    []*jobRun // indexed by runtime instance id; nil once retired
	queue   jobsched.Queue
	nodes   *platform.NodeMap
	device  iomodel.Device
	failSrc *failure.Source
	ledger  *metrics.Ledger
	horizon float64
	bw      float64
	muInd   float64
	res     Result
	// classPeriods overrides the per-class checkpoint period when the
	// burst buffer's cooperative period model is active (nil otherwise).
	classPeriods []float64
	// failNode is the node struck by the armed failure event failEv;
	// failArm is its closure-free sim.Handler adapter (one failure in
	// flight at a time, chained by onFailure, which re-arms the firing
	// handle in place).
	failNode int32
	failEv   *sim.Event
	failArm  failureArm
	// schedArm is the closure-free handler for the initial scheduling
	// kick at time zero.
	schedArm schedArm
	// pool recycles jobRun structs across the owning arena's replicates.
	pool *runPool
}

// failureArm adapts the simulation's failure chain to sim.Handler.
type failureArm struct{ s *simulation }

// Fire implements sim.Handler.
func (a *failureArm) Fire() { a.s.onFailure() }

// schedArm adapts the scheduling kick to sim.Handler.
type schedArm struct{ s *simulation }

// Fire implements sim.Handler.
func (a *schedArm) Fire() { a.s.trySchedule() }

// fireTimer dispatches a job's timer arms (see timerArm): one switch
// replaces the per-arm closures of the event-scheduling call sites.
func (s *simulation) fireTimer(j *jobRun, kind timerKind) {
	switch kind {
	case timerDeadline:
		j.firing = true
		if j.timer.Key() == j.stopAt {
			j.stopAt = sim.Key{}
			s.computeBoundary(j, j.computeTarget)
		} else {
			j.ckptAt = sim.Key{}
			s.ckptDue(j)
		}
		// A job that finished here (a zero-byte output completes inside
		// Submit) is already retired, with both deadlines and the timer
		// cleared, so the sync below does nothing.
		j.firing = false
		s.syncTimer(j)
	case timerBBCommit:
		j.bbTimer = nil
		s.bbCkptCommitted(j)
	case timerBBRecovery:
		j.bbTimer = nil
		s.ledger.AddWaste(metrics.CatRecovery, j.q(), j.bbStart, s.eng.Now())
		s.trace("input-done", j.id, "bb-recovery")
		s.startComputing(j)
	}
}

// newInstance creates and enqueues a job instance for the spec, inheriting
// committed progress (a failure restart when attempts > 0). The jobRun
// comes zeroed from the arena's pool.
func (s *simulation) newInstance(spec *specState) *jobRun {
	cp := spec.class
	j := s.pool.get()
	j.id = int32(len(s.runs))
	j.spec = spec
	j.owner = s
	j.phase = phaseQueued
	j.progress = spec.committed
	j.ckptC = cp.CkptSeconds(s.bw)
	j.ckptR = cp.RecoverySeconds(s.bw)
	j.deadlineArm = timerArm{j: j, kind: timerDeadline}
	j.bbCommitArm = timerArm{j: j, kind: timerBBCommit}
	j.bbRecoveryArm = timerArm{j: j, kind: timerBBRecovery}
	if bb := s.cfg.BurstBuffer; bb != nil {
		// The commit time the job experiences is the buffer write; the
		// Young/Daly period shortens accordingly (§8: higher optimal
		// checkpoint frequency). Recovery stays a PFS read unless the
		// buffer is resilient.
		j.ckptC = bb.CommitSeconds(cp.CkptBytes, cp.Nodes)
		if bb.Resilient {
			j.ckptR = j.ckptC
		}
	}
	if s.classPeriods != nil {
		j.period = s.classPeriods[cp.Index]
	} else {
		j.period = s.cfg.Strategy.Policy.Period(s.muInd, cp.Nodes, j.ckptC)
	}
	if spec.hasCkpt {
		j.inputVolume = cp.CkptBytes
		j.recovery = true
	} else {
		j.inputVolume = cp.InputBytes
	}
	if cp.RegularIOPhases > 0 {
		j.regularVol = cp.RegularIOBytes / float64(cp.RegularIOPhases)
	}
	// Skip the phases the recovered checkpoint already covers; the
	// thresholds ascend with k, so the rest are exactly those past it.
	j.ioPhase = 1
	for j.ioPhase <= cp.RegularIOPhases && j.ioThreshold(j.ioPhase) <= spec.committed {
		j.ioPhase++
	}
	spec.attempts++
	s.runs = append(s.runs, j)
	item := jobsched.Item{ID: j.id, Nodes: cp.Nodes}
	if spec.attempts > 1 {
		s.queue.PushUrgent(item)
	} else {
		s.queue.PushNormal(item)
	}
	return j
}

// execute runs the event loop to the horizon.
func (s *simulation) execute() {
	s.start()
	s.eng.Run(s.horizon)
}

// start queues the first events: the scheduling kick at time zero and
// the first failure.
func (s *simulation) start() {
	s.eng.ScheduleHandler(0, &s.schedArm)
	s.armNextFailure()
}

// armNextFailure chains the next failure event, re-arming the failure
// handle in place when called from its own fire.
func (s *simulation) armNextFailure() {
	ev := s.failSrc.Next()
	if math.IsInf(ev.Time, 1) || ev.Time > s.horizon {
		if s.failEv != nil {
			s.failEv.Cancel()
			s.failEv = nil
		}
		return
	}
	s.failNode = ev.Node
	s.failEv = s.eng.Rekey(s.failEv, ev.Time, &s.failArm)
}

// onFailure strikes the armed failure's node and chains the next one.
func (s *simulation) onFailure() {
	s.res.FailureEvents++
	owner := s.nodes.Owner(s.failNode)
	if s.cfg.Trace != nil { // guard: Sprintf must not run untraced
		s.trace("failure", -1, fmt.Sprintf("node %d owner %d", s.failNode, owner))
	}
	if owner != platform.NoOwner {
		s.res.Failures++
		s.killJob(s.runs[owner])
	}
	s.armNextFailure()
}

// trySchedule fills free nodes with queued jobs (greedy first-fit).
func (s *simulation) trySchedule() {
	s.queue.FirstFit(s.nodes.Free(), func(it jobsched.Item) {
		s.startJob(s.runs[it.ID])
	})
}

// startJob allocates nodes and begins the startup read.
func (s *simulation) startJob(j *jobRun) {
	now := s.eng.Now()
	if !s.nodes.Allocate(j.id, j.q()) {
		panic("engine: first-fit offered a job that does not fit")
	}
	j.allocTime = now
	if j.recovery && s.cfg.BurstBuffer != nil && s.cfg.BurstBuffer.Resilient {
		s.bbRecoveryStart(j)
		return
	}
	j.phase = phaseInput
	j.waitStart = now
	kind := iomodel.Input
	if j.recovery {
		kind = iomodel.Recovery
	}
	if s.cfg.Trace != nil { // guard: Sprintf must not run untraced
		s.trace("job-start", j.id, fmt.Sprintf("%s attempt %d", j.spec.class.Name, j.spec.attempts))
	}
	s.device.Submit(j.newTransfer(kind, j.inputVolume))
}

// chargeWait charges the blocked interval [waitStart, now] to CatWait
// (zero-length on shared devices, where transfers start at submission).
func (s *simulation) chargeWait(j *jobRun) {
	s.ledger.AddWaste(metrics.CatWait, j.q(), j.waitStart, s.eng.Now())
}

// addProvisionalIO credits the interference-free share of a completed
// non-CR transfer to the job's provisional ledger and charges the dilation
// to waste. The nominal share is spread uniformly over [a, b] so window
// clipping stays exact.
func (s *simulation) addProvisionalIO(j *jobRun, a, b, nominal float64) {
	length := b - a
	clipped := s.ledger.Clip(a, b)
	if length <= 0 || clipped <= 0 {
		return
	}
	frac := nominal / length
	if frac > 1 {
		frac = 1
	}
	j.provisional += float64(j.q()) * clipped * frac
	s.ledger.AddWasteSeconds(metrics.CatDilation, float64(j.q())*clipped*(1-frac))
}

// onInputDone finishes the startup read and starts computing.
func (s *simulation) onInputDone(j *jobRun) {
	now := s.eng.Now()
	tr := j.transfer
	j.transfer = nil
	if j.recovery {
		// Recovery reads do not exist in the baseline: pure waste.
		s.ledger.AddWaste(metrics.CatRecovery, j.q(), tr.Start(), now)
	} else {
		s.addProvisionalIO(j, tr.Start(), now, tr.Volume/s.bw)
	}
	s.trace("input-done", j.id, tr.Kind.String())
	s.startComputing(j)
}

// startComputing enters the main execution phase after the startup read:
// the failure-exposure origins reset and the first checkpoint is armed a
// full period out (§2: "the first checkpoint is set at date P_i").
func (s *simulation) startComputing(j *jobRun) {
	now := s.eng.Now()
	j.lastCkptEnd = now
	j.lastDurable = now
	s.beginCompute(j)
	s.armCheckpoint(j, j.period)
	s.syncTimer(j)
}

// armCheckpoint reserves the next checkpoint deadline delay seconds out,
// replacing any earlier one. The caller syncs the timer.
func (s *simulation) armCheckpoint(j *jobRun, delay float64) {
	if s.cfg.DisableCheckpoints {
		return
	}
	j.ckptAt = s.eng.Reserve(s.eng.Now() + delay)
}

// syncTimer arms the job's timer at the earlier of its two deadlines,
// moving it in place, or cancels it when neither is set. Inside the
// timer's own fire it does nothing: fireTimer syncs once on the way out.
func (s *simulation) syncTimer(j *jobRun) {
	if j.firing {
		return
	}
	k := j.stopAt
	if j.ckptAt.Before(k) {
		k = j.ckptAt
	}
	if k.IsZero() {
		if j.timer != nil {
			j.timer.Cancel()
			j.timer = nil
		}
		return
	}
	j.timer = s.eng.Arm(j.timer, k, &j.deadlineArm)
}

// beginCompute (re)starts the computing interval and reserves the next
// compute boundary (work completion or regular-I/O threshold); the
// caller syncs the timer. A checkpoint that came due while the job was
// blocked elsewhere is issued immediately.
func (s *simulation) beginCompute(j *jobRun) {
	now := s.eng.Now()
	j.phase = phaseCompute
	j.computeStart = now
	j.computeBase = j.progress
	target := j.totalWork()
	if at, ok := j.nextIOThreshold(); ok && at < target {
		target = at
	}
	j.computeTarget = target
	j.stopAt = s.eng.Reserve(now + (target - j.progress))
	if j.ckptDuePending {
		j.ckptDuePending = false
		s.ckptDue(j)
	}
}

// pauseCompute stops progress accrual, accumulating the computed interval
// into the provisional ledger, and clears the compute-boundary deadline.
// Valid in phaseCompute and phaseCkptWait. The caller syncs the timer.
func (s *simulation) pauseCompute(j *jobRun) {
	now := s.eng.Now()
	j.progress = j.computeBase + (now - j.computeStart)
	if j.progress > j.totalWork() {
		j.progress = j.totalWork()
	}
	j.provisional += float64(j.q()) * s.ledger.Clip(j.computeStart, now)
	j.stopAt = sim.Key{}
}

// computeBoundary handles the end of a computing interval: either the work
// is done or a regular-I/O threshold was reached.
func (s *simulation) computeBoundary(j *jobRun, target float64) {
	s.pauseCompute(j)
	j.progress = target // exact, killing float drift
	if target >= j.totalWork() {
		s.workComplete(j)
		return
	}
	// Regular-I/O threshold.
	j.ioPhase++
	if j.phase == phaseCkptWait {
		// The pending checkpoint request cannot be honoured while the
		// job blocks on regular I/O; withdraw and re-issue afterwards.
		s.device.Abort(j.transfer)
		j.transfer = nil
		j.ckptDuePending = true
	}
	j.phase = phaseRegular
	j.waitStart = s.eng.Now()
	tr := j.newTransfer(iomodel.Regular, j.regularVol)
	s.trace("regular-io", j.id, "")
	s.device.Submit(tr)
}

// onRegularDone resumes computing after a regular I/O.
func (s *simulation) onRegularDone(j *jobRun) {
	now := s.eng.Now()
	tr := j.transfer
	j.transfer = nil
	s.addProvisionalIO(j, tr.Start(), now, tr.Volume/s.bw)
	s.beginCompute(j)
	s.syncTimer(j)
}

// ckptDue handles a checkpoint coming due.
func (s *simulation) ckptDue(j *jobRun) {
	if s.cfg.DisableCheckpoints || j.phase == phaseDone {
		return
	}
	switch j.phase {
	case phaseCompute:
		// proceed below
	case phaseCkptWait, phaseCkptBlocked, phaseCkptIO:
		// Already checkpointing; nothing to do.
		return
	default:
		// Blocked in another I/O: honour at next compute resume.
		j.ckptDuePending = true
		return
	}
	if j.remaining() <= 0 {
		return
	}
	if s.cfg.BurstBuffer != nil {
		s.bbCkptDue(j)
		return
	}
	now := s.eng.Now()
	tr := j.newTransfer(iomodel.Checkpoint, j.spec.class.CkptBytes)
	tr.LastCkptEnd = j.lastCkptEnd
	tr.RecoverySeconds = j.ckptR
	s.trace("ckpt-request", j.id, "")
	if s.cfg.Strategy.Discipline.NonBlockingCheckpoints() {
		// §3.3: keep computing until the token arrives.
		j.phase = phaseCkptWait
		s.device.Submit(tr)
		return
	}
	// Blocking disciplines stop the job at the request.
	s.pauseCompute(j)
	j.phase = phaseCkptBlocked
	j.waitStart = now
	s.device.Submit(tr)
}

// onCkptGrant begins the commit: the job stops computing (non-blocking
// disciplines) and the restart point is snapshotted ("the job would
// restart from the time at which the postponed checkpoint was taken").
func (s *simulation) onCkptGrant(j *jobRun) {
	switch j.phase {
	case phaseCkptWait:
		s.pauseCompute(j)
		s.syncTimer(j)
	case phaseCkptBlocked:
		s.chargeWait(j)
	default:
		panic(fmt.Sprintf("engine: checkpoint grant in phase %v", j.phase))
	}
	j.snapshot = j.progress
	j.phase = phaseCkptIO
	s.trace("ckpt-grant", j.id, "")
}

// onCkptDone commits the checkpoint: provisional work becomes durable
// useful time, and the next checkpoint is armed P−C after this commit.
func (s *simulation) onCkptDone(j *jobRun) {
	now := s.eng.Now()
	tr := j.transfer
	j.transfer = nil
	s.ledger.AddWaste(metrics.CatCheckpoint, j.q(), tr.Start(), now)
	j.spec.committed = j.snapshot
	j.spec.hasCkpt = true
	s.ledger.AddUsefulSeconds(j.provisional)
	j.provisional = 0
	j.lastCkptEnd = now
	s.res.Checkpoints++
	if s.cfg.Trace != nil { // guard: Sprintf must not run untraced
		s.trace("ckpt-commit", j.id, fmt.Sprintf("progress %.0fs", j.snapshot))
	}
	s.beginCompute(j)
	s.armCheckpoint(j, max(j.period-j.ckptC, 0))
	s.syncTimer(j)
}

// workComplete moves the job to its final output store.
func (s *simulation) workComplete(j *jobRun) {
	now := s.eng.Now()
	if j.phase == phaseCkptWait {
		// A pending checkpoint request is pointless now.
		s.device.Abort(j.transfer)
		j.transfer = nil
	}
	j.cancelTimers()
	j.ckptDuePending = false
	j.phase = phaseOutput
	j.waitStart = now
	tr := j.newTransfer(iomodel.Output, j.spec.class.OutputBytes)
	s.trace("work-complete", j.id, "")
	s.device.Submit(tr)
}

// onOutputDone completes the job: all provisional work becomes useful,
// and any still-running burst-buffer drain is pointless.
func (s *simulation) onOutputDone(j *jobRun) {
	now := s.eng.Now()
	tr := j.transfer
	j.transfer = nil
	if j.drain != nil {
		s.device.Abort(j.drain)
		j.drain = nil
	}
	s.addProvisionalIO(j, tr.Start(), now, tr.Volume/s.bw)
	s.ledger.AddUsefulSeconds(j.provisional + j.pendingFlush)
	j.provisional, j.pendingFlush = 0, 0
	j.phase = phaseDone
	s.ledger.AddAllocated(j.q(), j.allocTime, now)
	if err := s.nodes.Release(j.id); err != nil {
		panic(err)
	}
	s.res.JobsCompleted++
	s.trace("job-complete", j.id, "")
	s.retire(j)
	s.trySchedule()
}

// killJob terminates an instance struck by a failure, attributes its
// in-flight activity, and enqueues the restart at the head of the queue.
func (s *simulation) killJob(j *jobRun) {
	now := s.eng.Now()
	switch j.phase {
	case phaseCompute:
		s.pauseCompute(j)
	case phaseCkptWait:
		s.pauseCompute(j)
		s.device.Abort(j.transfer)
		j.transfer = nil
	case phaseCkptBlocked:
		s.chargeWait(j)
		s.device.Abort(j.transfer)
		j.transfer = nil
	case phaseCkptIO:
		if j.transfer != nil { // PFS commit; buffer commits are handled below
			s.ledger.AddWaste(metrics.CatCheckpoint, j.q(), j.transfer.Start(), now)
			s.device.Abort(j.transfer)
			j.transfer = nil
			s.res.CheckpointsCut++
		}
	case phaseInput, phaseRegular, phaseOutput:
		if j.transfer != nil { // nil during a resilient-buffer recovery
			if j.transfer.Started() {
				s.ledger.AddWaste(metrics.CatAbortedIO, j.q(), j.transfer.Start(), now)
			} else {
				s.chargeWait(j)
			}
			s.device.Abort(j.transfer)
			j.transfer = nil
		}
	default:
		panic(fmt.Sprintf("engine: failure killed job in phase %v", j.phase))
	}
	if s.cfg.BurstBuffer != nil {
		s.bbKillCleanup(j, now)
	}
	j.cancelTimers()
	// Uncommitted work and unsecured I/O die with the instance.
	s.ledger.AddWasteSeconds(metrics.CatLostWork, j.provisional+j.pendingFlush)
	j.provisional, j.pendingFlush = 0, 0
	j.phase = phaseDone
	s.ledger.AddAllocated(j.q(), j.allocTime, now)
	if err := s.nodes.Release(j.id); err != nil {
		panic(err)
	}
	s.res.JobsFailed++
	if s.cfg.Trace != nil { // guard: Sprintf must not run untraced
		s.trace("job-killed", j.id, fmt.Sprintf("committed %.0fs of %.0fs", j.spec.committed, j.totalWork()))
	}
	spec := j.spec
	s.retire(j)
	s.newInstance(spec)
	s.trySchedule()
}

// retire recycles a finished (completed or killed) instance: its runs slot
// is cleared, so finalize and the id-keyed lookups skip it, and the struct
// goes back to the pool for the next newInstance. The caller must be done
// with j, tracing included.
func (s *simulation) retire(j *jobRun) {
	s.runs[j.id] = nil
	s.pool.put(j)
}

// finalize attributes in-flight activity at the horizon and builds the
// Result. The measurement window ends a cooldown before the horizon, so
// these boundary attributions only affect intervals straddling the window
// edge.
func (s *simulation) finalize() Result {
	now := s.horizon
	for _, j := range s.runs {
		if j == nil { // retired
			continue
		}
		switch j.phase {
		case phaseQueued, phaseDone:
			continue
		case phaseCompute, phaseCkptWait:
			s.pauseCompute(j)
			if j.phase == phaseCkptWait {
				s.device.Abort(j.transfer)
				j.transfer = nil
			}
		case phaseCkptBlocked:
			s.chargeWait(j)
		case phaseCkptIO:
			if j.transfer != nil {
				s.ledger.AddWaste(metrics.CatCheckpoint, j.q(), j.transfer.Start(), now)
			} else { // burst-buffer commit in progress
				s.ledger.AddWaste(metrics.CatCheckpoint, j.q(), j.bbStart, now)
			}
		case phaseInput, phaseRegular, phaseOutput:
			switch {
			case j.transfer == nil: // resilient-buffer recovery read
				s.ledger.AddWaste(metrics.CatRecovery, j.q(), j.bbStart, now)
			case j.transfer.Started():
				start := j.transfer.Start()
				if j.recovery && j.phase == phaseInput {
					s.ledger.AddWaste(metrics.CatRecovery, j.q(), start, now)
				} else {
					nominal := min(now-start, j.transfer.Volume/s.bw)
					s.addProvisionalIO(j, start, now, nominal)
				}
			default:
				s.chargeWait(j)
			}
		}
		// Work not yet committed at the horizon would almost surely
		// commit shortly after; crediting it as useful avoids punishing
		// the window's tail (the cooldown keeps the effect marginal).
		s.ledger.AddUsefulSeconds(j.provisional + j.pendingFlush)
		j.provisional, j.pendingFlush = 0, 0
		s.ledger.AddAllocated(j.q(), j.allocTime, now)
	}

	s.res.WasteRatio = s.ledger.WasteRatio()
	s.res.UsefulNodeSeconds = s.ledger.Useful()
	s.res.WasteNodeSeconds = s.ledger.Waste()
	s.res.Utilization = s.ledger.Utilization(s.cfg.Platform.Nodes)
	for _, cat := range metrics.Categories() {
		s.res.WasteVec[cat] = s.ledger.WasteIn(cat)
	}
	s.res.Events = s.eng.Executed()
	s.res.SimulatedSeconds = s.horizon
	return s.res
}

// trace emits an event to the configured tracer, if any.
func (s *simulation) trace(kind string, job int32, note string) {
	if s.cfg.Trace == nil {
		return
	}
	class := ""
	if job >= 0 {
		class = s.runs[job].spec.class.Name
	}
	s.cfg.Trace(TraceEvent{Time: s.eng.Now(), Kind: kind, Job: job, Class: class, Note: note})
}
