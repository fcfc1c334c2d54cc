package engine

import (
	"repro/internal/burstbuffer"
	"repro/internal/ckpt"
	"repro/internal/iomodel"
	"repro/internal/lowerbound"
	"repro/internal/metrics"
	"repro/internal/workload"
)

// This file implements the burst-buffer checkpoint path (§8 extension,
// package burstbuffer): buffer-local commits that bypass the PFS token,
// asynchronous drains through the regular I/O discipline, and
// durability-at-drain semantics for non-resilient buffers.

// deriveBBPeriods precomputes per-class checkpoint periods when the
// burst buffer's cooperative period model applies (Daly policies with
// drains enabled): the generalised Theorem 1 prices the per-period
// overhead at the buffer-commit time and the I/O constraint at the PFS
// drain occupancy, so checkpoints are exactly as frequent as the drain
// path can keep durable. Fixed policies and the naive model keep the
// plain per-class period (nil return). The solution depends only on the
// scenario, not the seed, so arenas compute it once per Reconfigure.
func deriveBBPeriods(cfg Config, params []workload.ClassParams) ([]float64, error) {
	bb := cfg.BurstBuffer
	if bb == nil || bb.Period != burstbuffer.PeriodCooperative ||
		cfg.Strategy.Policy.Kind != ckpt.Daly || !bb.DrainToPFS ||
		bb.Resilient {
		// Resilient buffers are durable at commit time: drains are mere
		// replication and must not stretch the checkpoint period.
		return nil, nil
	}
	bw := cfg.Platform.BandwidthBps
	n := workload.SteadyStateJobs(cfg.Platform, params)
	in := lowerbound.Input{
		Nodes: float64(cfg.Platform.Nodes),
		MuInd: cfg.Platform.NodeMTBFSeconds,
	}
	for i, cp := range params {
		in.Classes = append(in.Classes, lowerbound.Class{
			Name: cp.Name,
			N:    n[i],
			Q:    float64(cp.Nodes),
			C:    bb.CommitSeconds(cp.CkptBytes, cp.Nodes),
			R:    cp.RecoverySeconds(bw),
			IOC:  cp.CkptSeconds(bw), // drain occupancy on the PFS
		})
	}
	sol, err := lowerbound.Solve(in)
	if err != nil {
		return nil, err
	}
	return sol.Periods, nil
}

// bbCkptDue handles a due checkpoint when the burst buffer is enabled:
// the job pauses for the (fast, contention-free) buffer commit; the
// blocking/non-blocking distinction of the discipline is moot because no
// PFS token is needed.
func (s *simulation) bbCkptDue(j *jobRun) {
	bb := s.cfg.BurstBuffer
	now := s.eng.Now()
	s.pauseCompute(j)
	j.snapshot = j.progress
	j.phase = phaseCkptIO
	j.transfer = nil
	j.bbStart = now
	s.trace("bb-ckpt-start", j.id, "")
	j.bbTimer = s.eng.ScheduleHandler(now+bb.CommitSeconds(j.spec.class.CkptBytes, j.q()), &j.bbCommitArm)
}

// bbCkptCommitted finishes a buffer commit: the image is durable
// immediately on a resilient buffer, otherwise once its drain lands on
// the PFS; either way the job resumes computing and the drain (if any)
// rides the normal I/O discipline without blocking anyone.
func (s *simulation) bbCkptCommitted(j *jobRun) {
	bb := s.cfg.BurstBuffer
	now := s.eng.Now()
	s.ledger.AddWaste(metrics.CatCheckpoint, j.q(), j.bbStart, now)
	s.res.Checkpoints++
	j.lastCkptEnd = now
	s.trace("ckpt-commit", j.id, "burst-buffer")
	if bb.Resilient {
		j.spec.committed = j.snapshot
		j.spec.hasCkpt = true
		s.ledger.AddUsefulSeconds(j.provisional + j.pendingFlush)
		j.provisional, j.pendingFlush = 0, 0
		j.lastDurable = now
	} else {
		// Work up to the snapshot is staged, not durable: it flushes
		// when the drain lands and is lost if a failure beats it.
		j.pendingFlush += j.provisional
		j.provisional = 0
	}
	if bb.DrainToPFS {
		s.submitDrain(j)
	}
	s.beginCompute(j)
	s.armCheckpoint(j, max(j.period-j.ckptC, 0))
	s.syncTimer(j)
}

// submitDrain ships the latest buffered image to the PFS, superseding any
// older drain still queued or in flight (only the newest image matters).
func (s *simulation) submitDrain(j *jobRun) {
	if j.drain != nil {
		s.device.Abort(j.drain)
		j.drain = nil
	}
	tr := &j.drainXfer
	if tr.InFlight() {
		panic("engine: recycling a drain transfer still in flight (missing Abort)")
	}
	*tr = iomodel.Transfer{
		Kind:            iomodel.Drain,
		Volume:          j.spec.class.CkptBytes,
		Nodes:           j.q(),
		Class:           j.spec.class.Index,
		LastCkptEnd:     j.lastDurable,
		RecoverySeconds: j.spec.class.RecoverySeconds(s.bw),
		Sink:            j,
	}
	j.drain = tr
	j.drainSnapshot = j.snapshot
	s.trace("drain-submit", j.id, "")
	s.device.Submit(tr)
}

// onDrainDone makes the drained image (the progress snapshotted at
// submission, j.drainSnapshot) the job's durable restart point.
func (s *simulation) onDrainDone(j *jobRun) {
	now := s.eng.Now()
	snapshot := j.drainSnapshot
	j.drain = nil
	s.res.Drains++
	s.trace("drain-done", j.id, "")
	if !s.cfg.BurstBuffer.Resilient {
		j.spec.committed = snapshot
		j.spec.hasCkpt = true
		s.ledger.AddUsefulSeconds(j.pendingFlush)
		j.pendingFlush = 0
		j.lastDurable = now
	}
}

// bbRecoveryStart serves a restart's recovery read from a resilient
// buffer at buffer speed, bypassing the PFS entirely.
func (s *simulation) bbRecoveryStart(j *jobRun) {
	bb := s.cfg.BurstBuffer
	now := s.eng.Now()
	j.phase = phaseInput
	j.transfer = nil
	j.bbStart = now
	s.trace("job-start", j.id, "bb-recovery")
	// Completion is handled by fireTimer's timerBBRecovery case.
	j.bbTimer = s.eng.ScheduleHandler(now+bb.CommitSeconds(j.inputVolume, j.q()), &j.bbRecoveryArm)
}

// bbKillCleanup attributes burst-buffer activity of a job being killed
// (or finalised at the horizon) and withdraws its drain. The staged
// pendingFlush is accounted by the caller alongside provisional work.
func (s *simulation) bbKillCleanup(j *jobRun, now float64) {
	if j.drain != nil {
		s.device.Abort(j.drain)
		j.drain = nil
	}
	if j.bbTimer == nil {
		return
	}
	switch j.phase {
	case phaseCkptIO: // buffer commit in progress
		s.ledger.AddWaste(metrics.CatCheckpoint, j.q(), j.bbStart, now)
		s.res.CheckpointsCut++
	case phaseInput: // resilient-buffer recovery read in progress
		s.ledger.AddWaste(metrics.CatRecovery, j.q(), j.bbStart, now)
	}
}
