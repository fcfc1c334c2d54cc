package engine

import (
	"repro/internal/iomodel"
	"repro/internal/sim"
	"repro/internal/workload"
)

// jobPhase is the lifecycle state of one job instance.
type jobPhase int

const (
	// phaseQueued: waiting for nodes.
	phaseQueued jobPhase = iota
	// phaseInput: blocked on the initial input (or recovery) read.
	phaseInput
	// phaseCompute: progressing work.
	phaseCompute
	// phaseCkptWait: non-blocking disciplines only — checkpoint token
	// requested, still computing (§3.3).
	phaseCkptWait
	// phaseCkptBlocked: blocking disciplines — idle, waiting for the
	// token to checkpoint (§3.2).
	phaseCkptBlocked
	// phaseCkptIO: checkpoint commit in progress (job blocked).
	phaseCkptIO
	// phaseRegular: blocked on a mid-execution regular I/O operation.
	phaseRegular
	// phaseOutput: blocked on the final output store.
	phaseOutput
	// phaseDone: completed; nodes released.
	phaseDone
)

func (p jobPhase) String() string {
	switch p {
	case phaseQueued:
		return "queued"
	case phaseInput:
		return "input"
	case phaseCompute:
		return "compute"
	case phaseCkptWait:
		return "ckpt-wait"
	case phaseCkptBlocked:
		return "ckpt-blocked"
	case phaseCkptIO:
		return "ckpt-io"
	case phaseRegular:
		return "regular-io"
	case phaseOutput:
		return "output"
	case phaseDone:
		return "done"
	default:
		return "unknown"
	}
}

// specState is the durable identity of one generated job across failure
// restarts: committed progress survives on the PFS, instances come and go.
type specState struct {
	spec  workload.Job
	class *workload.ClassParams
	// committed is the absolute work (seconds) secured by the last
	// successful checkpoint commit.
	committed float64
	// hasCkpt reports whether any checkpoint of this job exists, i.e.
	// whether a restart recovers (reads R) or reloads the original
	// input.
	hasCkpt bool
	// attempts counts instances launched (1 = never failed).
	attempts int
}

// timerKind distinguishes the per-job timers multiplexed through the
// simulation's fireTimer dispatch.
type timerKind uint8

const (
	// timerDeadline: the earlier of the job's two deadlines came up —
	// the current computing interval reached its boundary (stopAt), or
	// the next checkpoint came due (ckptAt).
	timerDeadline timerKind = iota
	// timerBBCommit: a burst-buffer commit finished.
	timerBBCommit
	// timerBBRecovery: a resilient-buffer recovery read finished.
	timerBBRecovery
)

// timerArm adapts one of a job's timers to sim.Handler. The arms are
// embedded in jobRun, so arming a timer boxes a pointer into the existing
// allocation instead of building a closure per event.
type timerArm struct {
	j    *jobRun
	kind timerKind
}

// Fire implements sim.Handler.
func (a *timerArm) Fire() { a.j.owner.fireTimer(a.j, a.kind) }

// jobRun is one running (or queued) instance of a job spec. It implements
// iomodel.Sink (transfer lifecycle) and, through its embedded timer arms,
// sim.Handler — so the whole per-job event traffic runs without per-event
// closures.
type jobRun struct {
	id    int32
	spec  *specState
	owner *simulation

	phase jobPhase

	// progress is absolute work done (seconds), including work inherited
	// from the recovered checkpoint.
	progress float64
	// snapshot is the progress captured when the in-flight checkpoint
	// commit started; it becomes spec.committed on success.
	snapshot float64
	// provisional is window-clipped useful node-seconds accrued since the
	// last commit flush: compute time plus the interference-free share
	// of completed input/regular I/O. A commit turns it into useful
	// time; a failure turns it into lost work.
	provisional float64

	// allocTime is when this instance received its nodes.
	allocTime float64
	// computeStart/computeBase describe the current computing interval:
	// progress(t) = computeBase + (t - computeStart).
	computeStart float64
	computeBase  float64
	// computeTarget is the absolute progress the computing interval
	// reaches at stopAt (work completion or the next regular-I/O
	// threshold).
	computeTarget float64
	// lastCkptEnd is the end of the last commit (or the first compute
	// start): the failure-exposure origin d_j of Equation (2) and the
	// arming origin of the next checkpoint.
	lastCkptEnd float64
	// waitStart is when the current blocked wait began.
	waitStart float64

	// period, ckptC, ckptR cache the class's checkpoint parameters at
	// the platform bandwidth.
	period float64
	ckptC  float64
	ckptR  float64

	// inputVolume and recovery describe this instance's startup read.
	inputVolume float64
	recovery    bool

	// ioPhase is the index k of the next regular-I/O trigger point, the
	// absolute progress total·k/(phases+1); none remains once it exceeds
	// the class's phase count. regularVol is the per-phase volume.
	ioPhase    int
	regularVol float64

	// transfer points at the in-flight foreground operation (input,
	// regular, checkpoint, output) — always &xfer, which is recycled
	// across the job's successive operations.
	transfer *iomodel.Transfer
	xfer     iomodel.Transfer
	// stopAt is the reserved position (sim.Engine.Reserve) at which the
	// current computing interval reaches computeTarget, and ckptAt the one
	// at which the next checkpoint comes due; each is zero when unset.
	// Both are served by one event, timer, armed at the earlier of the
	// two (see syncTimer). A reserved position keeps the sequence number
	// the deadline's own event would have had, so the deadlines fire in
	// exactly the order two separate events would.
	stopAt, ckptAt sim.Key
	timer          *sim.Event
	// firing is set while timer's handler runs: syncTimer then leaves the
	// re-arming to the end of the fire, which moves the firing handle in
	// place once.
	firing bool
	// Timer arms: per-kind sim.Handler adapters (see timerArm).
	deadlineArm, bbCommitArm, bbRecoveryArm timerArm
	// ckptDuePending records a checkpoint that came due while the job
	// could not act on it (blocked in another I/O); it is honoured at
	// the next compute resume.
	ckptDuePending bool

	// Burst-buffer state (§8 extension; zero-valued when disabled).
	// bbTimer times a buffer-local operation (commit, or resilient
	// recovery read) that bypasses the PFS; bbStart is its start.
	bbTimer *sim.Event
	bbStart float64
	// pendingFlush holds window-clipped useful node-seconds committed to
	// the buffer but not yet durable on the PFS (non-resilient buffers).
	pendingFlush float64
	// drain is the in-flight or queued buffer-to-PFS drain — always
	// &drainXfer, recycled across successive drains; drainSnapshot is the
	// absolute progress it secures on completion.
	drain         *iomodel.Transfer
	drainXfer     iomodel.Transfer
	drainSnapshot float64
	// lastDurable is the time of the last durable commit (PFS drain or
	// resilient buffer commit): the failure-exposure origin advertised
	// to the Least-Waste selector for drain candidates.
	lastDurable float64
}

// q returns the instance's node count.
func (j *jobRun) q() int { return j.spec.class.Nodes }

// totalWork returns the job's absolute work target.
func (j *jobRun) totalWork() float64 { return j.spec.spec.WorkSeconds }

// remaining returns the work still to do.
func (j *jobRun) remaining() float64 { return j.totalWork() - j.progress }

// ioThreshold returns the absolute progress at which regular-I/O phase k
// triggers (1 ≤ k ≤ the class's phase count).
func (j *jobRun) ioThreshold(k int) float64 {
	return j.totalWork() * float64(k) / float64(j.spec.class.RegularIOPhases+1)
}

// nextIOThreshold returns the next regular-I/O trigger point; ok is false
// once every phase is behind the job.
func (j *jobRun) nextIOThreshold() (at float64, ok bool) {
	if j.ioPhase > j.spec.class.RegularIOPhases {
		return 0, false
	}
	return j.ioThreshold(j.ioPhase), true
}

// newTransfer recycles the job's foreground transfer struct for the next
// operation and registers it as in flight. The check must precede the
// wipe: it is the only point where a missed Abort of the previous
// operation is still observable.
func (j *jobRun) newTransfer(kind iomodel.Kind, volume float64) *iomodel.Transfer {
	t := &j.xfer
	if t.InFlight() {
		panic("engine: recycling a transfer still in flight (missing Abort)")
	}
	*t = iomodel.Transfer{Kind: kind, Volume: volume, Nodes: j.q(), Class: j.spec.class.Index, Sink: j}
	j.transfer = t
	return t
}

// TransferStarted implements iomodel.Sink: the transfer first moves data.
func (j *jobRun) TransferStarted(t *iomodel.Transfer, now float64) {
	switch t.Kind {
	case iomodel.Checkpoint:
		j.owner.onCkptGrant(j)
	case iomodel.Drain:
		// Asynchronous: the owner keeps computing, nothing to account.
	default:
		j.owner.chargeWait(j)
	}
}

// TransferCompleted implements iomodel.Sink: the last byte landed.
func (j *jobRun) TransferCompleted(t *iomodel.Transfer, now float64) {
	s := j.owner
	switch t.Kind {
	case iomodel.Input, iomodel.Recovery:
		s.onInputDone(j)
	case iomodel.Regular:
		s.onRegularDone(j)
	case iomodel.Checkpoint:
		s.onCkptDone(j)
	case iomodel.Output:
		s.onOutputDone(j)
	case iomodel.Drain:
		s.onDrainDone(j)
	}
}

// cancelTimers clears both deadlines and cancels the deadline and
// burst-buffer timers. Inside the deadline timer's own fire the Cancel is
// a no-op; the engine recycles the event once the handler returns.
func (j *jobRun) cancelTimers() {
	j.stopAt, j.ckptAt = sim.Key{}, sim.Key{}
	if j.timer != nil {
		j.timer.Cancel()
		j.timer = nil
	}
	if j.bbTimer != nil {
		j.bbTimer.Cancel()
		j.bbTimer = nil
	}
}

// Compile-time check: jobRun receives its transfers' notifications.
var _ iomodel.Sink = (*jobRun)(nil)
