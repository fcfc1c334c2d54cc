package iomodel_test

import (
	"math"
	"testing"

	"repro/internal/iomodel"
	"repro/internal/iosched"
	"repro/internal/rng"
	"repro/internal/sim"
)

// refToken is the plain reference for TokenDevice: pending is a slice in
// arrival order, from which the granted entry is cut with a copy, and
// the granted transfers sit in a slice of runs, each with a completion
// event scheduled afresh at its grant. Selector.Pick indexes pending in
// arrival order (RandomSelector's draws depend on it), so the reference
// hands every selector the same slice the device must present.
type refToken struct {
	eng     *sim.Engine
	bw      float64
	sel     iomodel.Selector
	k       int
	pending []*iomodel.Transfer
	running []*refRun
	started func(t *iomodel.Transfer, now float64)
	done    func(t *iomodel.Transfer, now float64)
}

// refRun is one granted transfer and its completion event.
type refRun struct {
	r  *refToken
	t  *iomodel.Transfer
	ev *sim.Event
}

func (run *refRun) Fire() { run.r.complete(run) }

func (r *refToken) submit(t *iomodel.Transfer) {
	iomodel.SetArrival(t, r.eng.Now())
	r.pending = append(r.pending, t)
	r.grant()
}

// runOf returns the index of t's run, or -1.
func (r *refToken) runOf(t *iomodel.Transfer) int {
	for i, run := range r.running {
		if run.t == t {
			return i
		}
	}
	return -1
}

func (r *refToken) abort(t *iomodel.Transfer) {
	if i := r.runOf(t); i >= 0 {
		if ev := r.running[i].ev; ev != nil {
			ev.Cancel()
		}
		r.running = append(r.running[:i], r.running[i+1:]...)
		r.grant()
		return
	}
	for i, p := range r.pending {
		if p == t {
			r.pending = append(r.pending[:i], r.pending[i+1:]...)
			return
		}
	}
}

func (r *refToken) reset() {
	r.pending = r.pending[:0]
	r.running = r.running[:0]
}

func (r *refToken) grant() {
	for len(r.pending) > 0 && (r.k <= 0 || len(r.running) < r.k) {
		now := r.eng.Now()
		idx := r.sel.Pick(now, r.pending)
		t := r.pending[idx]
		r.pending = append(r.pending[:idx], r.pending[idx+1:]...)
		run := &refRun{r: r, t: t}
		r.running = append(r.running, run)
		r.started(t, now)
		if r.runOf(t) < 0 {
			continue // aborted by its own start notification
		}
		run.ev = r.eng.ScheduleHandler(now+t.Volume/r.bw, run)
	}
}

func (r *refToken) complete(run *refRun) {
	i := r.runOf(run.t)
	r.running = append(r.running[:i], r.running[i+1:]...)
	r.done(run.t, r.eng.Now())
	r.grant()
}

// tokenSlots is the number of transfers a FuzzTokenDevice run recycles.
const tokenSlots = 7

// Reactions of a token fuzz slot's owner, on start and on completion.
const (
	tokReactNone = iota
	tokReactSubmitNext
	tokReactAbortNext
	tokReactAbortSelf // on start only; on completion it resubmits
	tokReactions
)

// tokenSlot is one recycled transfer on both sides, with the parameters
// of its latest submission.
type tokenSlot struct {
	dev, ref        *iomodel.Transfer
	onStart, onDone int
}

// event is one logged notification: slot, start or completion, and the
// time's bits.
type event struct {
	slot  int
	start bool
	at    uint64
}

// tokenSide is one of the two implementations under the harness.
type tokenSide struct {
	eng    *sim.Engine
	submit func(t *iomodel.Transfer)
	abort  func(t *iomodel.Transfer)
	log    []event
	budget int
}

// tokenHarness drives a TokenDevice and refToken, each on its own engine
// with its own selector instance, through the same operations.
type tokenHarness struct {
	t     *testing.T
	dev   *iomodel.TokenDevice
	ref   *refToken
	sides [2]*tokenSide // device, reference
	sels  [2]iomodel.Selector
	slots [tokenSlots]tokenSlot
}

// owner returns which side owns t (0 the device, 1 the reference) and
// its slot.
func (h *tokenHarness) owner(t *iomodel.Transfer) (side, slot int) {
	for s := range h.slots {
		if h.slots[s].dev == t {
			return 0, s
		}
		if h.slots[s].ref == t {
			return 1, s
		}
	}
	h.t.Fatalf("notification for an unknown transfer")
	return 0, 0
}

func (h *tokenHarness) transfer(side, slot int) *iomodel.Transfer {
	if side == 0 {
		return h.slots[slot].dev
	}
	return h.slots[slot].ref
}

// submitSlot submits a side's transfer of slot unless it is in flight
// on that side.
func (h *tokenHarness) submitSlot(side, slot int) {
	t := h.transfer(side, slot)
	if side == 0 && t.InFlight() || side == 1 && h.refInFlight(t) {
		return
	}
	h.sides[side].submit(t)
}

func (h *tokenHarness) refInFlight(t *iomodel.Transfer) bool {
	if h.ref.runOf(t) >= 0 {
		return true
	}
	for _, p := range h.ref.pending {
		if p == t {
			return true
		}
	}
	return false
}

// notify logs a start or completion and runs the slot owner's reaction.
func (h *tokenHarness) notify(t *iomodel.Transfer, now float64, start bool) {
	side, slot := h.owner(t)
	sd := h.sides[side]
	sd.log = append(sd.log, event{slot, start, math.Float64bits(now)})
	react := h.slots[slot].onDone
	if start {
		react = h.slots[slot].onStart
	}
	switch react {
	case tokReactSubmitNext:
		if sd.budget > 0 {
			sd.budget--
			h.submitSlot(side, (slot+1)%tokenSlots)
		}
	case tokReactAbortNext:
		sd.abort(h.transfer(side, (slot+2)%tokenSlots))
	case tokReactAbortSelf:
		if start {
			sd.abort(t)
		} else if sd.budget > 0 {
			sd.budget--
			h.submitSlot(side, slot)
		}
	}
}

// devSink routes the device's notifications to the harness.
type devSink struct{ h *tokenHarness }

func (s devSink) TransferStarted(t *iomodel.Transfer, now float64)   { s.h.notify(t, now, true) }
func (s devSink) TransferCompleted(t *iomodel.Transfer, now float64) { s.h.notify(t, now, false) }

// check compares the two sides after an operation: the notification
// logs, clocks and fired-event counts, the busy count and the pending
// queue in arrival order.
func (h *tokenHarness) check(op string) {
	h.t.Helper()
	dl, rl := h.sides[0].log, h.sides[1].log
	for i := range min(len(dl), len(rl)) {
		if dl[i] != rl[i] {
			h.t.Fatalf("after %s: notification %d: device %+v at %v, reference %+v at %v", op, i,
				dl[i], math.Float64frombits(dl[i].at), rl[i], math.Float64frombits(rl[i].at))
		}
	}
	if len(dl) != len(rl) {
		h.t.Fatalf("after %s: device sent %d notifications, reference %d", op, len(dl), len(rl))
	}
	de, re := h.sides[0].eng, h.sides[1].eng
	if de.Now() != re.Now() || de.Executed() != re.Executed() {
		h.t.Fatalf("after %s: device clock %v after %d events, reference %v after %d", op, de.Now(), de.Executed(), re.Now(), re.Executed())
	}
	if h.dev.Busy() != len(h.ref.running) || h.dev.Waiting() != len(h.ref.pending) {
		h.t.Fatalf("after %s: device busy %d waiting %d, reference %d and %d", op, h.dev.Busy(), h.dev.Waiting(), len(h.ref.running), len(h.ref.pending))
	}
	for i, p := range h.dev.Pending() {
		if _, s := h.owner(p); h.slots[s].ref != h.ref.pending[i] {
			_, rs := h.owner(h.ref.pending[i])
			h.t.Fatalf("after %s: pending[%d] is slot %d on the device, slot %d in the reference", op, i, s, rs)
		}
	}
}

// The token fuzz alphabet: channel counts (0 is unbounded), and the
// transfer parameters Least-Waste and Fair-Share score.
var (
	tokChannels = [...]int{1, 2, 4, 0}
	tokKinds    = [...]iomodel.Kind{iomodel.Input, iomodel.Recovery, iomodel.Regular, iomodel.Output, iomodel.Checkpoint, iomodel.Drain}
	tokVolumes  = [...]float64{0, 50, 100, 250, 1000, 4096.5}
	tokNodes    = [...]int{1, 2, 8, 64}
	tokAges     = [...]float64{0, 1, 30, 1e4}
	tokDelays   = [...]float64{0, 1e-9, 0.5, 1, 2.5, 10, 100}
)

const (
	tokBW     = 100.0
	tokMuInd  = 5e4
	tokSeed   = 11
	tokClass  = 3 // fair-share classes; slot parameters also draw an out-of-range class
	selectors = 10
)

// newSelector returns a fresh instance of selector n: FCFS, Least-Waste,
// Shortest-First, Random, Fair-Share, then each of those inside
// Background.
func newSelector(n int) iomodel.Selector {
	var s iomodel.Selector
	switch n % 5 {
	case 0:
		s = iomodel.FCFS{}
	case 1:
		s = iosched.NewLeastWasteSelector(tokMuInd, tokBW)
	case 2:
		s = iomodel.ShortestFirst{}
	case 3:
		s = iomodel.NewRandomSelector(tokSeed)
	case 4:
		s = iosched.NewFairShareSelector(tokMuInd, tokBW, tokClass, iosched.FairShareCap)
	}
	if n >= 5 {
		s = &iomodel.Background{Inner: s}
	}
	return s
}

// FuzzTokenDevice drives a TokenDevice and refToken through the same
// submissions, aborts, resets and time advances, with owners that
// re-entrantly submit or abort on start and on completion, and requires
// the same grants and completions at the same times bit for bit.
//
// The first byte picks the selector (see newSelector) and the channel
// count. Then each operation is an opcode byte followed by its arguments:
//
//	0, 1  submit: slot, kind, volume, nodes, class, age of the last
//	      checkpoint, start and completion reaction bytes
//	2     abort: slot byte (idle slots included)
//	3, 4  run to now + delay: delay byte
//	5     fire one event
//	6     reset both engines, devices and selectors
//	7     run until no event is left
func FuzzTokenDevice(f *testing.F) {
	f.Add([]byte{0, 0, 0, 0, 4, 0, 0, 0, 0, 0, 0, 1, 4, 0, 0, 0, 0, 0, 0, 2, 1, 0, 0, 0, 0, 0, 7})
	f.Add([]byte{1, 0, 0, 4, 2, 1, 0, 1, 0, 0, 0, 1, 0, 2, 2, 1, 2, 0, 0, 0, 2, 1, 3, 3, 2, 2, 3, 0, 3, 2, 7})
	f.Add([]byte{13, 0, 0, 0, 3, 0, 0, 0, 3, 1, 0, 1, 1, 2, 0, 0, 1, 0, 0, 2, 5, 4, 3, 1, 0, 0, 0, 5, 3, 7})
	f.Add([]byte{34, 0, 0, 4, 4, 0, 2, 0, 0, 1, 0, 1, 5, 4, 1, 1, 0, 0, 0, 2, 4, 1, 2, 2, 0, 0, 6, 0, 3, 0, 4, 3, 0, 0, 0, 7})
	f.Fuzz(runTokenOps)
}

// TestTokenDeviceFuzzCrossValidation runs the FuzzTokenDevice harness on
// 400 deterministic pseudo-random op sequences over every selector and
// channel count, so every plain test run checks the device against the
// reference beyond the corpus.
func TestTokenDeviceFuzzCrossValidation(t *testing.T) {
	for seed := uint64(1); seed <= 400; seed++ {
		r := rng.New(seed)
		data := make([]byte, 100+r.Intn(300))
		for k := range data {
			data[k] = byte(r.Intn(256))
		}
		data[0] = byte(seed % uint64(selectors*len(tokChannels)))
		func() {
			defer func() {
				if t.Failed() {
					t.Logf("failing op sequence (seed %d): %v", seed, data)
				}
			}()
			runTokenOps(t, data)
		}()
	}
}

// runTokenOps decodes data into device operations (see FuzzTokenDevice)
// and applies them to a fresh device and reference in lockstep, checking
// after each one, and finally drains both.
func runTokenOps(t *testing.T, data []byte) {
	i := 0
	next := func() int {
		if i >= len(data) {
			return 0
		}
		b := data[i]
		i++
		return int(b)
	}
	head := next()
	sel := head % selectors
	k := tokChannels[head/selectors%len(tokChannels)]
	h := &tokenHarness{t: t}
	h.sels = [2]iomodel.Selector{newSelector(sel), newSelector(sel)}
	devEng, refEng := sim.New(), sim.New()
	h.dev = iomodel.NewTokenDeviceK(devEng, tokBW, h.sels[0], k)
	h.ref = &refToken{eng: refEng, bw: tokBW, sel: h.sels[1], k: k,
		started: func(t *iomodel.Transfer, now float64) { h.notify(t, now, true) },
		done:    func(t *iomodel.Transfer, now float64) { h.notify(t, now, false) },
	}
	h.sides[0] = &tokenSide{eng: devEng, submit: h.dev.Submit, abort: h.dev.Abort}
	h.sides[1] = &tokenSide{eng: refEng, submit: h.ref.submit, abort: h.ref.abort}
	for s := range h.slots {
		h.slots[s].dev = &iomodel.Transfer{Sink: devSink{h}}
		h.slots[s].ref = &iomodel.Transfer{}
	}
	for ops := 0; i < len(data) && ops < 256; ops++ {
		for _, sd := range h.sides {
			sd.budget = 8
		}
		var op string
		switch code := next() % 8; code {
		case 0, 1:
			slot := next() % tokenSlots
			s := &h.slots[slot]
			kind := tokKinds[next()%len(tokKinds)]
			volume := tokVolumes[next()%len(tokVolumes)]
			nodes := tokNodes[next()%len(tokNodes)]
			class := next() % (tokClass + 1)
			age := tokAges[next()%len(tokAges)]
			s.onStart, s.onDone = next()%tokReactions, next()%tokReactions
			if s.dev.InFlight() != h.refInFlight(s.ref) {
				t.Fatalf("slot %d in flight: device %v, reference %v", slot, s.dev.InFlight(), h.refInFlight(s.ref))
			}
			if !s.dev.InFlight() {
				for side, tr := range []*iomodel.Transfer{s.dev, s.ref} {
					tr.Kind, tr.Volume, tr.Nodes, tr.Class = kind, volume, nodes, class
					tr.LastCkptEnd = h.sides[side].eng.Now() - age
					tr.RecoverySeconds = age / 2
				}
			}
			h.submitSlot(0, slot)
			h.submitSlot(1, slot)
			op = "submit"
		case 2:
			slot := next() % tokenSlots
			h.dev.Abort(h.slots[slot].dev)
			h.ref.abort(h.slots[slot].ref)
			op = "abort"
		case 3, 4:
			d := tokDelays[next()%len(tokDelays)]
			for _, sd := range h.sides {
				sd.eng.Run(sd.eng.Now() + d)
			}
			op = "run"
		case 5:
			for _, sd := range h.sides {
				sd.eng.Step()
			}
			op = "step"
		case 6:
			for _, sd := range h.sides {
				sd.eng.Reset()
			}
			h.dev.Reset()
			h.ref.reset()
			for _, s := range h.sels {
				if ss, ok := s.(iomodel.StatefulSelector); ok {
					ss.ResetSelector(tokSeed)
				}
			}
			op = "reset"
		case 7:
			for _, sd := range h.sides {
				sd.eng.RunAll()
			}
			op = "drain"
		}
		h.check(op)
	}
	for _, sd := range h.sides {
		sd.budget = 0
		sd.eng.RunAll()
	}
	h.check("final drain")
	if h.dev.Busy() != 0 || h.dev.Waiting() != 0 {
		t.Fatalf("busy %d, waiting %d after the final drain", h.dev.Busy(), h.dev.Waiting())
	}
}
