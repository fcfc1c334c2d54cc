package iomodel

import (
	"math"
	"testing"

	"repro/internal/rng"
	"repro/internal/sim"
)

// refShared is the plain reference for SharedDevice: one slice of active
// transfers in the device's swap-remove order, every rate recomputed from
// scratch whenever one is needed, with the per-transfer expressions the
// device had before it grouped transfers by weight: a sequential total,
// bw*w/total, rem -= rate*dt with a clamp at zero, and rem/rate. It arms
// its wake with Cancel and a fresh schedule where the device re-keys in
// place; both take one sequence number, so the two dispatch orders agree.
type refShared struct {
	eng          *sim.Engine
	bw           float64
	model        InterferenceModel
	active       []*refTransfer
	last         float64
	wake         *sim.Event
	rescheduling bool
}

// refTransfer is one reference transfer: its fuzz slot, weight and bytes
// still to move.
type refTransfer struct {
	slot     int
	w, rem   float64
	inflight bool
	sink     func(now float64)
}

// rates returns every active transfer's rate under the model.
func (r *refShared) rates() []float64 {
	n := len(r.active)
	out := make([]float64, n)
	bw := r.bw
	switch m := r.model.(type) {
	case Unlimited:
		for i := range out {
			out[i] = bw
		}
		return out
	case Degraded:
		bw = bw * math.Pow(m.Gamma, float64(n-1))
	}
	total := 0.0
	for _, x := range r.active {
		total += x.w
	}
	for i, x := range r.active {
		if total <= 0 {
			out[i] = bw / float64(n)
		} else {
			out[i] = bw * x.w / total
		}
	}
	return out
}

// drain moves every active transfer dt seconds forward.
func (r *refShared) drain(dt float64) {
	rates := r.rates()
	for i, x := range r.active {
		x.rem -= rates[i] * dt
		if x.rem < 0 {
			x.rem = 0
		}
	}
}

func (r *refShared) advance(now float64) {
	dt := now - r.last
	r.last = now
	if dt > 0 && len(r.active) > 0 {
		r.drain(dt)
	}
}

func (r *refShared) submit(x *refTransfer, volume float64) {
	now := r.eng.Now()
	r.advance(now)
	x.rem = volume
	x.inflight = true
	r.active = append(r.active, x)
	r.reschedule(now, 0)
}

func (r *refShared) abort(x *refTransfer) {
	now := r.eng.Now()
	r.advance(now)
	for i, a := range r.active {
		if a == x {
			r.remove(i)
			x.inflight = false
			r.reschedule(now, 0)
			return
		}
	}
}

func (r *refShared) remove(i int) {
	last := len(r.active) - 1
	r.active[i] = r.active[last]
	r.active[last] = nil
	r.active = r.active[:last]
}

func (r *refShared) reset() {
	for _, x := range r.active {
		x.inflight = false
	}
	r.active = r.active[:0]
	r.wake = nil
	r.last = r.eng.Now()
	r.rescheduling = false
}

// reschedule completes the first finished transfer in active order, one
// at a time, and arms the wake at the earliest projected completion.
func (r *refShared) reschedule(now, dt float64) {
	if r.rescheduling {
		return
	}
	r.rescheduling = true
	defer func() { r.rescheduling = false }()
	for len(r.active) > 0 {
		if dt > 0 {
			r.drain(dt)
			dt = 0
		}
		rates := r.rates()
		floor := minWake(now)
		done, next := -1, math.Inf(1)
		for i, x := range r.active {
			rt := rates[i]
			if done < 0 && (x.rem <= volumeEpsilon || (rt > 0 && x.rem <= rt*floor)) {
				done = i
			}
			if rt > 0 {
				if eta := x.rem / rt; eta < next {
					next = eta
				}
			}
		}
		if done < 0 {
			if r.wake != nil {
				r.wake.Cancel()
			}
			r.wake = r.eng.ScheduleHandler(r.eng.Now()+next, r)
			return
		}
		x := r.active[done]
		r.remove(done)
		x.inflight = false
		x.sink(now)
		now = r.eng.Now()
	}
	if r.wake != nil {
		r.wake.Cancel()
		r.wake = nil
	}
}

// Fire implements sim.Handler. The firing handle is dropped first: a
// handler that does not re-arm its event leaves it to the engine.
func (r *refShared) Fire() {
	r.wake = nil
	now := r.eng.Now()
	dt := now - r.last
	r.last = now
	r.reschedule(now, dt)
}

// sharedSlots is the number of transfers a FuzzSharedDevice run recycles.
const sharedSlots = 6

// Completion reactions of a fuzz slot: on completion the owner submits
// the next slot, aborts the slot after it, or resubmits itself.
const (
	reactNone = iota
	reactSubmitNext
	reactAbortNext
	reactResubmit
	reactions
)

// fuzzSlot is one recycled transfer on both sides, with the parameters
// of its latest submission.
type fuzzSlot struct {
	dev    *Transfer
	ref    *refTransfer
	react  int
	volume float64
}

// completion is one logged completion: the slot and the time's bits.
type completion struct {
	slot int
	at   uint64
}

// sharedHarness drives a SharedDevice and the reference, each on its own
// engine, through the same operations.
type sharedHarness struct {
	t              *testing.T
	devEng, refEng *sim.Engine
	dev            *SharedDevice
	ref            refShared
	slots          [sharedSlots]fuzzSlot
	// Per side (the device, then the reference): the completion log and
	// the re-entrant submissions it may still make during the current
	// operation (the bound keeps a slot that resubmits a zero-byte
	// transfer on completion from looping).
	logs    [2][]completion
	budgets [2]int
}

// slotSink is the device-side owner of one slot.
type slotSink struct {
	h    *sharedHarness
	slot int
}

func (s slotSink) TransferStarted(*Transfer, float64) {}

func (s slotSink) TransferCompleted(_ *Transfer, now float64) { s.h.done(0, s.slot, now) }

// done logs a completion on one side and runs the slot owner's reaction
// there.
func (h *sharedHarness) done(side, slot int, now float64) {
	h.logs[side] = append(h.logs[side], completion{slot, math.Float64bits(now)})
	submit := h.devSubmit
	abort := func(slot int) { h.dev.Abort(h.slots[slot].dev) }
	if side == 1 {
		submit = h.refSubmit
		abort = func(slot int) { h.ref.abort(h.slots[slot].ref) }
	}
	switch h.slots[slot].react {
	case reactSubmitNext, reactResubmit:
		if h.budgets[side] > 0 {
			h.budgets[side]--
			if h.slots[slot].react == reactSubmitNext {
				slot = (slot + 1) % sharedSlots
			}
			submit(slot)
		}
	case reactAbortNext:
		abort((slot + 2) % sharedSlots)
	}
}

func (h *sharedHarness) devSubmit(slot int) {
	s := &h.slots[slot]
	if s.dev.InFlight() {
		return
	}
	s.dev.Volume = s.volume
	h.dev.Submit(s.dev)
}

func (h *sharedHarness) refSubmit(slot int) {
	s := &h.slots[slot]
	if s.ref.inflight {
		return
	}
	h.ref.submit(s.ref, s.volume)
}

// check compares the two sides after an operation: the completion logs,
// the clocks, the fired-event counts and, entry by entry, the active
// order and the bytes still to move.
func (h *sharedHarness) check(op string) {
	h.t.Helper()
	dl, rl := h.logs[0], h.logs[1]
	for i := range min(len(dl), len(rl)) {
		if dl[i] != rl[i] {
			h.t.Fatalf("after %s: completion %d: device slot %d at %v, reference slot %d at %v", op, i,
				dl[i].slot, math.Float64frombits(dl[i].at), rl[i].slot, math.Float64frombits(rl[i].at))
		}
	}
	if len(dl) != len(rl) {
		h.t.Fatalf("after %s: device completed %d transfers, reference %d", op, len(dl), len(rl))
	}
	if h.devEng.Now() != h.refEng.Now() || h.devEng.Executed() != h.refEng.Executed() {
		h.t.Fatalf("after %s: device clock %v after %d events, reference %v after %d", op,
			h.devEng.Now(), h.devEng.Executed(), h.refEng.Now(), h.refEng.Executed())
	}
	if len(h.dev.active) != len(h.ref.active) || h.dev.Busy() != len(h.ref.active) {
		h.t.Fatalf("after %s: device has %d active, reference %d", op, len(h.dev.active), len(h.ref.active))
	}
	for i, x := range h.ref.active {
		if h.dev.active[i] != h.slots[x.slot].dev || math.Float64bits(h.dev.rem[i]) != math.Float64bits(x.rem) {
			h.t.Fatalf("after %s: active[%d] device %v bytes left, reference slot %d %v bytes left", op, i, h.dev.rem[i], x.slot, x.rem)
		}
	}
}

// drainAll fires both engines' events until none is left. A correct
// device wakes about once per completion, and an op sequence submits a
// bounded number of transfers, so a run that fires more events than the
// bound is a device re-arming without progress, which would otherwise
// loop for good.
func (h *sharedHarness) drainAll() {
	const bound = 1 << 20
	for _, eng := range []*sim.Engine{h.devEng, h.refEng} {
		for n := 0; eng.Step(); n++ {
			if n > bound {
				h.t.Fatalf("more than %d events without draining", bound)
			}
		}
	}
}

// The fuzz alphabet: weights include 0, which with nothing else active
// takes LinearShare's degenerate even split; volumes and delays include
// 0 and values around the completion thresholds.
var (
	fuzzWeights = [...]int{0, 1, 2, 3, 16, 1024}
	fuzzVolumes = [...]float64{0, 1e-4, 2e-3, 0.5, 1, 100, 1000, 12345.678, 1e9, 3.3e12}
	fuzzDelays  = [...]float64{0, 1e-12, 1e-7, 0.01, 0.5, 1, 2.5, 10, 1e3, 1e5}
	fuzzBWs     = [...]float64{100, 7, 40e9}
	fuzzModels  = [...]InterferenceModel{LinearShare{}, Unlimited{}, Degraded{Gamma: 0.7}, Degraded{Gamma: 0.5}}
)

// FuzzSharedDevice drives a SharedDevice and refShared through the same
// submissions, aborts, resets and time advances, with completion owners
// that re-entrantly submit or abort, and requires the same completions
// at the same times bit for bit.
//
// The first byte picks the model and bandwidth. Then each operation is an
// opcode byte followed by its arguments:
//
//	0, 1  submit: slot, weight, volume and completion reaction bytes
//	2     abort: slot byte (idle slots exercise the advance-only path)
//	3, 4  run to now + delay, or to just before the next wake-up (where
//	      a later advance can take a transfer past its completion):
//	      delay byte
//	5     fire one event
//	6     reset both engines and devices
//	7     run until no event is left
func FuzzSharedDevice(f *testing.F) {
	f.Add([]byte{0, 0, 0, 1, 5, 0, 0, 1, 1, 5, 0, 3, 6, 7})
	f.Add([]byte{1, 0, 0, 0, 6, 1, 1, 2, 3, 6, 2, 4, 0, 2, 1, 7})
	f.Add([]byte{2, 0, 0, 4, 4, 2, 1, 1, 4, 4, 3, 3, 4, 0, 2, 5, 5, 1, 7})
	f.Add([]byte{3, 0, 0, 0, 0, 1, 0, 1, 0, 0, 1, 0, 2, 1, 0, 3, 5, 7})
	f.Fuzz(runSharedOps)
}

// TestSharedDeviceFuzzCrossValidation runs the FuzzSharedDevice harness
// on 300 deterministic pseudo-random op sequences, longer than the
// committed corpus entries, so every plain test run checks the device
// against the reference beyond the corpus.
func TestSharedDeviceFuzzCrossValidation(t *testing.T) {
	for seed := uint64(1); seed <= 300; seed++ {
		r := rng.New(seed)
		data := make([]byte, 100+r.Intn(300))
		for k := range data {
			data[k] = byte(r.Intn(256))
		}
		func() {
			defer func() {
				if t.Failed() {
					t.Logf("failing op sequence (seed %d): %v", seed, data)
				}
			}()
			runSharedOps(t, data)
		}()
	}
}

// runSharedOps decodes data into device operations (see FuzzSharedDevice)
// and applies them to a fresh device and reference in lockstep, checking
// after each one, and finally drains both.
func runSharedOps(t *testing.T, data []byte) {
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
	model := fuzzModels[head%len(fuzzModels)]
	bw := fuzzBWs[head/len(fuzzModels)%len(fuzzBWs)]
	h := &sharedHarness{t: t, devEng: sim.New(), refEng: sim.New()}
	h.dev = NewSharedDevice(h.devEng, bw, model)
	h.ref = refShared{eng: h.refEng, bw: bw, model: model}
	for s := range h.slots {
		h.slots[s].dev = &Transfer{Kind: Checkpoint, Sink: slotSink{h, s}}
		h.slots[s].ref = &refTransfer{slot: s, sink: func(now float64) { h.done(1, s, now) }}
	}
	for ops := 0; i < len(data) && ops < 256; ops++ {
		h.budgets = [2]int{8, 8}
		var op string
		switch code := next() % 8; code {
		case 0, 1:
			slot := next() % sharedSlots
			s := &h.slots[slot]
			w := fuzzWeights[next()%len(fuzzWeights)]
			s.volume = fuzzVolumes[next()%len(fuzzVolumes)]
			s.react = next() % reactions
			if s.dev.InFlight() != s.ref.inflight {
				t.Fatalf("slot %d in flight: device %v, reference %v", slot, s.dev.InFlight(), s.ref.inflight)
			}
			if !s.dev.InFlight() {
				s.dev.Nodes = w
				s.ref.w = float64(w)
			}
			h.devSubmit(slot)
			h.refSubmit(slot)
			op = "submit"
		case 2:
			slot := next() % sharedSlots
			h.dev.Abort(h.slots[slot].dev)
			h.ref.abort(h.slots[slot].ref)
			op = "abort"
		case 3, 4:
			until := h.refEng.Now()
			if b := next() % (len(fuzzDelays) + 1); b < len(fuzzDelays) {
				until += fuzzDelays[b]
			} else if h.ref.wake != nil {
				until = max(until, math.Nextafter(h.ref.wake.Time(), 0))
			}
			h.devEng.Run(until)
			h.refEng.Run(until)
			op = "run"
		case 5:
			h.devEng.Step()
			h.refEng.Step()
			op = "step"
		case 6:
			h.devEng.Reset()
			h.dev.Reset()
			h.refEng.Reset()
			h.ref.reset()
			op = "reset"
		case 7:
			h.drainAll()
			op = "drain"
		}
		h.check(op)
	}
	h.budgets = [2]int{}
	h.drainAll()
	h.check("final drain")
	if h.dev.Busy() != 0 {
		t.Fatalf("%d transfers still active after the final drain", h.dev.Busy())
	}
}
