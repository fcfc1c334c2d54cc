package stats

import (
	"encoding/json"
	"math"
	"math/rand"
	"testing"
)

// TestAccumulatorStateRoundTrip pins the resume contract: capture the
// state mid-stream (through a JSON round trip, as the campaign journal
// stores it), restore into a fresh accumulator, continue the stream, and
// every statistic must equal the uninterrupted accumulator's bit for bit.
func TestAccumulatorStateRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	xs := make([]float64, 500)
	for i := range xs {
		xs[i] = rng.NormFloat64()*0.1 + 0.3
	}
	for _, cut := range []int{0, 1, 5, 63, 64, 65, 200, 499, 500} {
		var full, pre Accumulator
		for _, x := range xs {
			full.Add(x)
		}
		for _, x := range xs[:cut] {
			pre.Add(x)
		}
		blob, err := json.Marshal(pre.State())
		if err != nil {
			t.Fatalf("cut %d: marshal: %v", cut, err)
		}
		var st AccumulatorState
		if err := json.Unmarshal(blob, &st); err != nil {
			t.Fatalf("cut %d: unmarshal: %v", cut, err)
		}
		var resumed Accumulator
		if err := resumed.Restore(st); err != nil {
			t.Fatalf("cut %d: restore: %v", cut, err)
		}
		for _, x := range xs[cut:] {
			resumed.Add(x)
		}
		if resumed != full {
			t.Fatalf("cut %d: resumed accumulator differs from uninterrupted", cut)
		}
		if got, want := resumed.Summary(), full.Summary(); got != want {
			t.Fatalf("cut %d: summary %+v != %+v", cut, got, want)
		}
		if got, want := resumed.HalfWidth(0.95), full.HalfWidth(0.95); got != want &&
			!(math.IsInf(got, 1) && math.IsInf(want, 1)) {
			t.Fatalf("cut %d: half-width %v != %v", cut, got, want)
		}
	}
}

func TestAccumulatorRestoreRejectsInconsistentHead(t *testing.T) {
	var a Accumulator
	for i := 0; i < 10; i++ {
		a.Add(float64(i))
	}
	st := a.State()
	st.Head = st.Head[:5]
	var b Accumulator
	if err := b.Restore(st); err == nil {
		t.Fatal("Restore accepted a state with a truncated head")
	}
}

func TestAccumulatorStateZeroValue(t *testing.T) {
	var a Accumulator
	var b Accumulator
	if err := b.Restore(a.State()); err != nil {
		t.Fatalf("zero-state restore: %v", err)
	}
	b.Add(1)
	a.Add(1)
	if a != b {
		t.Fatal("restored zero accumulator diverged")
	}
}
