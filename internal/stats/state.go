package stats

import "fmt"

// AccumulatorState is the complete serializable state of an Accumulator:
// Restore of a State round-trips bit-identically, so a stream interrupted
// mid-accumulation and resumed from its last snapshot produces exactly
// the statistics of the uninterrupted stream. All fields are plain
// numbers — encoding/json renders float64 with the shortest
// representation that parses back to the same bits, so a JSON journal
// preserves exactness.
type AccumulatorState struct {
	N    int     `json:"n"`
	Sum  float64 `json:"sum"`
	Mean float64 `json:"mean"`
	M2   float64 `json:"m2"`
	Min  float64 `json:"min"`
	Max  float64 `json:"max"`
	// Head is the retained exact sample (min(N, 64) observations).
	Head []float64 `json:"head,omitempty"`
	// Quant holds the five P² estimator states (P10 P25 P50 P75 P90).
	Quant [5]P2State `json:"quant"`
}

// P2State is the serializable state of one P² quantile estimator.
type P2State struct {
	N    int        `json:"n"`
	Q    [5]float64 `json:"q"`
	Pos  [5]float64 `json:"pos"`
	Want [5]float64 `json:"want"`
}

// State captures the accumulator's complete state.
func (a *Accumulator) State() AccumulatorState {
	st := AccumulatorState{
		N:   a.n,
		Sum: a.sum, Mean: a.mean, M2: a.m2,
		Min: a.min, Max: a.max,
	}
	if h := min(a.n, smallN); h > 0 {
		st.Head = append([]float64(nil), a.head[:h]...)
	}
	for i := range a.quant {
		e := &a.quant[i]
		st.Quant[i] = P2State{N: e.n, Q: e.q, Pos: e.pos, Want: e.want}
	}
	return st
}

// Restore overwrites the accumulator with the captured state. It rejects
// states whose head length is inconsistent with N (the one invariant a
// journal corruption could silently break); subsequent Adds continue
// bit-identically to the accumulator the state was captured from.
func (a *Accumulator) Restore(st AccumulatorState) error {
	if want := min(st.N, smallN); len(st.Head) != want {
		return fmt.Errorf("stats: accumulator state has %d head samples, want %d for n=%d",
			len(st.Head), want, st.N)
	}
	*a = Accumulator{
		n:   st.N,
		sum: st.Sum, mean: st.Mean, m2: st.M2,
		min: st.Min, max: st.Max,
	}
	copy(a.head[:], st.Head)
	for i := range a.quant {
		q := st.Quant[i]
		a.quant[i] = p2{n: q.N, q: q.Q, pos: q.Pos, want: q.Want}
	}
	return nil
}
