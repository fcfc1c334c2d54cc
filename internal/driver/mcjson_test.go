package driver

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"reflect"
	"testing"

	"repro/internal/engine"
)

// resultFloats lists every float an MCResult carries, per-run arrays
// included, each with its name.
func resultFloats(mc MCResult) map[string]float64 {
	s := mc.Summary
	out := map[string]float64{
		"Summary.Mean": s.Mean, "Summary.Min": s.Min, "Summary.Max": s.Max,
		"Summary.P10": s.P10, "Summary.P25": s.P25, "Summary.P50": s.P50,
		"Summary.P75": s.P75, "Summary.P90": s.P90, "Summary.StdDev": s.StdDev,
		"MeanUtilization": mc.MeanUtilization, "MeanFailures": mc.MeanFailures,
		"CIHalfWidth": mc.CIHalfWidth, "Confidence": mc.Confidence,
	}
	for i, x := range mc.WasteRatios {
		out[fmt.Sprintf("WasteRatios[%d]", i)] = x
	}
	for i, r := range mc.Results {
		for name, x := range map[string]float64{
			"WasteRatio": r.WasteRatio, "PairedWasteRatio": r.PairedWasteRatio,
			"UsefulNodeSeconds": r.UsefulNodeSeconds, "WasteNodeSeconds": r.WasteNodeSeconds,
			"Utilization": r.Utilization, "SimulatedSeconds": r.SimulatedSeconds,
		} {
			out[fmt.Sprintf("Results[%d].%s", i, name)] = x
		}
		for c, x := range r.WasteVec {
			out[fmt.Sprintf("Results[%d].WasteVec[%d]", i, c)] = x
		}
	}
	return out
}

// TestMCResultFiniteness pins which fields of a result can be
// non-finite, the fact the durable and wire images are built on: only
// CIHalfWidth, which is +Inf exactly when the CI estimator holds fewer
// than two observations (runs, or antithetic pairs). It covers one to
// three runs, antithetic pairing on and off, sequential stopping on and
// off, the per-run arrays, and the paired entries of ComparePaired.
func TestMCResultFiniteness(t *testing.T) {
	strategies := engine.AllStrategies()
	check := func(t *testing.T, mc MCResult, anti bool) {
		t.Helper()
		for name, x := range resultFloats(mc) {
			if name != "CIHalfWidth" && (math.IsNaN(x) || math.IsInf(x, 0)) {
				t.Errorf("%s: %s = %v", mc.Strategy, name, x)
			}
		}
		obs := mc.RunsUsed
		if anti {
			obs /= 2
		}
		if inf := math.IsInf(mc.CIHalfWidth, 1); inf != (obs < 2) || (!inf && math.IsNaN(mc.CIHalfWidth)) {
			t.Errorf("%s: %d runs (%d estimator observations): CIHalfWidth = %v", mc.Strategy, mc.RunsUsed, obs, mc.CIHalfWidth)
		}
	}
	for runs := 1; runs <= 3; runs++ {
		for _, anti := range []bool{false, true} {
			for _, target := range []bool{false, true} {
				keep := runs%2 == 1
				t.Run(fmt.Sprintf("runs=%d/anti=%v/target=%v", runs, anti, target), func(t *testing.T) {
					opts := []SessionOption{WithWorkers(1), WithAntithetic(anti),
						WithKeepResults(keep), WithKeepWasteRatios(keep)}
					if target {
						opts = append(opts, WithTargetCI(10, 0.9, 2, 0))
					}
					s := NewSession(opts...)
					cfg := tinyConfig(strategies[runs%len(strategies)], uint64(runs))
					mc, err := s.MonteCarlo(context.Background(), cfg, runs)
					if err != nil {
						t.Fatal(err)
					}
					check(t, mc, anti)
					mcs, _, err := s.ComparePaired(context.Background(), cfg, strategies[:2], runs)
					if err != nil {
						t.Fatal(err)
					}
					for _, mc := range mcs {
						check(t, mc, anti)
					}
				})
			}
		}
	}
}

// TestMCResultJSONRoundTrip: a one-run result, whose CIHalfWidth is
// +Inf, marshals and unmarshals back bit for bit, per-run arrays
// included, and its image is a fixed point of the pair.
func TestMCResultJSONRoundTrip(t *testing.T) {
	s := NewSession(WithWorkers(1), WithKeepResults(true), WithKeepWasteRatios(true))
	mc, err := s.MonteCarlo(context.Background(), tinyConfig(engine.AllStrategies()[0], 7), 1)
	if err != nil {
		t.Fatal(err)
	}
	if !math.IsInf(mc.CIHalfWidth, 1) {
		t.Fatalf("one-run CIHalfWidth = %v, want +Inf", mc.CIHalfWidth)
	}
	mc.Cached = true
	b, err := json.Marshal(mc)
	if err != nil {
		t.Fatal(err)
	}
	var back MCResult
	if err := json.Unmarshal(b, &back); err != nil {
		t.Fatal(err)
	}
	want, got := resultFloats(mc), resultFloats(back)
	for name, x := range want {
		if math.Float64bits(got[name]) != math.Float64bits(x) {
			t.Errorf("%s: %v, want %v", name, got[name], x)
		}
	}
	if len(got) != len(want) {
		t.Errorf("%d floats after the round trip, want %d", len(got), len(want))
	}
	// With the floats pinned bit for bit, compare everything else.
	if !reflect.DeepEqual(back, mc) {
		t.Errorf("round trip changed the result:\n got %+v\nwant %+v", back, mc)
	}
	if again, _ := json.Marshal(back); !bytes.Equal(again, b) {
		t.Errorf("image is not a fixed point:\n%s\n%s", b, again)
	}

	// The special values and the optional fields are spelt as the
	// journal has always spelt them.
	mc.Summary.Mean, mc.MeanFailures, mc.Cached = math.NaN(), math.Inf(-1), false
	mc.WasteRatios, mc.Results = []float64{}, nil
	b, err = json.Marshal(mc)
	if err != nil {
		t.Fatal(err)
	}
	for _, part := range []string{`"mean":"nan"`, `"mean_failures":"-inf"`, `"ci_half_width":"inf"`, `"waste_ratios":[]`} {
		if !bytes.Contains(b, []byte(part)) {
			t.Errorf("image %s lacks %s", b, part)
		}
	}
	for _, part := range []string{`"cached"`, `"results"`} {
		if bytes.Contains(b, []byte(part)) {
			t.Errorf("image %s carries %s", b, part)
		}
	}
	if err := json.Unmarshal([]byte(`{"ci_half_width":"+inf"}`), &back); err == nil {
		t.Error(`"+inf" decoded as a float`)
	}
}
