package campaign

import (
	"bytes"
	"math"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/driver"
	"repro/internal/stats"
)

// goldenResults are the fixed point results the writer golden journals:
// a finite result, a single-run result whose CI half-width is +Inf, and
// a cached one. The floats need every formatting path of the encoder
// (shortest round trip, exponent form, integral values).
func goldenResults() []driver.MCResult {
	return []driver.MCResult{{
		Strategy: "Least-Waste",
		Summary: stats.Summary{N: 4, Mean: 0.3, Min: 0.125, Max: 0.5,
			P10: 0.13, P25: 0.2, P50: 0.3, P75: 0.41, P90: 0.47, StdDev: 1.5e-7},
		MeanUtilization: 0.8765432109876543,
		MeanFailures:    63072000,
		RunsUsed:        4,
		CIHalfWidth:     0.012345678901234568,
		Confidence:      0.95,
	}, {
		Strategy: "Oblivious-Daly",
		Summary: stats.Summary{N: 1, Mean: 0.25, Min: 0.25, Max: 0.25,
			P10: 0.25, P25: 0.25, P50: 0.25, P75: 0.25, P90: 0.25},
		MeanUtilization: 1,
		MeanFailures:    3,
		RunsUsed:        1,
		CIHalfWidth:     math.Inf(1),
		Confidence:      0.9,
	}, {
		Strategy: "Ordered-NB-Fixed",
		Summary: stats.Summary{N: 2, Mean: 1e-21, Min: 0, Max: 2e-21,
			P10: 2e-22, P25: 5e-22, P50: 1e-21, P75: 1.5e-21, P90: 1.8e-21, StdDev: 1.4142135623730951e-21},
		MeanUtilization: 0.5,
		RunsUsed:        2,
		CIHalfWidth:     1.96e21,
		Confidence:      0.99,
		Cached:          true,
	}}
}

// TestJournalWriterGolden pins the bytes the journal writes for
// point_done records against a committed file: old journals must keep
// replaying and new ones must read the same, so the result record's
// encoding may not drift.
func TestJournalWriterGolden(t *testing.T) {
	path := filepath.Join(t.TempDir(), "golden.journal")
	j, err := CreateJournal(path, Header{Fingerprint: "0123456789abcdef", Points: 3, Runs: 4, Seed: 42}, 1)
	if err != nil {
		t.Fatal(err)
	}
	for i, mc := range goldenResults() {
		if err := j.append(recPointDone, doneRecord{Point: i, MC: mc}, true); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile(filepath.Join("testdata", "writer.journal"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("journal bytes drifted:\n got %s\nwant %s", got, want)
	}
	st, err := ReadJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	for i, mc := range goldenResults() {
		if p := st.Points[i]; p == nil || p.Done == nil || !sameResult(*p.Done, mc) {
			t.Fatalf("point %d replays as %+v, want %+v", i, p, mc)
		}
	}
}

// sameResult compares two results bit for bit, NaN and infinities
// included.
func sameResult(a, b driver.MCResult) bool {
	fa, fb := floats(a), floats(b)
	for i := range fa {
		if math.Float64bits(fa[i]) != math.Float64bits(fb[i]) {
			return false
		}
	}
	return a.Strategy == b.Strategy && a.Summary.N == b.Summary.N &&
		a.RunsUsed == b.RunsUsed && a.Cached == b.Cached
}

func floats(mc driver.MCResult) []float64 {
	s := mc.Summary
	return []float64{s.Mean, s.Min, s.Max, s.P10, s.P25, s.P50, s.P75, s.P90, s.StdDev,
		mc.MeanUtilization, mc.MeanFailures, mc.CIHalfWidth, mc.Confidence}
}
