package metrics

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/rng"
)

func TestClip(t *testing.T) {
	l := NewLedger(10, 20)
	cases := []struct{ a, b, want float64 }{
		{0, 5, 0},    // before window
		{25, 30, 0},  // after window
		{0, 15, 5},   // straddles start
		{15, 30, 5},  // straddles end
		{12, 18, 6},  // inside
		{0, 100, 10}, // covers window
		{15, 15, 0},  // empty
		{18, 12, 0},  // reversed
	}
	for _, c := range cases {
		if got := l.Clip(c.a, c.b); got != c.want {
			t.Errorf("Clip(%v,%v) = %v, want %v", c.a, c.b, got, c.want)
		}
	}
}

func TestUsefulAndWasteAccumulate(t *testing.T) {
	l := NewLedger(0, 100)
	l.AddUsefulSeconds(40)
	l.AddWaste(CatCheckpoint, 2, 0, 5) // 10
	l.AddWaste(CatWait, 1, 0, 30)      // 30
	if l.Useful() != 40 {
		t.Fatalf("Useful = %v, want 40", l.Useful())
	}
	if l.Waste() != 40 {
		t.Fatalf("Waste = %v, want 40", l.Waste())
	}
	if l.WasteIn(CatCheckpoint) != 10 || l.WasteIn(CatWait) != 30 {
		t.Fatalf("per-category wrong: %v %v", l.WasteIn(CatCheckpoint), l.WasteIn(CatWait))
	}
	if got := l.WasteRatio(); got != 0.5 {
		t.Fatalf("WasteRatio = %v, want 0.5", got)
	}
}

func TestDirectSecondsMethods(t *testing.T) {
	l := NewLedger(0, 10)
	l.AddUsefulSeconds(12.5)
	l.AddWasteSeconds(CatLostWork, 7.5)
	if l.Useful() != 12.5 || l.WasteIn(CatLostWork) != 7.5 {
		t.Fatalf("direct adds wrong: %v %v", l.Useful(), l.WasteIn(CatLostWork))
	}
}

func TestUtilization(t *testing.T) {
	l := NewLedger(0, 100)
	l.AddAllocated(50, 0, 100)
	if got := l.Utilization(100); got != 0.5 {
		t.Fatalf("Utilization = %v, want 0.5", got)
	}
}

func TestEmptyLedgerRatios(t *testing.T) {
	l := NewLedger(0, 1)
	if l.WasteRatio() != 0 || l.Utilization(10) != 0 {
		t.Fatal("empty ledger ratios non-zero")
	}
}

func TestInvalidWindowPanics(t *testing.T) {
	for _, w := range [][2]float64{{5, 5}, {10, 0}, {math.NaN(), 1}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("window %v accepted", w)
				}
			}()
			NewLedger(w[0], w[1])
		}()
	}
}

func TestCategoryStrings(t *testing.T) {
	for _, c := range Categories() {
		if c.String() == "" {
			t.Errorf("category %d has empty name", int(c))
		}
	}
	if len(Categories()) != int(numCategories) {
		t.Fatal("Categories() incomplete")
	}
}

// Property: for random operation sequences, useful + waste equals the
// total node-seconds recorded (conservation), and the ratio stays in
// [0,1].
func TestConservationProperty(t *testing.T) {
	f := func(seed uint64) bool {
		r := rng.New(seed)
		l := NewLedger(0, 1000)
		totalRecorded := 0.0
		for op := 0; op < 100; op++ {
			q := 1 + r.Intn(64)
			a := r.Float64() * 1200
			b := a + r.Float64()*100
			clip := l.Clip(a, b)
			cat := Category(r.Intn(int(numCategories)))
			switch r.Intn(3) {
			case 0:
				l.AddUsefulSeconds(float64(q) * clip)
			case 1:
				l.AddWaste(cat, q, a, b)
			case 2:
				l.AddWasteSeconds(cat, float64(q)*clip)
			}
			totalRecorded += float64(q) * clip
		}
		sum := l.Useful() + l.Waste()
		if math.Abs(sum-totalRecorded) > 1e-6*math.Max(1, totalRecorded) {
			return false
		}
		ratio := l.WasteRatio()
		return ratio >= 0 && ratio <= 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
