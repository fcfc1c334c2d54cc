package rng

import (
	"math"
	"testing"
	"testing/quick"
)

func TestDeterminism(t *testing.T) {
	a, b := New(42), New(42)
	for i := 0; i < 1000; i++ {
		if av, bv := a.Uint64(), b.Uint64(); av != bv {
			t.Fatalf("draw %d: %d != %d with same seed", i, av, bv)
		}
	}
}

func TestDistinctSeedsDiffer(t *testing.T) {
	a, b := New(1), New(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("%d/100 identical draws from different seeds", same)
	}
}

func TestZeroSeedIsUsable(t *testing.T) {
	r := New(0)
	seen := map[uint64]bool{}
	for i := 0; i < 100; i++ {
		seen[r.Uint64()] = true
	}
	if len(seen) < 100 {
		t.Fatalf("seed 0 produced repeats in first 100 draws")
	}
}

func TestNewStreamIndependence(t *testing.T) {
	s0, s1 := NewStream(7, 0), NewStream(7, 1)
	same := 0
	for i := 0; i < 100; i++ {
		if s0.Uint64() == s1.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("streams 0 and 1 of seed 7 collide %d/100 times", same)
	}
	// Same (seed, id) must reproduce.
	a, b := NewStream(9, 3), NewStream(9, 3)
	if a.Uint64() != b.Uint64() {
		t.Fatal("NewStream not deterministic")
	}
}

func TestSplitDiverges(t *testing.T) {
	parent := New(5)
	child := parent.Split()
	same := 0
	for i := 0; i < 100; i++ {
		if parent.Uint64() == child.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("parent and split child collide %d/100 times", same)
	}
}

func TestFloat64Range(t *testing.T) {
	r := New(11)
	for i := 0; i < 100000; i++ {
		f := r.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 out of [0,1): %v", f)
		}
	}
}

func TestFloat64Mean(t *testing.T) {
	r := New(12)
	const n = 200000
	sum := 0.0
	for i := 0; i < n; i++ {
		sum += r.Float64()
	}
	mean := sum / n
	if math.Abs(mean-0.5) > 0.005 {
		t.Fatalf("uniform mean = %v, want ~0.5", mean)
	}
}

func TestIntnBounds(t *testing.T) {
	r := New(13)
	counts := make([]int, 7)
	const n = 70000
	for i := 0; i < n; i++ {
		v := r.Intn(7)
		if v < 0 || v >= 7 {
			t.Fatalf("Intn(7) out of range: %d", v)
		}
		counts[v]++
	}
	for v, c := range counts {
		if math.Abs(float64(c)-n/7.0) > 5*math.Sqrt(n/7.0) {
			t.Errorf("Intn(7): value %d count %d deviates from %v", v, c, n/7.0)
		}
	}
}

func TestIntnPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	New(1).Intn(0)
}

func TestUniformRange(t *testing.T) {
	r := New(14)
	for i := 0; i < 10000; i++ {
		v := r.Uniform(0.8, 1.2)
		if v < 0.8 || v >= 1.2 {
			t.Fatalf("Uniform(0.8,1.2) out of range: %v", v)
		}
	}
}

func TestExponentialMoments(t *testing.T) {
	r := New(15)
	const mean = 3600.0
	const n = 200000
	sum, sumSq := 0.0, 0.0
	for i := 0; i < n; i++ {
		v := r.Exponential(mean)
		if v < 0 {
			t.Fatalf("negative exponential variate %v", v)
		}
		sum += v
		sumSq += v * v
	}
	m := sum / n
	if math.Abs(m-mean)/mean > 0.02 {
		t.Errorf("exponential mean = %v, want ~%v", m, mean)
	}
	variance := sumSq/n - m*m
	if math.Abs(variance-mean*mean)/(mean*mean) > 0.06 {
		t.Errorf("exponential variance = %v, want ~%v", variance, mean*mean)
	}
}

func TestExponentialPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Exponential(-1) did not panic")
		}
	}()
	New(1).Exponential(-1)
}

func TestNormalMoments(t *testing.T) {
	r := New(16)
	const mean, std = 262.4, 52.48
	const n = 200000
	sum, sumSq := 0.0, 0.0
	for i := 0; i < n; i++ {
		v := r.Normal(mean, std)
		sum += v
		sumSq += v * v
	}
	m := sum / n
	if math.Abs(m-mean)/mean > 0.01 {
		t.Errorf("normal mean = %v, want ~%v", m, mean)
	}
	variance := sumSq/n - m*m
	if math.Abs(variance-std*std)/(std*std) > 0.05 {
		t.Errorf("normal variance = %v, want ~%v", variance, std*std)
	}
}

func TestWeibullShapeOneIsExponential(t *testing.T) {
	r := New(17)
	const scale = 100.0
	const n = 200000
	sum := 0.0
	for i := 0; i < n; i++ {
		sum += r.Weibull(1, scale)
	}
	m := sum / n
	if math.Abs(m-scale)/scale > 0.02 {
		t.Errorf("Weibull(1,%v) mean = %v, want ~%v", scale, m, scale)
	}
}

func TestWeibullScaleForMean(t *testing.T) {
	for _, shape := range []float64{0.5, 0.7, 1, 1.5, 2} {
		const mean = 1234.0
		scale := WeibullScaleForMean(shape, mean)
		r := New(18)
		const n = 400000
		sum := 0.0
		for i := 0; i < n; i++ {
			sum += r.Weibull(shape, scale)
		}
		m := sum / n
		if math.Abs(m-mean)/mean > 0.03 {
			t.Errorf("shape %v: empirical mean %v, want ~%v", shape, m, mean)
		}
	}
}

// shuffled returns [0, n) in the order one Shuffle leaves it.
func shuffled(r *RNG, n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	r.Shuffle(n, func(i, j int) { p[i], p[j] = p[j], p[i] })
	return p
}

func TestShuffleIsPermutation(t *testing.T) {
	r := New(19)
	p := shuffled(r, 100)
	seen := make([]bool, 100)
	for _, v := range p {
		if v < 0 || v >= 100 || seen[v] {
			t.Fatalf("Shuffle produced invalid permutation at value %d", v)
		}
		seen[v] = true
	}
}

func TestShuffleUniformFirstElement(t *testing.T) {
	r := New(20)
	counts := make([]int, 5)
	const n = 50000
	for i := 0; i < n; i++ {
		p := shuffled(r, 5)
		counts[p[0]]++
	}
	for v, c := range counts {
		if math.Abs(float64(c)-n/5.0) > 6*math.Sqrt(n/5.0) {
			t.Errorf("Shuffle of 5 first element %d count %d deviates from %v", v, c, n/5.0)
		}
	}
}

// Property: Uniform(a,b) stays within [a,b) for arbitrary finite bounds.
func TestUniformProperty(t *testing.T) {
	r := New(21)
	f := func(a float64, width uint16) bool {
		if math.IsNaN(a) || math.IsInf(a, 0) || math.Abs(a) > 1e12 {
			return true // skip pathological inputs
		}
		b := a + float64(width) + 1
		v := r.Uniform(a, b)
		return v >= a && v < b
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

// Property: streams derived from the same master seed but different ids
// never produce identical first draws (would indicate seed-mixing bugs).
func TestStreamSeparationProperty(t *testing.T) {
	f := func(seed uint64, id1, id2 uint8) bool {
		if id1 == id2 {
			return true
		}
		a := NewStream(seed, uint64(id1)).Uint64()
		b := NewStream(seed, uint64(id2)).Uint64()
		return a != b
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func BenchmarkUint64(b *testing.B) {
	r := New(1)
	var sink uint64
	for i := 0; i < b.N; i++ {
		sink += r.Uint64()
	}
	_ = sink
}

func BenchmarkExponential(b *testing.B) {
	r := New(1)
	var sink float64
	for i := 0; i < b.N; i++ {
		sink += r.Exponential(1)
	}
	_ = sink
}
