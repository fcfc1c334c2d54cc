package lowerbound

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/platform"
	"repro/internal/rng"
	"repro/internal/units"
	"repro/internal/workload"
)

func apexInput(t *testing.T, bwGBps, mtbfYears float64) (Input, platform.Platform) {
	t.Helper()
	p := platform.Cielo(bwGBps, mtbfYears)
	params, err := workload.Instantiate(p, workload.APEXClasses())
	if err != nil {
		t.Fatalf("Instantiate: %v", err)
	}
	return FromWorkload(p, params), p
}

// At Cielo's full 160 GB/s with 2-year node MTBF the Daly periods fit in
// the available bandwidth: the constraint must be inactive.
func TestUnconstrainedAtHighBandwidth(t *testing.T) {
	in, _ := apexInput(t, 160, 2)
	sol, err := Solve(in)
	if err != nil {
		t.Fatalf("Solve: %v", err)
	}
	if sol.Constrained || sol.Lambda != 0 {
		t.Fatalf("constraint active at 160 GB/s: λ=%v", sol.Lambda)
	}
	if sol.IOFraction > 1 {
		t.Fatalf("F = %v > 1", sol.IOFraction)
	}
	for i := range sol.Periods {
		if math.Abs(sol.Periods[i]-sol.DalyPeriods[i]) > 1e-6*sol.DalyPeriods[i] {
			t.Errorf("class %d: unconstrained period %v != Daly %v", i, sol.Periods[i], sol.DalyPeriods[i])
		}
	}
	// Back-of-envelope platform waste ~0.2 (the Figure 1 theory curve at
	// 160 GB/s).
	if sol.Waste < 0.12 || sol.Waste > 0.30 {
		t.Errorf("waste lower bound at 160 GB/s = %v, expected ~0.2", sol.Waste)
	}
}

// At 40 GB/s the Daly periods oversubscribe the device (F(0) > 1): the
// solver must activate the constraint and stretch the periods.
func TestConstrainedAtLowBandwidth(t *testing.T) {
	in, _ := apexInput(t, 40, 2)
	sol, err := Solve(in)
	if err != nil {
		t.Fatalf("Solve: %v", err)
	}
	if !sol.Constrained || sol.Lambda <= 0 {
		t.Fatalf("constraint inactive at 40 GB/s: λ=%v", sol.Lambda)
	}
	if math.Abs(sol.IOFraction-1) > 1e-6 {
		t.Fatalf("active constraint should bind F to 1, got %v", sol.IOFraction)
	}
	for i := range sol.Periods {
		if sol.Periods[i] < sol.DalyPeriods[i] {
			t.Errorf("class %d: constrained period %v below Daly %v", i, sol.Periods[i], sol.DalyPeriods[i])
		}
	}
}

// The optimum at the binding constraint must beat any feasible uniform
// stretching of the periods (spot-check of KKT optimality).
func TestConstrainedOptimalityAgainstAlternatives(t *testing.T) {
	in, _ := apexInput(t, 40, 2)
	sol, err := Solve(in)
	if err != nil {
		t.Fatalf("Solve: %v", err)
	}
	// Uniformly scaled Daly periods that exactly exhaust the device.
	f0 := 0.0
	for i, c := range in.Classes {
		f0 += c.N * c.C / sol.DalyPeriods[i]
	}
	scaled := make([]float64, len(in.Classes))
	for i := range scaled {
		scaled[i] = sol.DalyPeriods[i] * f0 // F becomes exactly 1
	}
	wScaled, fScaled, err := WasteAtPeriods(in, scaled)
	if err != nil {
		t.Fatalf("WasteAtPeriods: %v", err)
	}
	if math.Abs(fScaled-1) > 1e-9 {
		t.Fatalf("scaled periods F = %v, want 1", fScaled)
	}
	if sol.Waste > wScaled+1e-12 {
		t.Errorf("KKT optimum %v worse than uniform scaling %v", sol.Waste, wScaled)
	}
	// Random feasible perturbations must not beat the optimum.
	r := rng.New(99)
	for trial := 0; trial < 200; trial++ {
		pert := make([]float64, len(sol.Periods))
		for i := range pert {
			pert[i] = sol.Periods[i] * (0.5 + r.Float64()*1.5)
		}
		w, f, err := WasteAtPeriods(in, pert)
		if err != nil {
			t.Fatalf("WasteAtPeriods: %v", err)
		}
		if f <= 1 && w < sol.Waste-1e-9 {
			t.Fatalf("feasible perturbation beats optimum: W=%v < %v (F=%v)", w, sol.Waste, f)
		}
	}
}

// Waste decreases monotonically with bandwidth (more bandwidth can never
// hurt the bound) — the shape of the Figure 1 theory curve.
func TestWasteMonotoneInBandwidth(t *testing.T) {
	prev := math.Inf(1)
	for _, bw := range []float64{40, 60, 80, 100, 120, 140, 160} {
		in, _ := apexInput(t, bw, 2)
		sol, err := Solve(in)
		if err != nil {
			t.Fatalf("Solve(%v): %v", bw, err)
		}
		if sol.Waste > prev+1e-12 {
			t.Fatalf("waste increased with bandwidth at %v GB/s: %v > %v", bw, sol.Waste, prev)
		}
		prev = sol.Waste
	}
}

// Waste decreases monotonically with node MTBF — the Figure 2 theory curve.
func TestWasteMonotoneInMTBF(t *testing.T) {
	prev := math.Inf(1)
	for _, years := range []float64{2, 4, 8, 16, 32, 50} {
		in, _ := apexInput(t, 40, years)
		sol, err := Solve(in)
		if err != nil {
			t.Fatalf("Solve(%v y): %v", years, err)
		}
		if sol.Waste > prev+1e-12 {
			t.Fatalf("waste increased with MTBF at %v y: %v > %v", years, sol.Waste, prev)
		}
		prev = sol.Waste
	}
}

func TestValidation(t *testing.T) {
	good := Input{Classes: []Class{{N: 1, Q: 10, C: 10, R: 10}}, Nodes: 100, MuInd: units.Year}
	if _, err := Solve(good); err != nil {
		t.Fatalf("valid input rejected: %v", err)
	}
	bad := []Input{
		{Nodes: 100, MuInd: units.Year},
		{Classes: good.Classes, Nodes: 0, MuInd: units.Year},
		{Classes: good.Classes, Nodes: 100, MuInd: 0},
		{Classes: []Class{{N: -1, Q: 10, C: 10}}, Nodes: 100, MuInd: units.Year},
		{Classes: []Class{{N: 1, Q: 0, C: 10}}, Nodes: 100, MuInd: units.Year},
		{Classes: []Class{{N: 1, Q: 10, C: 0}}, Nodes: 100, MuInd: units.Year},
		{Classes: []Class{{N: 1, Q: 10, C: 10, R: -1}}, Nodes: 100, MuInd: units.Year},
	}
	for i, in := range bad {
		if _, err := Solve(in); err == nil {
			t.Errorf("bad input %d accepted", i)
		}
	}
}

func TestWasteAtPeriodsValidation(t *testing.T) {
	in := Input{Classes: []Class{{N: 1, Q: 10, C: 10, R: 10}}, Nodes: 100, MuInd: units.Year}
	if _, _, err := WasteAtPeriods(in, []float64{100, 100}); err == nil {
		t.Error("period count mismatch accepted")
	}
	if _, _, err := WasteAtPeriods(in, []float64{0}); err == nil {
		t.Error("non-positive period accepted")
	}
}

// Single-class closed form: at the unconstrained optimum the two waste
// terms C/P and qP/(2µ) are equal (classic Young/Daly balance), so
// W_ckpt = sqrt(2C q/µ) + qR/µ.
func TestSingleClassClosedForm(t *testing.T) {
	const q, c, rSec = 100.0, 60.0, 60.0
	mu := units.Years(2)
	in := Input{
		Classes: []Class{{N: 1, Q: q, C: c, R: rSec}},
		Nodes:   q, // the single job spans the platform
		MuInd:   mu,
	}
	sol, err := Solve(in)
	if err != nil {
		t.Fatalf("Solve: %v", err)
	}
	if sol.Constrained {
		t.Fatalf("tiny single-class case should be unconstrained (F=%v)", sol.IOFraction)
	}
	want := math.Sqrt(2*c*q/mu) + q*rSec/mu
	if math.Abs(sol.Waste-want) > 1e-9*want {
		t.Errorf("single-class waste = %v, want closed form %v", sol.Waste, want)
	}
}

func TestMinBandwidthForWaste(t *testing.T) {
	p := platform.Cielo(0.001, 2) // bandwidth replaced by the search
	classes := workload.APEXClasses()
	bw, err := MinBandwidthForWaste(p, classes, 0.2, units.GBps(1), units.GBps(100000))
	if err != nil {
		t.Fatalf("MinBandwidthForWaste: %v", err)
	}
	// The bound must actually meet the target at bw and miss it at 0.9bw.
	check := func(b float64) float64 {
		pp := p
		pp.BandwidthBps = b
		params, err := workload.Instantiate(pp, classes)
		if err != nil {
			t.Fatalf("Instantiate: %v", err)
		}
		sol, err := Solve(FromWorkload(pp, params))
		if err != nil {
			t.Fatalf("Solve: %v", err)
		}
		return sol.Waste
	}
	if w := check(bw); w > 0.2+1e-6 {
		t.Errorf("waste at returned bandwidth = %v, want <= 0.2", w)
	}
	if w := check(0.9 * bw); w <= 0.2 {
		t.Errorf("waste at 0.9x returned bandwidth = %v, should exceed 0.2", w)
	}
}

func TestMinBandwidthValidation(t *testing.T) {
	p := platform.Cielo(40, 2)
	classes := workload.APEXClasses()
	if _, err := MinBandwidthForWaste(p, classes, 0, 1, 2); err == nil {
		t.Error("target 0 accepted")
	}
	if _, err := MinBandwidthForWaste(p, classes, 0.2, 2, 1); err == nil {
		t.Error("inverted bracket accepted")
	}
	// A bracket top far too small to reach 20% waste must error.
	if _, err := MinBandwidthForWaste(p, classes, 0.2, 1, 10); err == nil {
		t.Error("unreachable target accepted")
	}
}

// Property: for random workloads, Solve returns F <= 1 (+eps), periods >=
// Daly periods, and λ = 0 exactly when the Daly periods already fit.
func TestSolveInvariantProperty(t *testing.T) {
	f := func(seed uint64) bool {
		r := rng.New(seed)
		nodes := 1000 + float64(r.Intn(100000))
		k := 1 + r.Intn(5)
		classes := make([]Class, k)
		for i := range classes {
			q := 1 + float64(r.Intn(int(nodes)))
			classes[i] = Class{
				N: r.Float64() * nodes / q,
				Q: q,
				C: 1 + r.Float64()*5000,
				R: r.Float64() * 5000,
			}
		}
		in := Input{Classes: classes, Nodes: nodes, MuInd: units.Years(0.5 + r.Float64()*49)}
		sol, err := Solve(in)
		if err != nil {
			return false
		}
		if sol.IOFraction > 1+1e-9 {
			return false
		}
		dalyFits := true
		f0 := 0.0
		for i, c := range classes {
			f0 += c.N * c.C / sol.DalyPeriods[i]
		}
		dalyFits = f0 <= 1
		if dalyFits != !sol.Constrained {
			return false
		}
		for i := range classes {
			if sol.Periods[i] < sol.DalyPeriods[i]-1e-9*sol.DalyPeriods[i] {
				return false
			}
		}
		return sol.Waste >= 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
