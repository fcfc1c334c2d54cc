package api

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"strings"
	"testing"
	"time"

	"repro/internal/driver"
	"repro/internal/engine"
	"repro/internal/failure"
	"repro/internal/platform"
	"repro/internal/units"
	"repro/internal/workload"
)

// TestConfigRoundTripKeyStable pins the core wire contract: a wire
// config, encoded, decoded strictly and resolved, lands on the same
// driver.ExperimentKey as the engine config it names — for every
// registered strategy. A drift here means an HTTP submission silently
// simulates a different experiment than the in-process call.
func TestConfigRoundTripKeyStable(t *testing.T) {
	for _, strat := range engine.AllStrategies() {
		cfg := engine.Config{
			Platform:    mustPlatform(t, "cielo", 40, 2),
			Classes:     workload.APEXClasses(),
			Strategy:    strat,
			Seed:        7,
			HorizonDays: 3,
			Channels:    2,
		}
		wantKey, ok := driver.ExperimentKey(cfg, 5, driver.MCOptions{})
		if !ok {
			t.Fatalf("%s: base config not cacheable", strat.Name())
		}

		wire := Config{
			Platform:    Platform{Name: "cielo", BandwidthGBps: 40, NodeMTBFYears: 2},
			Strategy:    strat.Name(),
			Seed:        7,
			HorizonDays: 3,
			Channels:    2,
		}
		res := roundTrip(t, CampaignSpec{Config: wire, Runs: 5})
		gotKey, ok := driver.ExperimentKey(res.Base, res.Runs, driver.MCOptions{})
		if !ok {
			t.Fatalf("%s: resolved config not cacheable", strat.Name())
		}
		if gotKey != wantKey {
			t.Errorf("%s: ExperimentKey drifted across the wire:\n got %s\nwant %s",
				strat.Name(), gotKey, wantKey)
		}
	}
}

// roundTrip encodes a spec, decodes it strictly and resolves it.
func roundTrip(t *testing.T, spec CampaignSpec) Resolved {
	t.Helper()
	blob, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	decoded, err := DecodeCampaignSpec(bytes.NewReader(blob))
	if err != nil {
		t.Fatalf("strict decode of own encoding: %v", err)
	}
	res, err := decoded.Resolve()
	if err != nil {
		t.Fatalf("resolve: %v", err)
	}
	return res
}

// TestDecodeLegacyScheduler: specs written while Config had an
// event-queue knob carry a "scheduler" field. Its three old values decode
// and are ignored — the spec resolves to the same experiment as one
// without the field — and any other value is still rejected.
func TestDecodeLegacyScheduler(t *testing.T) {
	const tmpl = `{"config":{"platform":{"name":"cielo","bandwidth_gbps":40,"node_mtbf_years":2},"strategy":"Least-Waste","seed":3%s,"horizon_days":3},"runs":2}`
	resolveKey := func(field string) (string, error) {
		spec, err := DecodeCampaignSpec(strings.NewReader(fmt.Sprintf(tmpl, field)))
		if err != nil {
			return "", err
		}
		res, err := spec.Resolve()
		if err != nil {
			return "", err
		}
		key, _ := driver.ExperimentKey(res.Base, res.Runs, driver.MCOptions{})
		return key, nil
	}
	want, err := resolveKey("")
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"auto", "heap4", "calendar"} {
		got, err := resolveKey(`,"scheduler":"` + name + `"`)
		if err != nil {
			t.Fatalf("legacy scheduler %q rejected: %v", name, err)
		}
		if got != want {
			t.Errorf("legacy scheduler %q changed the experiment key", name)
		}
	}
	if _, err := resolveKey(`,"scheduler":"splay"`); err == nil || !strings.Contains(err.Error(), "splay") {
		t.Fatalf("unknown scheduler name accepted (err %v)", err)
	}
}

func mustPlatform(t *testing.T, name string, bwGBps, mtbfYears float64) platform.Platform {
	t.Helper()
	wire := Platform{Name: name, BandwidthGBps: bwGBps, NodeMTBFYears: mtbfYears}
	plat, err := wire.Resolve()
	if err != nil {
		t.Fatal(err)
	}
	return plat
}

// TestPlatformPresetResolve pins the preset form of the wire platform:
// each name lands on its platform constructor, and an unknown name fails
// with the wire's own message.
func TestPlatformPresetResolve(t *testing.T) {
	for _, tc := range []struct {
		name      string
		bw, years float64
		want      platform.Platform
	}{
		{"cielo", 40, 2, platform.Cielo(40, 2)},
		{"prospective", 1000, 15, platform.Prospective(1000, 15)},
	} {
		if got := mustPlatform(t, tc.name, tc.bw, tc.years); got != tc.want {
			t.Errorf("%s resolved to %+v, want %+v", tc.name, got, tc.want)
		}
	}
	_, err := Platform{Name: "vax", BandwidthGBps: 40, NodeMTBFYears: 2}.Resolve()
	const want = `api: unknown platform preset "vax" (cielo or prospective; set nodes for an explicit platform)`
	if err == nil || err.Error() != want {
		t.Fatalf("unknown preset: err = %v, want %q", err, want)
	}
}

// TestGridRoundTrip pins that a full sweep grid survives the wire with
// all five axes intact: the decoded, resolved wire grid enumerates the
// points of the driver grid it names.
func TestGridRoundTrip(t *testing.T) {
	strats := engine.AllStrategies()[:3]
	grid := driver.SweepGrid{
		BandwidthsBps:   []float64{units.GBps(40), units.GBps(80)},
		NodeMTBFSeconds: []float64{units.Years(2)},
		FailureSpecs: []driver.FailureSpec{
			{Model: mustFailure(t, "exponential")},
			{Model: mustFailure(t, "weibull"), WeibullShape: 0.7},
		},
		Channels:   []int{1, 2},
		Strategies: strats,
	}
	wire := SweepGrid{
		BandwidthsBps:   grid.BandwidthsBps,
		NodeMTBFSeconds: grid.NodeMTBFSeconds,
		FailureSpecs: []FailureSpec{
			{Model: "exponential"},
			{Model: "weibull", WeibullShape: 0.7},
		},
		Channels:   []int{1, 2},
		Strategies: []string{strats[0].Name(), strats[1].Name(), strats[2].Name()},
	}
	res := roundTrip(t, CampaignSpec{
		Config: Config{Platform: Platform{Name: "cielo", BandwidthGBps: 40, NodeMTBFYears: 2}, HorizonDays: 3},
		Grid:   wire,
		Runs:   1,
	})
	base := engine.Config{
		Platform:    mustPlatform(t, "cielo", 40, 2),
		Classes:     workload.APEXClasses(),
		HorizonDays: 3,
	}
	want := grid.Points(base)
	got := res.Grid.Points(res.Base)
	if len(want) != len(got) {
		t.Fatalf("grid came back with %d points, want %d", len(got), len(want))
	}
	for i := range want {
		if want[i].BandwidthBps != got[i].BandwidthBps ||
			want[i].NodeMTBFSeconds != got[i].NodeMTBFSeconds ||
			want[i].Channels != got[i].Channels ||
			want[i].Strategy.Name() != got[i].Strategy.Name() ||
			want[i].Failure != got[i].Failure {
			t.Fatalf("point %d drifted: got %+v want %+v", i, got[i], want[i])
		}
	}
}

func mustFailure(t *testing.T, name string) failure.Model {
	t.Helper()
	m, err := resolveFailureModel(name)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// TestDecodeStrict pins that unknown fields and trailing garbage are
// rejected, not silently dropped.
func TestDecodeStrict(t *testing.T) {
	cases := []struct {
		name string
		body string
	}{
		{"unknown top-level field", `{"config":{"platform":{"name":"cielo"}},"runs":3,"bogus":1}`},
		{"unknown nested field", `{"config":{"platform":{"name":"cielo"},"warp_factor":9},"runs":3}`},
		{"trailing garbage", `{"config":{"platform":{"name":"cielo"}},"runs":3}{"again":true}`},
		{"malformed", `{"config":`},
	}
	for _, tc := range cases {
		if _, err := DecodeCampaignSpec(strings.NewReader(tc.body)); err == nil {
			t.Errorf("%s: decoded without error", tc.name)
		}
	}
}

// TestValidateCollectsAllErrors pins that Resolve surfaces every field
// error at once rather than stopping at the first.
func TestValidateCollectsAllErrors(t *testing.T) {
	spec := CampaignSpec{
		Config: Config{
			Platform:        Platform{Name: "atlantis"},
			Strategy:        "No-Such-Strategy",
			LegacyScheduler: "quantum",
			FailureModel:    "lognormal",
		},
		Runs: -1,
	}
	err := spec.Validate()
	if err == nil {
		t.Fatal("invalid spec validated")
	}
	msg := err.Error()
	for _, want := range []string{"atlantis", "No-Such-Strategy", "quantum", "lognormal", "runs"} {
		if !strings.Contains(msg, want) {
			t.Errorf("joined error is missing the %q failure:\n%s", want, msg)
		}
	}
}

// TestMCResultInfRoundTrip pins the +Inf half-width (below two CI
// observations) across the JSON boundary, which float64 JSON cannot
// carry directly.
func TestMCResultInfRoundTrip(t *testing.T) {
	in := driver.MCResult{Strategy: "Least-Waste", RunsUsed: 1, CIHalfWidth: math.Inf(1), Confidence: 0.95}
	wire := FromMCResult(in)
	blob, err := EncodeJSON(wire)
	if err != nil {
		t.Fatalf("+Inf leaked into the JSON encoder: %v", err)
	}
	var back MCResult
	if err := json.Unmarshal(blob, &back); err != nil {
		t.Fatal(err)
	}
	out := back.Engine()
	if !math.IsInf(out.CIHalfWidth, 1) {
		t.Fatalf("CIHalfWidth came back as %v, want +Inf", out.CIHalfWidth)
	}
}

// TestCampaignInfoJSON pins the bytes of a campaign listing with every
// progress field set: key names, their order and the omitempty rules of
// the progress object are part of the /v1/campaigns wire.
func TestCampaignInfoJSON(t *testing.T) {
	info := CampaignInfo{
		ID:          "c-0123456789ab",
		Name:        "fig1",
		State:       "running",
		SubmittedAt: time.Date(2026, 1, 2, 3, 4, 5, 0, time.UTC),
		Runs:        8,
		Points:      14,
		Results:     3,
		Progress: Progress{
			PointsDone:       3,
			PointsFailed:     1,
			PointsRestored:   2,
			PointsTotal:      14,
			ReplicatesFolded: 40,
			ReplicatesTotal:  112,
			CacheHits:        1,
		},
		Error: "boom",
	}
	blob, err := json.Marshal(info)
	if err != nil {
		t.Fatal(err)
	}
	const want = `{"id":"c-0123456789ab","name":"fig1","state":"running","submitted_at":"2026-01-02T03:04:05Z",` +
		`"runs":8,"points":14,"results":3,"progress":{"points_done":3,"points_failed":1,"points_restored":2,` +
		`"points_total":14,"replicates_folded":40,"replicates_total":112,"cache_hits":1},"error":"boom"}`
	if string(blob) != want {
		t.Fatalf("CampaignInfo encodes as\n  %s\nwant\n  %s", blob, want)
	}
	blob, err = json.Marshal(CampaignInfo{Progress: Progress{}})
	if err != nil {
		t.Fatal(err)
	}
	const zero = `{"id":"","state":"","submitted_at":"0001-01-01T00:00:00Z","runs":0,"points":0,"results":0,` +
		`"progress":{"points_done":0,"points_total":0,"replicates_folded":0,"replicates_total":0}}`
	if string(blob) != zero {
		t.Fatalf("zero CampaignInfo encodes as\n  %s\nwant\n  %s", blob, zero)
	}
}

// TestListStrategiesCoversRegistry pins that the discovery endpoint
// payload names every registered strategy.
func TestListStrategiesCoversRegistry(t *testing.T) {
	resp := ListStrategies()
	if got, want := len(resp.Strategies), len(engine.AllStrategies()); got != want {
		t.Fatalf("listed %d strategies, registry has %d", got, want)
	}
	for _, si := range resp.Strategies {
		if _, ok := engine.StrategyByName(si.Name); !ok {
			t.Errorf("listed strategy %q is not resolvable", si.Name)
		}
	}
}
