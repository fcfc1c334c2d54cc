package engine

import (
	"testing"

	"repro/internal/iomodel"
	"repro/internal/platform"
	"repro/internal/workload"
)

// interferencePins are the Result digests (see resultDigest), waste
// ratios and fired-event counts of one 200-day replicate (Cielo 40 GB/s,
// APEX, seed 7) per Oblivious strategy and interference model, recorded
// while SharedDevice still computed one rate per active transfer.
var interferencePins = []struct {
	model    iomodel.InterferenceModel
	strategy string
	digest   string
	waste    float64
	events   uint64
}{
	{iomodel.LinearShare{}, "Oblivious-Fixed", "d67e18c7d95205de", 0.8813271306204622, 32325},
	{iomodel.LinearShare{}, "Oblivious-Daly", "01af9ec50996084b", 0.6868002747818943, 25877},
	{iomodel.Unlimited{}, "Oblivious-Fixed", "c3ac2ea968897382", 0.5164998825893579, 81207},
	{iomodel.Unlimited{}, "Oblivious-Daly", "a215d73198288f59", 0.37749546349324403, 35974},
	{iomodel.Degraded{Gamma: 0.7}, "Oblivious-Fixed", "5e388aba7734788c", 0.9999689653156176, 9768},
	{iomodel.Degraded{Gamma: 0.7}, "Oblivious-Daly", "9273bea374728e9f", 0.9998345326303104, 9226},
}

// TestInterferenceModelsPinned pins the shared device end to end under
// each interference model: the goldens and the other digests run only
// LinearShare, so a change to how Unlimited or Degraded rates reach the
// device would otherwise go unseen.
func TestInterferenceModelsPinned(t *testing.T) {
	if testing.Short() {
		t.Skip("200-day replicates skipped in -short mode")
	}
	for _, pin := range interferencePins {
		t.Run(pin.model.Name()+"/"+pin.strategy, func(t *testing.T) {
			st, ok := StrategyByName(pin.strategy)
			if !ok {
				t.Fatalf("no strategy %q", pin.strategy)
			}
			a, err := NewArena(Config{
				Platform:     platform.Cielo(40, 2),
				Classes:      workload.APEXClasses(),
				Strategy:     st,
				HorizonDays:  200,
				Interference: pin.model,
			})
			if err != nil {
				t.Fatal(err)
			}
			res, err := a.Run(7)
			if err != nil {
				t.Fatal(err)
			}
			if res.WasteRatio != pin.waste || res.Events != pin.events {
				t.Errorf("WasteRatio %v, Events %d; recorded %v, %d", res.WasteRatio, res.Events, pin.waste, pin.events)
			}
			if got := resultDigest(res); got != pin.digest {
				t.Errorf("Result digest %s, recorded %s", got, pin.digest)
			}
		})
	}
}

// countingModel wraps an interference model and counts its rate
// recomputations and the weights each receives.
type countingModel struct {
	iomodel.InterferenceModel
	calls, weights, most int
}

func (m *countingModel) Rates(bw, total float64, streams int, weights, out []float64) {
	m.calls++
	m.weights += len(weights)
	m.most = max(m.most, len(weights))
	m.InterferenceModel.Rates(bw, total, streams, weights, out)
}

// TestSharedDeviceRatesPerWeightClass: the shared device asks the model
// for one rate per distinct job size, never one per transfer, so on a
// 3-year APEX replicate no recomputation sees more weights than APEX has
// classes (each class has one node count), and the wrapped model's results stay the plain model's.
func TestSharedDeviceRatesPerWeightClass(t *testing.T) {
	if testing.Short() {
		t.Skip("3-year replicate skipped in -short mode")
	}
	cfg := Config{Platform: platform.Cielo(40, 2), Classes: workload.APEXClasses(), Strategy: ObliviousFixed(), HorizonDays: 3 * 365, Seed: 1}
	plain := mustRun(t, cfg)
	m := &countingModel{InterferenceModel: iomodel.LinearShare{}}
	cfg.Interference = m
	if got := mustRun(t, cfg); resultDigest(got) != resultDigest(plain) {
		t.Fatalf("wrapped model changed the result:\n got  %+v\n want %+v", got, plain)
	}
	if classes := len(cfg.Classes); m.calls == 0 || m.most > classes {
		t.Fatalf("%d rate recomputations, up to %d weights each; want some, and at most %d", m.calls, m.most, classes)
	}
	t.Logf("%d rate recomputations, %.2f weights each on average, at most %d", m.calls, float64(m.weights)/float64(m.calls), m.most)
}
