package driver

import (
	"encoding/json"
	"math"

	"repro/internal/engine"
)

// An MCResult's JSON image is the one durable form of a result: the
// campaign journal and the result cache's disk tier both store it. The
// aggregate floats go through jsonFloat (only CIHalfWidth is ever
// non-finite); cached and the per-run arrays, whose values are always
// finite, appear only when set, so a streaming result's image is exactly
// the mc record journals have always carried.

// jsonFloat is a float64 whose JSON form survives IEEE specials: NaN,
// +Inf and -Inf travel as the strings "nan", "inf" and "-inf".
type jsonFloat float64

// MarshalJSON implements json.Marshaler.
func (f jsonFloat) MarshalJSON() ([]byte, error) {
	switch v := float64(f); {
	case math.IsNaN(v):
		return []byte(`"nan"`), nil
	case math.IsInf(v, 1):
		return []byte(`"inf"`), nil
	case math.IsInf(v, -1):
		return []byte(`"-inf"`), nil
	default:
		return json.Marshal(v)
	}
}

// UnmarshalJSON implements json.Unmarshaler.
func (f *jsonFloat) UnmarshalJSON(b []byte) error {
	switch string(b) {
	case `"nan"`:
		*f = jsonFloat(math.NaN())
	case `"inf"`:
		*f = jsonFloat(math.Inf(1))
	case `"-inf"`:
		*f = jsonFloat(math.Inf(-1))
	default:
		return json.Unmarshal(b, (*float64)(f))
	}
	return nil
}

type summaryJSON struct {
	N      *int       `json:"n"`
	Mean   *jsonFloat `json:"mean"`
	Min    *jsonFloat `json:"min"`
	Max    *jsonFloat `json:"max"`
	P10    *jsonFloat `json:"p10"`
	P25    *jsonFloat `json:"p25"`
	P50    *jsonFloat `json:"p50"`
	P75    *jsonFloat `json:"p75"`
	P90    *jsonFloat `json:"p90"`
	StdDev *jsonFloat `json:"stddev"`
}

type mcJSON struct {
	Strategy        *string          `json:"strategy"`
	Summary         summaryJSON      `json:"summary"`
	MeanUtilization *jsonFloat       `json:"mean_utilization"`
	MeanFailures    *jsonFloat       `json:"mean_failures"`
	RunsUsed        *int             `json:"runs_used"`
	CIHalfWidth     *jsonFloat       `json:"ci_half_width"`
	Confidence      *jsonFloat       `json:"confidence"`
	Cached          *bool            `json:"cached,omitempty"`
	WasteRatios     *[]float64       `json:"waste_ratios,omitempty"`
	Results         *[]engine.Result `json:"results,omitempty"`
}

// image points the JSON mirror at mc's fields: encoding reads through
// the pointers and decoding writes through them, so one table maps both
// directions. A nil pointer leaves its key out.
func (mc *MCResult) image() *mcJSON {
	f := func(x *float64) *jsonFloat { return (*jsonFloat)(x) }
	s := &mc.Summary
	return &mcJSON{
		Strategy: &mc.Strategy,
		Summary: summaryJSON{&s.N, f(&s.Mean), f(&s.Min), f(&s.Max),
			f(&s.P10), f(&s.P25), f(&s.P50), f(&s.P75), f(&s.P90), f(&s.StdDev)},
		MeanUtilization: f(&mc.MeanUtilization),
		MeanFailures:    f(&mc.MeanFailures),
		RunsUsed:        &mc.RunsUsed,
		CIHalfWidth:     f(&mc.CIHalfWidth),
		Confidence:      f(&mc.Confidence),
		Cached:          &mc.Cached,
		WasteRatios:     &mc.WasteRatios,
		Results:         &mc.Results,
	}
}

// MarshalJSON writes the result's durable image.
func (mc MCResult) MarshalJSON() ([]byte, error) {
	img := mc.image()
	if !mc.Cached {
		img.Cached = nil
	}
	if mc.WasteRatios == nil {
		img.WasteRatios = nil
	}
	if mc.Results == nil {
		img.Results = nil
	}
	return json.Marshal(img)
}

// UnmarshalJSON reads the image MarshalJSON writes, bit for bit.
func (mc *MCResult) UnmarshalJSON(b []byte) error {
	*mc = MCResult{}
	return json.Unmarshal(b, mc.image())
}
