package api

import (
	"bytes"
	"encoding/json"
	"reflect"
	"testing"
)

// canonicalSpec clears the empty-but-non-nil slices a decode keeps and
// omitempty then drops: the one difference an encode/decode round trip
// may legitimately make to a spec.
func canonicalSpec(s CampaignSpec) CampaignSpec {
	if len(s.Config.Classes) == 0 {
		s.Config.Classes = nil
	}
	g := &s.Grid
	if len(g.BandwidthsBps) == 0 {
		g.BandwidthsBps = nil
	}
	if len(g.NodeMTBFSeconds) == 0 {
		g.NodeMTBFSeconds = nil
	}
	if len(g.FailureSpecs) == 0 {
		g.FailureSpecs = nil
	}
	if len(g.Channels) == 0 {
		g.Channels = nil
	}
	if len(g.Strategies) == 0 {
		g.Strategies = nil
	}
	return s
}

// FuzzDecodeCampaignSpec fuzzes the daemon's submission decoder: any
// body runs through DecodeCampaignSpec, Validate and Resolve without
// panicking, and a spec they accept survives json.Marshal and a second
// strict decode unchanged, still valid — so what the server persists
// and resubmits on boot is the campaign the client sent. The committed
// corpus holds the README and docs/API.md specs, a legacy scheduler
// spec, an unknown-field spec and a trailing-garbage spec.
func FuzzDecodeCampaignSpec(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		spec, err := DecodeCampaignSpec(bytes.NewReader(data))
		if err != nil {
			return
		}
		if err := spec.Validate(); err != nil {
			return
		}
		if _, err := spec.Resolve(); err != nil {
			t.Fatalf("Validate accepted a spec Resolve rejects: %v", err)
		}
		blob, err := json.Marshal(spec)
		if err != nil {
			t.Fatalf("accepted spec does not encode: %v", err)
		}
		again, err := DecodeCampaignSpec(bytes.NewReader(blob))
		if err != nil {
			t.Fatalf("re-decoding the encoded spec: %v\n%s", err, blob)
		}
		if !reflect.DeepEqual(canonicalSpec(again), canonicalSpec(spec)) {
			t.Fatalf("spec changed across encode/decode:\n got %+v\nwant %+v", again, spec)
		}
		if err := again.Validate(); err != nil {
			t.Fatalf("re-decoded spec no longer validates: %v", err)
		}
	})
}
