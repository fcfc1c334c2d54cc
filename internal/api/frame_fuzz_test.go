package api

import (
	"bytes"
	"encoding/json"
	"reflect"
	"testing"
)

// FuzzStreamFrame fuzzes the result stream's frames as a client reads
// them: a line that decodes as a StreamFrame encodes (the way the server
// writes it) to a line that decodes to the same frame and encodes to
// the same bytes, so decode→encode→decode reaches a fixed point. A
// point's mc lowers onto driver.MCResult and back unchanged, except that
// a set ci_half_width_inf flag zeroes the half-width it stands for. The
// committed corpus holds the docs/API.md example frame, a single-run
// frame with ci_half_width_inf, a failed point and an end frame.
func FuzzStreamFrame(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		var frame StreamFrame
		if json.Unmarshal(data, &frame) != nil {
			return
		}
		line, err := EncodeJSON(frame)
		if err != nil {
			t.Fatalf("decoded frame does not encode: %v", err)
		}
		var again StreamFrame
		if err := json.Unmarshal(line, &again); err != nil {
			t.Fatalf("re-decoding the encoded frame: %v\n%s", err, line)
		}
		if !reflect.DeepEqual(again, frame) {
			t.Fatalf("frame changed across encode/decode:\n got %+v\nwant %+v", again, frame)
		}
		if line2, _ := EncodeJSON(again); !bytes.Equal(line2, line) {
			t.Fatalf("encoding is not a fixed point:\n%s%s", line, line2)
		}
		if frame.Point == nil || frame.Point.MC == nil {
			return
		}
		want := *frame.Point.MC
		if want.CIHalfWidthInf {
			want.CIHalfWidth = 0
		}
		if got := FromMCResult(frame.Point.MC.Engine()); !reflect.DeepEqual(got, want) {
			t.Fatalf("mc changed across Engine/FromMCResult:\n got %+v\nwant %+v", got, want)
		}
	})
}
