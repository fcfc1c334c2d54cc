package resultcache

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

// FuzzCacheEntry writes arbitrary bytes under a valid key's file name
// and looks the key up from a fresh cache. Get never panics, and each
// lookup is either a miss that counts exactly one disk error, or a hit
// whose re-encoding is the file's canonical form (the file decoded and
// encoded again) — which Put writes byte for byte and which reads back
// as the same hit. The committed corpus holds an empty object, null, a
// torn file, the unversioned entry older builds wrote, another key's
// entry, versions 0 and 2, and a valid entry with per-run arrays.
func FuzzCacheEntry(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, key+".json"), data, 0o644); err != nil {
			t.Fatal(err)
		}
		c, _ := New(Options{Dir: dir})
		mc, ok := c.Get(key)
		st := c.Stats()
		if !ok {
			if st.DiskErrors != 1 {
				t.Fatalf("miss counted %d disk errors, want 1", st.DiskErrors)
			}
			return
		}
		if st.DiskErrors != 0 || st.DiskHits != 1 {
			t.Fatalf("hit with stats %+v", st)
		}
		var e entry
		if err := json.Unmarshal(data, &e); err != nil {
			t.Fatalf("hit on a file that does not decode: %v", err)
		}
		canon, err := json.Marshal(e)
		if err != nil {
			t.Fatalf("canonical form does not encode: %v", err)
		}
		got, err := json.Marshal(entry{V: entryVersion, Key: key, MC: mc})
		if err != nil {
			t.Fatalf("hit does not encode: %v", err)
		}
		if !bytes.Equal(got, canon) {
			t.Fatalf("hit re-encodes as\n%s\nwant the file's canonical form\n%s", got, canon)
		}

		dir2 := t.TempDir()
		c2, _ := New(Options{Dir: dir2})
		c2.Put(key, mc)
		written, err := os.ReadFile(filepath.Join(dir2, key+".json"))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(written, canon) {
			t.Fatalf("Put wrote\n%s\nwant\n%s", written, canon)
		}
		c3, _ := New(Options{Dir: dir2})
		again, ok := c3.Get(key)
		if !ok {
			t.Fatal("canonical entry missed")
		}
		if b, _ := json.Marshal(entry{V: entryVersion, Key: key, MC: again}); !bytes.Equal(b, canon) {
			t.Fatalf("canonical entry reads back as\n%s\nwant\n%s", b, canon)
		}
	})
}
