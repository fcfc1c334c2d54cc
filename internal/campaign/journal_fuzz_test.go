package campaign

import (
	"bytes"
	"fmt"
	"slices"
	"testing"
)

// replayBytes replays data through the reader OpenJournal and
// ReadJournal share.
func replayBytes(data []byte) (*ReplayState, error) {
	st, _, err := replay(bytes.NewReader(data), "fuzz.journal")
	return st, err
}

// dumpReplay renders everything a replay recovers except TornRecords,
// with points in index order, so two states compare as strings (NaN
// aggregates included).
func dumpReplay(st *ReplayState) string {
	var b bytes.Buffer
	fmt.Fprintf(&b, "header %+v sealed %v cache hits %d\n", st.Header, st.Sealed, st.CacheHits)
	idx := make([]int, 0, len(st.Points))
	for i := range st.Points {
		idx = append(idx, i)
	}
	slices.Sort(idx)
	for _, i := range idx {
		p := st.Points[i]
		fmt.Fprintf(&b, "point %d attempts %d failed %v", i, p.Attempts, p.Failed)
		if p.Done != nil {
			fmt.Fprintf(&b, " done %+v", *p.Done)
		}
		if p.Snap != nil {
			fmt.Fprintf(&b, " snap %+v", *p.Snap)
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// FuzzJournalReplay checks the journal reader: no input makes it panic,
// and corrupting one byte of a valid journal (every frame intact) —
// byte at, under each of its 255 other values — replays exactly the
// frames before the corrupted one: that frame and everything after it
// are never applied.
func FuzzJournalReplay(f *testing.F) {
	f.Fuzz(func(t *testing.T, journal []byte, at uint16) {
		st, err := replayBytes(journal)
		if err != nil || st.TornRecords != 0 || len(journal) == 0 {
			return
		}
		i := int(at) % len(journal)
		lineStart := bytes.LastIndexByte(journal[:i], '\n') + 1
		want := ""
		if lineStart > 0 {
			prefix, err := replayBytes(journal[:lineStart])
			if err != nil {
				t.Fatalf("prefix of a valid journal: %v", err)
			}
			want = dumpReplay(prefix)
		}
		corrupt := bytes.Clone(journal)
		for flip := 1; flip < 256; flip++ {
			corrupt[i] = journal[i] ^ byte(flip)
			got, err := replayBytes(corrupt)
			switch {
			case lineStart == 0:
				if err == nil {
					t.Fatalf("header with byte %d corrupted (%q -> %q) replayed: %s", i, journal[i], corrupt[i], dumpReplay(got))
				}
			case err != nil:
				t.Fatalf("byte %d corrupted (%q -> %q): %v", i, journal[i], corrupt[i], err)
			case got.TornRecords == 0:
				t.Fatalf("frame with byte %d corrupted (%q -> %q) passed verification", i, journal[i], corrupt[i])
			case dumpReplay(got) != want:
				t.Fatalf("byte %d corrupted (%q -> %q): replay applied more than the preceding frames\n got %s\nwant %s",
					i, journal[i], corrupt[i], dumpReplay(got), want)
			}
		}
	})
}
