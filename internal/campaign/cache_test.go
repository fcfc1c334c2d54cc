package campaign

import (
	"context"
	"path/filepath"
	"testing"

	"repro/internal/driver"
	"repro/internal/faultinject"
	"repro/internal/resultcache"
	"repro/internal/units"
)

// TestCampaignResultCache: a campaign with a result cache serves repeated
// points without simulating, journals each hit (cache_hit plus the
// aggregates), and the resulting journal resumes without the cache — the
// cache and the journal compose instead of depending on each other.
func TestCampaignResultCache(t *testing.T) {
	base := tinyConfig(mustStrategy(t, "Ordered-NB-Daly"), 101)
	grid := driver.SweepGrid{BandwidthsBps: []float64{units.GBps(0.25), units.GBps(0.5)}}
	const runs = 5
	want := golden(t, base, grid, runs)

	cache, err := resultcache.New(resultcache.Options{})
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()

	// First campaign: everything simulates, every completed point lands
	// in the cache.
	seq, errf := New(Options{JournalPath: filepath.Join(dir, "one.journal"), Workers: 2, Cache: cache}).
		RunSweep(context.Background(), base, grid, runs)
	for pr := range seq {
		if pr.Status != StatusDone || pr.MC.Cached {
			t.Fatalf("first campaign point %d: status %v cached %v", pr.Point.Index, pr.Status, pr.MC.Cached)
		}
	}
	if err := errf(); err != nil {
		t.Fatal(err)
	}
	if st := cache.Stats(); st.Puts != int64(len(want)) {
		t.Fatalf("first campaign stored %d points, want %d", st.Puts, len(want))
	}

	// Second campaign, same experiment, fresh journal: every point must
	// come from the cache — a replicate reaching the engine trips the
	// hook — flagged Cached and bit-identical.
	restore := faultinject.Set(faultinject.SiteWorkerReplicate,
		faultinject.PanicOn("cached campaign simulated", func(any) bool { return true }))
	defer restore()
	second := filepath.Join(dir, "two.journal")
	seq, errf = New(Options{JournalPath: second, Workers: 2, Cache: cache}).
		RunSweep(context.Background(), base, grid, runs)
	n := 0
	for pr := range seq {
		if pr.Status != StatusDone {
			t.Fatalf("cached campaign point %d: %v", pr.Point.Index, pr.Err)
		}
		if !pr.MC.Cached {
			t.Fatalf("cached campaign point %d not flagged Cached", pr.Point.Index)
		}
		sameMC(t, "cache hit", pr.MC, want[pr.Point.Index].MC)
		n++
	}
	if err := errf(); err != nil {
		t.Fatal(err)
	}
	if n != len(want) {
		t.Fatalf("cached campaign yielded %d points, want %d", n, len(want))
	}

	// The second journal records the hits and stands on its own: it
	// replays (still under the no-simulation hook) without the cache.
	st, err := ReadJournal(second)
	if err != nil {
		t.Fatal(err)
	}
	if st.CacheHits != len(want) {
		t.Fatalf("journal recorded %d cache hits, want %d", st.CacheHits, len(want))
	}
	seq, errf = New(Options{JournalPath: second, Resume: true, Workers: 2}).
		RunSweep(context.Background(), base, grid, runs)
	for pr := range seq {
		if !pr.Restored {
			t.Fatalf("resume of cache-hit journal simulated point %d", pr.Point.Index)
		}
		sameMC(t, "cache-hit resume", pr.MC, want[pr.Point.Index].MC)
		if !pr.MC.Cached {
			t.Errorf("resume of point %d lost the Cached provenance flag", pr.Point.Index)
		}
	}
	if err := errf(); err != nil {
		t.Fatal(err)
	}
}
