package resultcache

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"

	"repro/internal/driver"
	"repro/internal/stats"
)

const key = "00deadbeef00deadbeef00deadbeef00deadbeef00deadbeef00deadbeef0000"

func sample() driver.MCResult {
	return driver.MCResult{
		Strategy:        "Ordered-Daly",
		Summary:         stats.Summary{N: 3, Mean: 0.4, Min: 0.3, Max: 0.5, StdDev: 0.1},
		WasteRatios:     []float64{0.3, 0.4, 0.5},
		MeanUtilization: 0.9,
		RunsUsed:        3,
		Confidence:      0.95,
		CIHalfWidth:     0.05,
	}
}

func TestMemoryTierRoundTrip(t *testing.T) {
	c, err := New(Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := c.Get(key); ok {
		t.Fatal("empty cache reported a hit")
	}
	want := sample()
	c.Put(key, want)
	got, ok := c.Get(key)
	if !ok {
		t.Fatal("stored entry missed")
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("round trip mutated the result:\n got %+v\nwant %+v", got, want)
	}

	// Clone semantics both ways: mutating the caller's copies must not
	// reach the cache.
	got.WasteRatios[0] = 99
	want.WasteRatios[0] = 98
	again, _ := c.Get(key)
	if again.WasteRatios[0] != 0.3 {
		t.Fatal("cache entry aliased a caller slice")
	}

	st := c.Stats()
	if st.Hits != 2 || st.Misses != 1 || st.Puts != 1 || st.DiskHits != 0 {
		t.Fatalf("stats = %+v, want 2 hits / 1 miss / 1 put", st)
	}
}

func TestDiskTierRoundTrip(t *testing.T) {
	dir := t.TempDir()
	c1, err := New(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	want := sample()
	c1.Put(key, want)

	// A fresh cache over the same directory — a new process — serves the
	// entry from disk and promotes it into memory.
	c2, err := New(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	got, ok := c2.Get(key)
	if !ok {
		t.Fatal("disk entry missed")
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("disk round trip mutated the result:\n got %+v\nwant %+v", got, want)
	}
	if st := c2.Stats(); st.DiskHits != 1 {
		t.Fatalf("stats = %+v, want 1 disk hit", st)
	}
	// Promoted: the second Get is a memory hit.
	if _, ok := c2.Get(key); !ok {
		t.Fatal("promoted entry missed")
	}
	if st := c2.Stats(); st.DiskHits != 1 || st.Hits != 2 {
		t.Fatalf("stats after promotion = %+v, want 2 hits / 1 disk hit", st)
	}
}

// TestDiskTierInfHalfWidth: CIHalfWidth is +Inf below two estimator
// observations; JSON cannot carry it, the disk image must round-trip it.
func TestDiskTierInfHalfWidth(t *testing.T) {
	dir := t.TempDir()
	c1, _ := New(Options{Dir: dir})
	mc := sample()
	mc.CIHalfWidth = math.Inf(1)
	c1.Put(key, mc)

	c2, _ := New(Options{Dir: dir})
	got, ok := c2.Get(key)
	if !ok {
		t.Fatal("entry missed")
	}
	if !math.IsInf(got.CIHalfWidth, 1) {
		t.Fatalf("CIHalfWidth = %v, want +Inf", got.CIHalfWidth)
	}
}

// TestDiskTierTornEntry: a corrupt cache file is a miss plus a counted
// disk error, never a failure — the cache degrades, the experiment runs.
func TestDiskTierTornEntry(t *testing.T) {
	dir := t.TempDir()
	c, _ := New(Options{Dir: dir})
	if err := os.WriteFile(filepath.Join(dir, key+".json"), []byte(`{"MC": {"Strategy"`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok := c.Get(key); ok {
		t.Fatal("torn entry served as a hit")
	}
	if st := c.Stats(); st.DiskErrors != 1 {
		t.Fatalf("stats = %+v, want 1 disk error", st)
	}
	// No temp files linger from atomic writes.
	c.Put(key, sample())
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if strings.HasPrefix(e.Name(), ".put-") {
			t.Errorf("temp file %s left behind", e.Name())
		}
	}
}

// TestKeyHygiene: only the hex content addresses ExperimentKey emits
// reach the filesystem; anything else stays in the memory tier.
func TestKeyHygiene(t *testing.T) {
	dir := t.TempDir()
	c, _ := New(Options{Dir: dir})
	bad := "../escape"
	c.Put(bad, sample())
	if _, ok := c.Get(bad); !ok {
		t.Fatal("memory tier refused a non-hex key")
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 0 {
		t.Fatalf("non-hex key reached the disk tier: %v", entries)
	}
	for _, k := range []string{"", strings.Repeat("a", 129), "ABCDEF", "0123z"} {
		if keyOK(k) {
			t.Errorf("keyOK(%q) = true", k)
		}
	}
	if !keyOK(key) {
		t.Error("keyOK rejected a canonical content address")
	}
}

func TestMemEviction(t *testing.T) {
	c, _ := New(Options{MaxMemEntries: 2})
	for _, k := range []string{"aa", "bb", "cc"} {
		c.Put(k, sample())
	}
	hits := 0
	for _, k := range []string{"aa", "bb", "cc"} {
		if _, ok := c.Get(k); ok {
			hits++
		}
	}
	if hits != 2 {
		t.Fatalf("bounded cache holds %d of 3 entries, want 2", hits)
	}
}

func TestConcurrentAccess(t *testing.T) {
	c, err := New(Options{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				c.Put(key, sample())
				if mc, ok := c.Get(key); ok && mc.RunsUsed != 3 {
					t.Error("concurrent Get returned a torn value")
					return
				}
			}
		}()
	}
	wg.Wait()
}

func TestEngineIntegration(t *testing.T) {
	var _ driver.ResultCache = mustNew(t)
}

func mustNew(t *testing.T) *Cache {
	t.Helper()
	c, err := New(Options{})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// TestConcurrentMixedWithEviction hammers a bounded two-tier cache with
// mixed readers and writers across a key space larger than the memory
// bound, so Get/Put race against eviction constantly. Every value is
// keyed by its own content, so any torn or cross-keyed read is
// detectable; the disk tier must keep serving entries the memory tier
// evicted. Run under -race in CI.
func TestConcurrentMixedWithEviction(t *testing.T) {
	c, err := New(Options{Dir: t.TempDir(), MaxMemEntries: 4})
	if err != nil {
		t.Fatal(err)
	}
	const keys = 16
	keyOf := func(i int) string {
		return fmt.Sprintf("%064x", i+1)
	}
	valOf := func(i int) driver.MCResult {
		mc := sample()
		mc.RunsUsed = i + 1
		mc.Summary.Mean = float64(i + 1)
		return mc
	}

	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				k := (g*31 + i) % keys
				if (g+i)%3 == 0 {
					c.Put(keyOf(k), valOf(k))
					continue
				}
				mc, ok := c.Get(keyOf(k))
				if !ok {
					continue
				}
				if mc.RunsUsed != k+1 || mc.Summary.Mean != float64(k+1) {
					t.Errorf("key %d returned value for runs=%d mean=%v", k, mc.RunsUsed, mc.Summary.Mean)
					return
				}
			}
		}(g)
	}
	wg.Wait()

	// Seed everything once more, then verify all keys still resolve —
	// eviction bounded memory but the disk tier holds the full set.
	for i := 0; i < keys; i++ {
		c.Put(keyOf(i), valOf(i))
	}
	for i := 0; i < keys; i++ {
		mc, ok := c.Get(keyOf(i))
		if !ok {
			t.Fatalf("key %d lost after eviction churn", i)
		}
		if mc.RunsUsed != i+1 {
			t.Fatalf("key %d holds runs=%d", i, mc.RunsUsed)
		}
	}
	if st := c.Stats(); st.DiskHits == 0 {
		t.Error("eviction never pushed a read to the disk tier")
	}
}
