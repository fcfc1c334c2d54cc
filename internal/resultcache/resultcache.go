// Package resultcache is the content-addressed Monte-Carlo result memo
// behind driver.WithResultCache and the campaign runner's cache: results
// keyed by driver.ExperimentKey, an in-memory tier for repeated cells
// within one process, and an optional disk tier (one JSON file per key,
// written atomically) for cross-run reuse. Equal keys mean bit-identical
// experiments under the driver's pinned CRN schedule, so a hit returns
// exactly what the simulation it replaces would have produced.
package resultcache

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"

	"repro/internal/driver"
	"repro/internal/engine"
)

// Options configures a Cache.
type Options struct {
	// Dir enables the disk tier: one <key>.json per entry, created on
	// demand. Empty keeps the cache memory-only.
	Dir string
	// MaxMemEntries bounds the in-memory tier; 0 means unbounded. When
	// full, an arbitrary entry is evicted (the disk tier, when enabled,
	// still holds everything written).
	MaxMemEntries int
}

// Stats counts cache traffic. Hits includes DiskHits; a disk hit is
// promoted into the memory tier.
type Stats struct {
	Hits, Misses, Puts, DiskHits int64
	// DiskErrors counts disk-tier reads/writes that failed (the cache
	// degrades to its memory tier rather than failing the experiment).
	DiskErrors int64
}

// Cache implements driver.ResultCache with an in-memory tier and an
// optional disk tier. Safe for concurrent use.
type Cache struct {
	dir string
	max int

	mu  sync.RWMutex
	mem map[string]driver.MCResult

	hits, misses, puts, diskHits, diskErrs atomic.Int64
}

var _ driver.ResultCache = (*Cache)(nil)

// New builds a cache; with Options.Dir set the directory is created if
// missing.
func New(o Options) (*Cache, error) {
	if o.Dir != "" {
		if err := os.MkdirAll(o.Dir, 0o755); err != nil {
			return nil, fmt.Errorf("resultcache: %w", err)
		}
	}
	return &Cache{dir: o.Dir, max: o.MaxMemEntries, mem: map[string]driver.MCResult{}}, nil
}

// Get returns the result stored under key, consulting memory before
// disk. The returned value is the caller's to keep.
func (c *Cache) Get(key string) (driver.MCResult, bool) {
	c.mu.RLock()
	mc, ok := c.mem[key]
	c.mu.RUnlock()
	if ok {
		c.hits.Add(1)
		return clone(mc), true
	}
	if c.dir != "" && keyOK(key) {
		if mc, ok := c.readDisk(key); ok {
			c.mu.Lock()
			c.memPut(key, mc)
			c.mu.Unlock()
			c.hits.Add(1)
			c.diskHits.Add(1)
			return clone(mc), true
		}
	}
	c.misses.Add(1)
	return driver.MCResult{}, false
}

// Put stores the result under key in every enabled tier. The value is
// cloned on the way in, so the caller may keep mutating its copy.
func (c *Cache) Put(key string, mc driver.MCResult) {
	c.puts.Add(1)
	mc = clone(mc)
	c.mu.Lock()
	c.memPut(key, mc)
	c.mu.Unlock()
	if c.dir != "" && keyOK(key) {
		c.writeDisk(key, mc)
	}
}

// Stats returns a snapshot of the traffic counters.
func (c *Cache) Stats() Stats {
	return Stats{
		Hits:       c.hits.Load(),
		Misses:     c.misses.Load(),
		Puts:       c.puts.Load(),
		DiskHits:   c.diskHits.Load(),
		DiskErrors: c.diskErrs.Load(),
	}
}

// memPut inserts into the memory tier, evicting an arbitrary entry when
// the bound is hit. Callers hold c.mu.
func (c *Cache) memPut(key string, mc driver.MCResult) {
	if _, ok := c.mem[key]; !ok && c.max > 0 && len(c.mem) >= c.max {
		for k := range c.mem {
			delete(c.mem, k)
			break
		}
	}
	c.mem[key] = mc
}

// entryVersion is the disk entry format. An entry is
// {"v":1,"key":K,"mc":R}, where R is the result's durable image
// (driver.MCResult.MarshalJSON, the record the campaign journal writes),
// and is believed only when v and key match the file it was read for
// and R folds at least one run.
const entryVersion = 1

type entry struct {
	V   int             `json:"v"`
	Key string          `json:"key"`
	MC  driver.MCResult `json:"mc"`
}

func (c *Cache) path(key string) string {
	return filepath.Join(c.dir, key+".json")
}

func (c *Cache) readDisk(key string) (driver.MCResult, bool) {
	b, err := os.ReadFile(c.path(key))
	if err != nil {
		if !os.IsNotExist(err) {
			c.diskErrs.Add(1)
		}
		return driver.MCResult{}, false
	}
	var e entry
	if err := json.Unmarshal(b, &e); err != nil || e.V != entryVersion || e.Key != key || e.MC.RunsUsed < 1 {
		// A torn or foreign file, an entry of another format or key, or
		// one without a result is a miss, not a failure.
		c.diskErrs.Add(1)
		return driver.MCResult{}, false
	}
	return e.MC, true
}

// writeDisk lands the entry atomically: temp file in the same directory,
// then rename — a crash mid-write leaves no torn entry under the key.
func (c *Cache) writeDisk(key string, mc driver.MCResult) {
	b, err := json.Marshal(entry{V: entryVersion, Key: key, MC: mc})
	if err != nil {
		c.diskErrs.Add(1)
		return
	}
	tmp, err := os.CreateTemp(c.dir, ".put-*")
	if err != nil {
		c.diskErrs.Add(1)
		return
	}
	name := tmp.Name()
	if _, err := tmp.Write(b); err != nil {
		tmp.Close()
		os.Remove(name)
		c.diskErrs.Add(1)
		return
	}
	if err := tmp.Close(); err != nil {
		os.Remove(name)
		c.diskErrs.Add(1)
		return
	}
	if err := os.Rename(name, c.path(key)); err != nil {
		os.Remove(name)
		c.diskErrs.Add(1)
	}
}

// keyOK accepts exactly the hex content addresses ExperimentKey emits —
// anything else stays out of file names (memory tier still serves it).
func keyOK(key string) bool {
	if len(key) == 0 || len(key) > 128 {
		return false
	}
	for _, r := range key {
		if (r < '0' || r > '9') && (r < 'a' || r > 'f') {
			return false
		}
	}
	return true
}

func clone(mc driver.MCResult) driver.MCResult {
	if mc.WasteRatios != nil {
		mc.WasteRatios = append([]float64(nil), mc.WasteRatios...)
	}
	if mc.Results != nil {
		mc.Results = append([]engine.Result(nil), mc.Results...)
	}
	return mc
}
