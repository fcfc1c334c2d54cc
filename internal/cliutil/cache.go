package cliutil

import (
	"flag"
	"fmt"
	"io"

	"repro/internal/resultcache"
)

// CacheFlags binds the result-cache flag shared by the coopsim and
// paperfigs front ends.
type CacheFlags struct {
	// Dir is the -cache-dir path ("" = no cross-run cache; in-grid
	// deduplication in the driver still applies).
	Dir string
}

// AddCacheFlags registers -cache-dir on the flag set and returns the
// bound struct.
func AddCacheFlags(fs *flag.FlagSet) *CacheFlags {
	cf := &CacheFlags{}
	fs.StringVar(&cf.Dir, "cache-dir", "",
		"content-addressed result cache directory: experiments already cached are served without simulating (bit-identical; rows carry cached=1); created if missing")
	return cf
}

// Open builds the result cache behind the flag value, nil when unset.
// The concrete *resultcache.Cache comes back alongside the interface so
// callers can report hit statistics.
func (cf *CacheFlags) Open() (*resultcache.Cache, error) {
	if cf.Dir == "" {
		return nil, nil
	}
	c, err := resultcache.New(resultcache.Options{Dir: cf.Dir})
	if err != nil {
		return nil, fmt.Errorf("-cache-dir: %w", err)
	}
	return c, nil
}

// ReportCacheStats prints the cache's traffic summary to stderr (prog
// names the command); a nil cache prints nothing.
func ReportCacheStats(stderr io.Writer, prog string, c *resultcache.Cache) {
	if c == nil {
		return
	}
	st := c.Stats()
	fmt.Fprintf(stderr, "%s: result cache: %d hit(s) (%d from disk), %d miss(es), %d stored\n",
		prog, st.Hits, st.DiskHits, st.Misses, st.Puts)
	if st.DiskErrors > 0 {
		fmt.Fprintf(stderr, "%s: result cache: %d disk error(s) (degraded to memory tier)\n", prog, st.DiskErrors)
	}
}
