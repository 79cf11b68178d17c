package cli

import (
	"flag"
	"fmt"
	"os"

	"sst/internal/cache"
	"sst/internal/core"
)

// CacheFlags is the -cache* flag group the sweep commands (sst-dse,
// sst-net, sst-serve) share: one owner for the names, defaults, the cache
// they build and the stderr summary.
type CacheFlags struct {
	enabled *bool
	size    *int
	file    *string
}

// RegisterCacheFlags declares the group on fs. cacheHelp is the command's
// own description of what -cache buys it; unit names what one cache entry
// holds ("design points", "study cells").
func RegisterCacheFlags(fs *flag.FlagSet, cacheHelp, unit string) *CacheFlags {
	return &CacheFlags{
		enabled: fs.Bool("cache", false, cacheHelp),
		size:    fs.Int("cache-size", 4096, "result cache capacity in "+unit),
		file:    fs.String("cache-file", "", "persist cached results to this JSONL file and warm-start from it (implies -cache)"),
	}
}

// Open builds the result cache the parsed flags describe; nil when caching
// is off. A -cache-file implies -cache. Errors are configuration errors.
func (f *CacheFlags) Open() (*cache.Cache, error) {
	if !*f.enabled && *f.file == "" {
		return nil, nil
	}
	sc, err := core.NewSweepCache(*f.size, cache.LRU, nil, *f.file)
	if err != nil {
		return nil, Configf("%v", err)
	}
	return sc, nil
}

// printCacheSummary emits the one-line greppable hit/miss roll-up to
// stderr.
func printCacheSummary(prog string, sc *cache.Cache) {
	st := sc.Stats()
	fmt.Fprintf(os.Stderr,
		"%s: cache entries=%d hits=%d misses=%d hit_rate=%.3f evictions=%d bytes=%d warm_starts=%d\n",
		prog, st.Entries, st.Hits, st.Misses, st.HitRate, st.Evictions, st.Bytes, st.WarmStarts)
}
