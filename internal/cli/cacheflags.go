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
	enabled              *bool
	size                 *int
	policy, shadow, file *string
}

// RegisterCacheFlags declares the group on fs. cacheHelp is the command's
// own description of what -cache buys it; unit names what one cache entry
// holds ("design points", "study cells").
func RegisterCacheFlags(fs *flag.FlagSet, cacheHelp, unit string) *CacheFlags {
	return &CacheFlags{
		enabled: fs.Bool("cache", false, cacheHelp),
		size:    fs.Int("cache-size", 4096, "result cache capacity in "+unit),
		policy:  fs.String("cache-policy", "lru", "eviction policy: fifo, lru, lfu or tinylfu"),
		shadow:  fs.String("cache-shadow", "", "comma-separated policies to run as metadata-only hit-rate sensors"),
		file:    fs.String("cache-file", "", "persist cached results to this JSONL file and warm-start from it (implies -cache)"),
	}
}

// Open builds the result cache the parsed flags describe; nil when caching
// is off. A -cache-file implies -cache. Errors are configuration errors.
func (f *CacheFlags) Open() (*cache.Cache, error) {
	if !*f.enabled && *f.file == "" {
		return nil, nil
	}
	pol, err := cache.ParsePolicy(*f.policy)
	if err != nil {
		return nil, Configf("%v", err)
	}
	shadows, err := cache.ParsePolicies(*f.shadow)
	if err != nil {
		return nil, Configf("%v", err)
	}
	sc, err := core.NewSweepCache(*f.size, pol, shadows, *f.file)
	if err != nil {
		return nil, Configf("%v", err)
	}
	return sc, nil
}

// PrintCacheSummary emits the one-line greppable hit/miss roll-up (plus
// one line per shadow sensor) to stderr.
func PrintCacheSummary(prog string, sc *cache.Cache) {
	st := sc.Stats()
	fmt.Fprintf(os.Stderr,
		"%s: cache policy=%s entries=%d hits=%d misses=%d hit_rate=%.3f evictions=%d rejected=%d bytes=%d warm_starts=%d\n",
		prog, st.Policy, st.Entries, st.Hits, st.Misses, st.HitRate, st.Evictions, st.Rejected, st.Bytes, st.WarmStarts)
	for _, sh := range st.Shadows {
		fmt.Fprintf(os.Stderr, "%s: cache shadow policy=%s hits=%d misses=%d hit_rate=%.3f\n",
			prog, sh.Policy, sh.Hits, sh.Misses, sh.HitRate)
	}
}
