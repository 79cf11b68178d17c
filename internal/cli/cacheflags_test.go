package cli

import (
	"flag"
	"io"
	"path/filepath"
	"testing"

	"sst/internal/cache"
)

// openCache parses args through the shared -cache* flag group, the way
// every sweep command does.
func openCache(t *testing.T, args ...string) (*cache.Cache, error) {
	t.Helper()
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	cf := RegisterCacheFlags(fs, "memoize", "design points")
	if err := fs.Parse(args); err != nil {
		t.Fatalf("parsing %v: %v", args, err)
	}
	return cf.Open()
}

// TestCacheFlags pins the flag-to-cache wiring: names, defaults, the
// -cache-file-implies--cache rule, and bad policies rejected as
// configuration errors.
func TestCacheFlags(t *testing.T) {
	if c, err := openCache(t); err != nil || c != nil {
		t.Fatalf("disabled cache = %v, %v; want nil, nil", c, err)
	}
	c, err := openCache(t, "-cache")
	if err != nil || c == nil {
		t.Fatalf("-cache: %v", err)
	}
	if st := c.Stats(); st.Policy != "lru" || st.Capacity != 4096 || len(st.Shadows) != 0 {
		t.Fatalf("defaults built wrong: %+v", st)
	}
	c.Close()
	c, err = openCache(t, "-cache", "-cache-size", "16", "-cache-policy", "tinylfu", "-cache-shadow", "lru,lfu")
	if err != nil || c == nil {
		t.Fatalf("full flag set: %v", err)
	}
	if st := c.Stats(); st.Policy != "tinylfu" || st.Capacity != 16 || len(st.Shadows) != 2 {
		t.Fatalf("cache built wrong: %+v", st)
	}
	c.Close()
	// -cache-file implies -cache.
	fc, err := openCache(t, "-cache-file", filepath.Join(t.TempDir(), "c.jsonl"))
	if err != nil || fc == nil {
		t.Fatalf("cache-file without -cache: %v, %v", fc, err)
	}
	fc.Close()
	for _, args := range [][]string{
		{"-cache", "-cache-policy", "arc"},
		{"-cache", "-cache-shadow", "lfu,arc"},
	} {
		if _, err := openCache(t, args...); Code(err) != ExitConfig {
			t.Errorf("%v: exit code %d (%v), want the config-error code", args, Code(err), err)
		}
	}
}
