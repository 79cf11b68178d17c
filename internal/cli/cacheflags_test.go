package cli

import (
	"flag"
	"io"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"sst/internal/cache"
	"sst/internal/core"
	"sst/internal/dram"
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
// -cache-file-implies--cache rule, and that the policy and shadow-sensor
// flags are gone.
func TestCacheFlags(t *testing.T) {
	if c, err := openCache(t); err != nil || c != nil {
		t.Fatalf("disabled cache = %v, %v; want nil, nil", c, err)
	}
	c, err := openCache(t, "-cache")
	if err != nil || c == nil {
		t.Fatalf("-cache: %v", err)
	}
	if st := c.Stats(); st.Capacity != 4096 || st.Entries != 0 {
		t.Fatalf("defaults built wrong: %+v", st)
	}
	c.Close()
	c, err = openCache(t, "-cache", "-cache-size", "16")
	if err != nil || c == nil {
		t.Fatalf("full flag set: %v", err)
	}
	if st := c.Stats(); st.Capacity != 16 {
		t.Fatalf("cache built wrong: %+v", st)
	}
	c.Close()
	// -cache-file implies -cache.
	fc, err := openCache(t, "-cache-file", filepath.Join(t.TempDir(), "c.jsonl"))
	if err != nil || fc == nil {
		t.Fatalf("cache-file without -cache: %v, %v", fc, err)
	}
	fc.Close()
	// An unopenable cache file is a configuration error.
	if _, err := openCache(t, "-cache-file", filepath.Join(t.TempDir(), "no", "such", "dir", "c.jsonl")); Code(err) != ExitConfig {
		t.Errorf("bad -cache-file: exit code %d (%v), want the config-error code", Code(err), err)
	}

	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	RegisterCacheFlags(fs, "memoize", "design points")
	var names []string
	fs.VisitAll(func(f *flag.Flag) { names = append(names, f.Name) })
	if got := strings.Join(names, " "); got != "cache cache-file cache-size" {
		t.Errorf("cache flag group = %q, want cache, cache-file and cache-size only", got)
	}
	for _, gone := range []string{"-cache-policy", "-cache-shadow"} {
		if err := fs.Parse([]string{gone, "lru"}); err == nil || !strings.Contains(err.Error(), "not defined") {
			t.Errorf("%s: parse error %v, want an unknown-flag error", gone, err)
		}
	}
}

// TestDefaultCapacityHoldsKeyUniverse pins the traffic claim behind the
// single eviction policy: every design point the registered apps, memory
// technologies and the studied widths can name fits the default-capacity
// cache at once, so a repeated full grid evicts nothing and re-simulates
// nothing.
func TestDefaultCapacityHoldsKeyUniverse(t *testing.T) {
	apps := []string{"hpccg", "lulesh", "stencil", "stream", "fea", "gups", "minimd"}
	var techs []string
	for name := range dram.Presets() {
		techs = append(techs, name)
	}
	sort.Strings(techs)
	widths := []int{1, 2, 4, 8}
	points := int64(len(apps) * len(techs) * len(widths))
	if points != 168 {
		t.Fatalf("key universe is %d points, want 7 apps x 6 techs x 4 widths = 168", points)
	}

	c, err := openCache(t, "-cache")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	opts := core.SweepOptions{Cache: c, Arena: core.NewArenaPool()}
	if _, err := core.MemTechWidthSweep(apps, techs, widths, core.Small, opts); err != nil {
		t.Fatal(err)
	}
	first := c.Stats()
	if first.Hits != 0 || first.Misses != points || first.Entries != int(points) {
		t.Fatalf("first pass stats %+v, want %d misses and entries", first, points)
	}
	if _, err := core.MemTechWidthSweep(apps, techs, widths, core.Small, opts); err != nil {
		t.Fatal(err)
	}
	st := c.Stats()
	if st.Evictions != 0 || st.Misses != first.Misses || st.Hits != points {
		t.Fatalf("second pass stats %+v, want 0 evictions, %d hits and no new miss", st, points)
	}
}
