package core

// Pinned persistence bytes. testdata/sweep_*_v1.* were written by an
// earlier build running the small grid below at one worker with a cache
// file and a journal:
//
//	sst-dse -j 1 -scale small -apps stream,gups -techs ddr3-1333,gddr5-4000 \
//	    -widths 1,2 -table grid -format csv \
//	    -cache-file sweep_cache_v1.jsonl -journal sweep_journal_v1.jsonl >sweep_grid_v1.csv
//
// The cache file and the journal are on-disk formats a later build must
// read and write unchanged: a fresh run writes the same records, the cache
// file warm-starts a sweep that simulates nothing, and the journal resumes
// to the same grid.

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"testing"

	"sst/internal/cache"
)

var (
	pinnedApps   = []string{"stream", "gups"}
	pinnedTechs  = []string{"ddr3-1333", "gddr5-4000"}
	pinnedWidths = []int{1, 2}
)

func readPinned(t *testing.T, name string) []byte {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("testdata", name))
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// copyPinned copies a pinned file into dir, so a test may append to it.
func copyPinned(t *testing.T, dir, name string) string {
	t.Helper()
	path := filepath.Join(dir, name)
	if err := os.WriteFile(path, readPinned(t, name), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// hostVarying matches the record fields a fresh run cannot reproduce:
// HostSeconds is host wall time, and a cache record's size is the length
// of its value, HostSeconds' digits included.
var hostVarying = regexp.MustCompile(`"HostSeconds":[^,}]*|"size":[0-9]+`)

func maskHost(b []byte) []byte {
	return hostVarying.ReplaceAllFunc(b, func(m []byte) []byte {
		return append(bytes.Clone(m[:bytes.IndexByte(m, ':')+1]), '0')
	})
}

func TestPinnedSweepFiles(t *testing.T) {
	wantCache := readPinned(t, "sweep_cache_v1.jsonl")
	wantJournal := readPinned(t, "sweep_journal_v1.jsonl")
	wantGrid := readPinned(t, "sweep_grid_v1.csv")
	n := len(pinnedApps) * len(pinnedTechs) * len(pinnedWidths)

	// A cold run writes the pinned records, host time aside.
	t.Run("cold", func(t *testing.T) {
		dir := t.TempDir()
		c, err := NewSweepCache(64, cache.LRU, nil, filepath.Join(dir, "cache.jsonl"))
		if err != nil {
			t.Fatal(err)
		}
		g, err := MemTechWidthSweep(pinnedApps, pinnedTechs, pinnedWidths, Small,
			SweepOptions{Workers: 1, Cache: c, Journal: filepath.Join(dir, "journal.jsonl")})
		if err != nil {
			t.Fatal(err)
		}
		if err := c.Close(); err != nil {
			t.Fatal(err)
		}
		if got := csvOf(t, g); !bytes.Equal(got, wantGrid) {
			t.Errorf("grid CSV differs from the pinned one\n got %s\nwant %s", got, wantGrid)
		}
		for name, want := range map[string][]byte{"cache.jsonl": wantCache, "journal.jsonl": wantJournal} {
			got, err := os.ReadFile(filepath.Join(dir, name))
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(maskHost(got), maskHost(want)) {
				t.Errorf("%s differs from the pinned file beyond host time\n got %s\nwant %s", name, got, want)
			}
		}
	})

	// Warm-started from the pinned cache file, the sweep is all hits and
	// journals exactly the pinned journal: same values, same bytes.
	t.Run("warm", func(t *testing.T) {
		dir := t.TempDir()
		c, err := NewSweepCache(64, cache.LRU, nil, copyPinned(t, dir, "sweep_cache_v1.jsonl"))
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		journal := filepath.Join(dir, "journal.jsonl")
		g, err := MemTechWidthSweep(pinnedApps, pinnedTechs, pinnedWidths, Small,
			SweepOptions{Workers: 1, Cache: c, Journal: journal})
		if err != nil {
			t.Fatal(err)
		}
		if st := c.Stats(); st.WarmStarts != int64(n) || st.Hits != int64(n) || st.Misses != 0 {
			t.Errorf("warm start: %d records, %d hits, %d misses; want %d, %d, 0",
				st.WarmStarts, st.Hits, st.Misses, n, n)
		}
		if got := csvOf(t, g); !bytes.Equal(got, wantGrid) {
			t.Errorf("warm grid CSV differs from the pinned one\n got %s\nwant %s", got, wantGrid)
		}
		got, err := os.ReadFile(journal)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, wantJournal) {
			t.Errorf("warm-start journal differs from the pinned one\n got %s\nwant %s", got, wantJournal)
		}
		if got, err := os.ReadFile(filepath.Join(dir, "sweep_cache_v1.jsonl")); err != nil || !bytes.Equal(got, wantCache) {
			t.Errorf("an all-hit sweep changed the cache file (err %v)", err)
		}
	})

	// Every pinned record, decoded and stored again, is rewritten byte for
	// byte, host time and size included.
	t.Run("rewrite", func(t *testing.T) {
		path := filepath.Join(t.TempDir(), "cache.jsonl")
		c, err := NewSweepCache(64, cache.LRU, nil, path)
		if err != nil {
			t.Fatal(err)
		}
		codec := ResultCodec()
		for _, line := range bytes.SplitAfter(bytes.TrimSuffix(wantCache, []byte("\n")), []byte("\n")) {
			var rec struct {
				Key string
				Val json.RawMessage
			}
			if err := json.Unmarshal(line, &rec); err != nil {
				t.Fatal(err)
			}
			v, raw, err := codec.Decode(rec.Val)
			if err != nil {
				t.Fatal(err)
			}
			if err := c.Store(rec.Key, v, raw); err != nil {
				t.Fatal(err)
			}
		}
		if err := c.Close(); err != nil {
			t.Fatal(err)
		}
		if got, err := os.ReadFile(path); err != nil || !bytes.Equal(got, wantCache) {
			t.Errorf("rewritten cache file differs from the pinned one (err %v)\n got %s\nwant %s", err, got, wantCache)
		}
	})

	// Resumed from the pinned journal, the sweep restores every point.
	t.Run("resume", func(t *testing.T) {
		dir := t.TempDir()
		journal := copyPinned(t, dir, "sweep_journal_v1.jsonl")
		c, err := NewSweepCache(64, cache.LRU, nil, "")
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		g, err := MemTechWidthSweep(pinnedApps, pinnedTechs, pinnedWidths, Small,
			SweepOptions{Workers: 1, Cache: c, Journal: journal, Resume: true})
		if err != nil {
			t.Fatal(err)
		}
		if st := c.Stats(); st.Hits+st.Misses != 0 {
			t.Errorf("resume ran %d points, want 0", st.Hits+st.Misses)
		}
		if got := csvOf(t, g); !bytes.Equal(got, wantGrid) {
			t.Errorf("resumed grid CSV differs from the pinned one\n got %s\nwant %s", got, wantGrid)
		}
		if got, err := os.ReadFile(journal); err != nil || !bytes.Equal(got, wantJournal) {
			t.Errorf("a fully restored resume changed the journal (err %v)", err)
		}
	})
}
