package cache

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"
)

// jsonCodec round-trips string values; enough for metadata-level tests.
var jsonCodec = Codec{
	Encode: func(b []byte, v any, _ []byte) ([]byte, error) {
		enc, err := json.Marshal(v)
		return append(b, enc...), err
	},
	Decode: func(data []byte) (any, []byte, error) {
		var s string
		err := json.Unmarshal(data, &s)
		return s, nil, err
	},
}

func mustCache(t *testing.T, opts Options) *Cache {
	t.Helper()
	c, err := New(opts)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

func put(t *testing.T, c *Cache, key string) {
	t.Helper()
	if err := c.Put(key, "v:"+key, 8); err != nil {
		t.Fatalf("Put(%s): %v", key, err)
	}
}

func TestLRUEvictsLeastRecentlyUsed(t *testing.T) {
	c := mustCache(t, Options{Capacity: 3})
	put(t, c, "a")
	put(t, c, "b")
	put(t, c, "c")
	c.Get("a") // a becomes hottest; b is now coldest
	put(t, c, "d")
	if _, ok := c.Get("b"); ok {
		t.Error("LRU kept least recently used entry b")
	}
	for _, k := range []string{"a", "c", "d"} {
		if _, ok := c.Get(k); !ok {
			t.Errorf("LRU evicted %s", k)
		}
	}
}

func TestPutSameKeyRefreshes(t *testing.T) {
	c := mustCache(t, Options{Capacity: 4})
	if err := c.Put("k", "v1", 10); err != nil {
		t.Fatal(err)
	}
	if err := c.Put("k", "v1", 30); err != nil {
		t.Fatal(err)
	}
	st := c.Stats()
	if st.Entries != 1 || st.Bytes != 30 {
		t.Errorf("entries=%d bytes=%d, want 1/30", st.Entries, st.Bytes)
	}
}

func TestFileWarmStart(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cache.jsonl")
	c1, err := New(Options{Capacity: 8, Path: path, Codec: jsonCodec})
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range []string{"a", "b", "c"} {
		if err := c1.Put(k, "v:"+k, 0); err != nil {
			t.Fatal(err)
		}
	}
	if err := c1.Close(); err != nil {
		t.Fatal(err)
	}

	c2, err := New(Options{Capacity: 8, Path: path, Codec: jsonCodec})
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	st := c2.Stats()
	if st.WarmStarts != 3 || st.Entries != 3 {
		t.Fatalf("warm start loaded %d/%d entries, want 3/3", st.WarmStarts, st.Entries)
	}
	v, ok := c2.Get("b")
	if !ok || v != "v:b" {
		t.Errorf("Get(b) after warm start = %v, %v", v, ok)
	}
}

func TestFileTornTailTruncated(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cache.jsonl")
	c1, err := New(Options{Capacity: 8, Path: path, Codec: jsonCodec})
	if err != nil {
		t.Fatal(err)
	}
	if err := c1.Put("a", "v:a", 0); err != nil {
		t.Fatal(err)
	}
	if err := c1.Put("b", "v:b", 0); err != nil {
		t.Fatal(err)
	}
	c1.Close()

	// Simulate a crash mid-append: a torn, unterminated final record.
	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	fmt.Fprintf(f, `{"key":"torn","si`)
	f.Close()

	c2, err := New(Options{Capacity: 8, Path: path, Codec: jsonCodec})
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	if st := c2.Stats(); st.WarmStarts != 2 {
		t.Fatalf("warm starts after torn tail = %d, want 2", st.WarmStarts)
	}
	// The torn bytes must be gone so the next append starts clean.
	if err := c2.Put("c", "v:c", 0); err != nil {
		t.Fatal(err)
	}
	c2.Close()
	c3, err := New(Options{Capacity: 8, Path: path, Codec: jsonCodec})
	if err != nil {
		t.Fatal(err)
	}
	defer c3.Close()
	if st := c3.Stats(); st.WarmStarts != 3 {
		t.Errorf("after truncate+append reload got %d entries, want 3", st.WarmStarts)
	}
	if _, ok := c3.Get("torn"); ok {
		t.Error("torn record survived")
	}
}

func TestFileNeedsCodec(t *testing.T) {
	_, err := New(Options{Path: filepath.Join(t.TempDir(), "c.jsonl")})
	if err == nil {
		t.Fatal("want error for Path without Codec")
	}
}

// TestConcurrentAccess exercises the mutex under the race detector.
func TestConcurrentAccess(t *testing.T) {
	c := mustCache(t, Options{Capacity: 32})
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				key := fmt.Sprintf("k%d", (w*7+i)%48)
				if _, ok := c.Get(key); !ok {
					_ = c.Put(key, key, 4)
				}
				if i%50 == 0 {
					c.Stats()
				}
			}
		}(w)
	}
	wg.Wait()
	if c.Len() > 32 {
		t.Errorf("len=%d exceeds capacity", c.Len())
	}
}

func TestEvictionAccounting(t *testing.T) {
	c := mustCache(t, Options{Capacity: 2})
	put(t, c, "a")
	put(t, c, "b")
	put(t, c, "c")
	st := c.Stats()
	if st.Evictions != 1 || st.Entries != 2 || st.Bytes != 16 {
		t.Errorf("evictions=%d entries=%d bytes=%d, want 1/2/16", st.Evictions, st.Entries, st.Bytes)
	}
}
