// Package cache implements a content-addressed memoization layer for
// design-space sweeps: values keyed by a canonical hash of the fully
// resolved configuration that produced them. Because a sweep point is a
// pure function of its configuration, a hit is — by construction —
// equivalent to re-simulating the point, and invalidation reduces to "the
// key changed".
//
// The cache is one bounded LRU table: a resident sst-serve needs a bound,
// and recency is the policy repeated and overlapping grids reward. No
// measured stream reaches the default capacity (EXPERIMENTS.md E16), so
// there is no second policy to choose.
//
// An optional persistent tier appends every stored entry to an fsync'd
// JSONL file (an iofault.AppendLog, the crash-tolerant log the sweep
// journal also uses, including torn-tail truncation on load), so a cache
// survives process restarts and a new invocation warm-starts from disk.
//
// The persistent tier is an accelerator, not a ledger: when the host
// storage under it starts failing mid-run (ENOSPC, fsync errors), the
// cache degrades to in-memory-only — the failing file is dropped, every
// Put keeps succeeding against RAM, and the degradation is visible in
// Stats (Degraded, AppendFailures) rather than in sweep errors. Sweep
// results are identical either way; only the next warm-start is poorer.
package cache

import (
	"container/list"
	"encoding/json"
	"fmt"
	"sync"

	"sst/internal/iofault"
)

// Codec serializes cache values for the persistent tier. Encode/Decode
// must round-trip exactly (encoding/json on float64 fields does).
type Codec struct {
	Encode func(v any) ([]byte, error)
	Decode func(data []byte) (any, error)
}

// Options configures a Cache.
type Options struct {
	// Capacity bounds resident entries; <= 0 means 1024.
	Capacity int
	// Path, when non-empty, names the persistent JSONL tier: existing
	// entries are loaded at New (tolerating a torn final line) and every
	// Put is appended and fsync'd. Requires Codec.
	Path string
	// Codec serializes values for the persistent tier; also used to size
	// entries whose Put passes size <= 0.
	Codec Codec
	// FS, when non-nil, is the host-storage seam the persistent tier reads
	// and writes through; nil means the real filesystem (iofault.Disk).
	// The crash-point harness substitutes an iofault.MemFS here.
	FS iofault.FS
}

// Stats is a point-in-time snapshot of cache behavior. It marshals to the
// JSON reported through internal/obs RunReports.
type Stats struct {
	Capacity   int     `json:"capacity"`
	Entries    int     `json:"entries"`
	Bytes      int64   `json:"bytes"`
	Hits       int64   `json:"hits"`
	Misses     int64   `json:"misses"`
	Evictions  int64   `json:"evictions"`
	WarmStarts int64   `json:"warm_starts"`
	HitRate    float64 `json:"hit_rate"`

	// AppendFailures counts persistent-tier appends that failed (short
	// write, ENOSPC, fsync error); Degraded reports that the file tier has
	// been dropped because of one and the cache now runs in-memory-only.
	AppendFailures int64 `json:"append_failures,omitempty"`
	Degraded       bool  `json:"degraded,omitempty"`
}

// PolicyType and LRU are a vestige: the frozen bench/ calls
// core.NewSweepCache(4096, cache.LRU, nil, ""), so the name and its one
// value stay until the next benchmark unfreeze (see ROADMAP.md). Nothing
// reads them.
type PolicyType int

// LRU is the cache's only eviction order.
const LRU PolicyType = iota

// entry is one resident value; it lives in the recency list's element.
type entry struct {
	key  string
	v    any
	size int64
}

// Cache is a bounded, content-addressed key→value store evicting the
// least recently used entry. All methods are safe for concurrent use by
// sweep workers.
type Cache struct {
	mu       sync.Mutex
	capacity int
	items    map[string]*list.Element // of *entry
	order    *list.List               // front = most recently used
	codec    Codec

	log *iofault.AppendLog // the persistent tier; nil when absent or degraded

	bytes          int64
	hits           int64
	misses         int64
	evictions      int64
	warmStarts     int64
	appendFailures int64
	degraded       bool
}

// fileEntry is one persistent-tier JSONL record.
type fileEntry struct {
	Key  string          `json:"key"`
	Size int64           `json:"size"`
	Val  json.RawMessage `json:"val"`
}

// New builds a cache; with Options.Path set it warm-starts from the file's
// surviving records and opens it for fsync'd appends.
func New(opts Options) (*Cache, error) {
	capacity := opts.Capacity
	if capacity <= 0 {
		capacity = 1024
	}
	c := &Cache{
		capacity: capacity,
		items:    make(map[string]*list.Element, capacity),
		order:    list.New(),
		codec:    opts.Codec,
	}
	if opts.Path != "" {
		if opts.Codec.Encode == nil || opts.Codec.Decode == nil {
			return nil, fmt.Errorf("cache: persistent tier %q needs a codec", opts.Path)
		}
		fsys := opts.FS
		if fsys == nil {
			fsys = iofault.Disk
		}
		if err := c.openFile(fsys, opts.Path); err != nil {
			return nil, err
		}
	}
	return c, nil
}

// openFile warm-starts from the persistent tier's surviving records and
// opens it for append.
func (c *Cache) openFile(fsys iofault.FS, path string) error {
	log, err := iofault.OpenAppendLog(fsys, path, false, func(line []byte) bool {
		var fe fileEntry
		if json.Unmarshal(line, &fe) != nil || fe.Key == "" {
			return false
		}
		v, err := c.codec.Decode(fe.Val)
		if err != nil {
			return false
		}
		c.insertLocked(fe.Key, v, fe.Size)
		c.warmStarts++
		return true
	})
	if err != nil {
		return fmt.Errorf("cache: file tier: %w", err)
	}
	c.log = log
	return nil
}

// Get returns the value stored under key and marks it most recently used.
func (c *Cache) Get(key string) (any, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.items[key]
	if !ok {
		c.misses++
		return nil, false
	}
	c.hits++
	c.order.MoveToFront(el)
	return el.Value.(*entry).v, true
}

// Put stores a deep-copy-owned value under key. size is the caller's
// resident-footprint estimate; <= 0 falls back to the codec's encoded
// length (or 1). The only error source is the codec: a persistent-tier
// append failure does not fail the Put — the value stays resident, the
// cache degrades to in-memory-only and the failure is counted in Stats.
func (c *Cache) Put(key string, v any, size int64) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	var encoded []byte
	if c.codec.Encode != nil && (size <= 0 || c.log != nil) {
		var err error
		if encoded, err = c.codec.Encode(v); err != nil {
			return fmt.Errorf("cache: encoding %q: %w", key, err)
		}
	}
	if size <= 0 {
		size = int64(len(encoded))
		if size <= 0 {
			size = 1
		}
	}
	if c.insertLocked(key, v, size) && c.log != nil {
		c.appendLocked(key, encoded, size)
	}
	return nil
}

// insertLocked stores the value as most recently used, evicts past
// capacity and reports whether key is new. Content-addressed: a re-store
// under a resident key carries the same value, so it refreshes size
// accounting and recency only. Caller holds mu.
func (c *Cache) insertLocked(key string, v any, size int64) bool {
	if el, ok := c.items[key]; ok {
		ent := el.Value.(*entry)
		c.bytes += size - ent.size
		ent.v, ent.size = v, size
		c.order.MoveToFront(el)
		return false
	}
	c.items[key] = c.order.PushFront(&entry{key: key, v: v, size: size})
	c.bytes += size
	for len(c.items) > c.capacity {
		ent := c.order.Remove(c.order.Back()).(*entry)
		delete(c.items, ent.key)
		c.bytes -= ent.size
		c.evictions++
	}
	return true
}

// appendLocked makes one persistent-tier record durable, like a sweep
// journal record — except that a failure does not propagate: the tier
// degrades. The cache is a memoizer, so a sweep must never fail because
// its accelerator's disk filled up; the torn-tail load already makes a
// partially-appended record harmless on the next start. Degrading closes
// the failing file (best effort — the storage is already suspect) and
// runs in-memory-only from here on, counted and surfaced through Stats.
func (c *Cache) appendLocked(key string, encoded []byte, size int64) {
	line, err := json.Marshal(fileEntry{Key: key, Size: size, Val: encoded})
	if err == nil {
		err = c.log.Append(line)
	}
	if err != nil {
		c.appendFailures++
		c.degraded = true
		c.log.Close()
		c.log = nil
	}
}

// Len returns the resident entry count.
func (c *Cache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.items)
}

// Stats snapshots the counters.
func (c *Cache) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	s := Stats{
		Capacity:   c.capacity,
		Entries:    len(c.items),
		Bytes:      c.bytes,
		Hits:       c.hits,
		Misses:     c.misses,
		Evictions:  c.evictions,
		WarmStarts: c.warmStarts,

		AppendFailures: c.appendFailures,
		Degraded:       c.degraded,
	}
	if total := c.hits + c.misses; total > 0 {
		s.HitRate = float64(c.hits) / float64(total)
	}
	return s
}

// Close closes the persistent tier, if any. Safe to call repeatedly.
func (c *Cache) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.log == nil {
		return nil
	}
	err := c.log.Close()
	c.log = nil
	return err
}
