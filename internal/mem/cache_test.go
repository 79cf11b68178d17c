package mem

import (
	"testing"

	"sst/internal/sim"
	"sst/internal/stats"
)

// testCfg returns a small cache config: 1 KiB, 2-way, 64B lines (8 sets).
func testCfg(name string) CacheConfig {
	return CacheConfig{
		Name:       name,
		SizeBytes:  1 << 10,
		LineBytes:  64,
		Assoc:      2,
		HitLatency: 1 * sim.Nanosecond,
		MSHRs:      4,
		WriteBack:  true,
		Repl:       LRU,
	}
}

func newCache(t testing.TB, cfg CacheConfig, latency sim.Time) (*sim.Engine, *Cache, *SimpleMemory) {
	t.Helper()
	e := sim.NewEngine()
	reg := stats.NewRegistry()
	lower := NewSimpleMemory(e, "mem", latency, 0, reg.Scope("mem"))
	c, err := NewCache(e, cfg, lower, reg.Scope(cfg.Name))
	if err != nil {
		t.Fatal(err)
	}
	return e, c, lower
}

func TestCacheConfigValidate(t *testing.T) {
	bad := testCfg("c")
	bad.LineBytes = 48
	if err := bad.Validate(); err == nil {
		t.Error("non-power-of-two line accepted")
	}
	bad = testCfg("c")
	bad.SizeBytes = 1000
	if err := bad.Validate(); err == nil {
		t.Error("indivisible size accepted")
	}
	bad = testCfg("c")
	bad.Assoc = 0
	if err := bad.Validate(); err == nil {
		t.Error("zero associativity accepted")
	}
	bad = testCfg("c")
	bad.SizeBytes = 3 * 64 * 2 // 3 sets: not a power of two
	if err := bad.Validate(); err == nil {
		t.Error("non-power-of-two set count accepted")
	}
	if _, err := NewCache(sim.NewEngine(), testCfg("c"), nil, nil); err == nil {
		t.Error("nil lower device accepted")
	}
}

func TestCacheHitMissTiming(t *testing.T) {
	e, c, _ := newCache(t, testCfg("l1"), 100*sim.Nanosecond)
	var missLat, hitLat sim.Time
	start := e.Now()
	c.Access(Read, 0x1000, 8, func() { missLat = e.Now() - start })
	e.RunAll()
	start = e.Now()
	c.Access(Read, 0x1000, 8, func() { hitLat = e.Now() - start })
	e.RunAll()
	if hitLat != c.cfg.HitLatency {
		t.Errorf("hit latency = %v, want %v", hitLat, c.cfg.HitLatency)
	}
	// Miss: lookup + memory latency (plus scheduling) > 100ns.
	if missLat < 100*sim.Nanosecond || missLat > 110*sim.Nanosecond {
		t.Errorf("miss latency = %v, want ~101ns", missLat)
	}
	if c.Hits() != 1 || c.Misses() != 1 {
		t.Errorf("hits=%d misses=%d", c.Hits(), c.Misses())
	}
}

func TestCacheWorkingSetFits(t *testing.T) {
	e, c, _ := newCache(t, testCfg("l1"), 50*sim.Nanosecond)
	// 1 KiB working set == cache size: after warmup all hits.
	warm := func() {
		for a := uint64(0); a < 1024; a += 64 {
			c.Access(Read, a, 8, nil)
		}
		e.RunAll()
	}
	warm()
	h0 := c.Hits()
	warm()
	if c.Hits()-h0 != 16 {
		t.Errorf("second pass hits = %d, want 16", c.Hits()-h0)
	}
	if c.HitRate() != 0.5 {
		t.Errorf("hit rate = %v, want 0.5", c.HitRate())
	}
}

func TestCacheLRUEviction(t *testing.T) {
	e, c, _ := newCache(t, testCfg("l1"), 10*sim.Nanosecond)
	// Three lines mapping to set 0 (stride = sets*line = 8*64 = 512B),
	// 2-way: A, B, touch A, then C evicts B (LRU), so A still hits.
	const stride = 512
	acc := func(a uint64) {
		c.Access(Read, a, 8, nil)
		e.RunAll()
	}
	acc(0 * stride) // A miss
	acc(1 * stride) // B miss
	acc(0 * stride) // A hit (refreshes LRU)
	acc(2 * stride) // C miss, evicts B
	h := c.Hits()
	acc(0 * stride) // A must still be resident
	if c.Hits() != h+1 {
		t.Error("LRU evicted the recently used line")
	}
	m := c.Misses()
	acc(1 * stride) // B was evicted: miss
	if c.Misses() != m+1 {
		t.Error("expected B to have been evicted")
	}
}

func TestCacheFIFOEviction(t *testing.T) {
	cfg := testCfg("l1")
	cfg.Repl = FIFO
	e, c, _ := newCache(t, cfg, 10*sim.Nanosecond)
	const stride = 512
	acc := func(a uint64) {
		c.Access(Read, a, 8, nil)
		e.RunAll()
	}
	acc(0 * stride) // A (oldest)
	acc(1 * stride) // B
	acc(0 * stride) // A hit; FIFO ignores recency
	acc(2 * stride) // C evicts A (first in)
	m := c.Misses()
	acc(0 * stride) // A gone under FIFO
	if c.Misses() != m+1 {
		t.Error("FIFO did not evict the first-filled line")
	}
}

func TestCacheRandomReplacementWorks(t *testing.T) {
	cfg := testCfg("l1")
	cfg.Repl = RandomRepl
	e, c, _ := newCache(t, cfg, 10*sim.Nanosecond)
	for i := 0; i < 100; i++ {
		c.Access(Read, uint64(i)*512, 8, nil)
		e.RunAll()
	}
	valid, _ := contents(c)
	if valid == 0 || c.evictions.Count() == 0 {
		t.Error("random replacement produced no evictions or no residents")
	}
}

func TestCacheWriteBack(t *testing.T) {
	e, c, lower := newCache(t, testCfg("l1"), 10*sim.Nanosecond)
	// Dirty a line, then evict it with two conflicting fills.
	c.Access(Write, 0, 8, nil)
	e.RunAll()
	if lower.writes.Count() != 0 {
		t.Fatalf("write-back cache wrote through: %d", lower.writes.Count())
	}
	_, dirty := contents(c)
	if dirty != 1 {
		t.Fatalf("dirty lines = %d, want 1", dirty)
	}
	c.Access(Read, 512, 8, nil)
	c.Access(Read, 1024, 8, nil) // evicts the dirty line
	e.RunAll()
	if lower.writes.Count() != 1 {
		t.Errorf("writebacks to memory = %d, want 1", lower.writes.Count())
	}
	if c.writebacks.Count() != 1 {
		t.Errorf("writeback stat = %d, want 1", c.writebacks.Count())
	}
}

func TestCacheWriteThrough(t *testing.T) {
	cfg := testCfg("l1")
	cfg.WriteBack = false
	e, c, lower := newCache(t, cfg, 10*sim.Nanosecond)
	// Write miss: no allocate, posted write below.
	c.Access(Write, 0, 8, nil)
	e.RunAll()
	if lower.writes.Count() != 1 {
		t.Fatalf("write-through miss writes = %d, want 1", lower.writes.Count())
	}
	valid, _ := contents(c)
	if valid != 0 {
		t.Fatal("write-through no-allocate cache allocated on write miss")
	}
	// Fill via read, then write hit: line stays, write goes through.
	c.Access(Read, 0, 8, nil)
	e.RunAll()
	c.Access(Write, 0, 8, nil)
	e.RunAll()
	if lower.writes.Count() != 2 {
		t.Fatalf("write-through hit writes = %d, want 2", lower.writes.Count())
	}
	_, dirty := contents(c)
	if dirty != 0 {
		t.Fatal("write-through cache holds dirty lines")
	}
}

func TestCacheMSHRCoalescing(t *testing.T) {
	e, c, lower := newCache(t, testCfg("l1"), 100*sim.Nanosecond)
	done := 0
	// Two accesses to the same line while the fill is outstanding: one
	// memory read only.
	c.Access(Read, 0x40, 8, func() { done++ })
	c.Access(Read, 0x48, 8, func() { done++ })
	e.RunAll()
	if done != 2 {
		t.Fatalf("completions = %d, want 2", done)
	}
	if lower.reads.Count() != 1 {
		t.Errorf("memory reads = %d, want 1 (coalesced)", lower.reads.Count())
	}
	if c.secondaryMisses.Count() != 1 {
		t.Errorf("secondary misses = %d, want 1", c.secondaryMisses.Count())
	}
}

func TestCacheMSHRStall(t *testing.T) {
	cfg := testCfg("l1")
	cfg.MSHRs = 2
	e, c, _ := newCache(t, cfg, 100*sim.Nanosecond)
	done := 0
	for i := 0; i < 6; i++ {
		c.Access(Read, uint64(i)*4096, 8, func() { done++ })
	}
	e.RunAll()
	if done != 6 {
		t.Fatalf("completions = %d, want 6 (stalled accesses must complete)", done)
	}
	if c.mshrStalls.Count() == 0 {
		t.Error("no MSHR stalls recorded with 6 misses over 2 MSHRs")
	}
	if c.Misses() != 6 {
		t.Errorf("misses = %d, want 6 (no double counting through stalls)", c.Misses())
	}
}

func TestCachePrefetchNextLine(t *testing.T) {
	cfg := testCfg("l1")
	cfg.PrefetchNextLine = true
	cfg.SizeBytes = 8 << 10
	e, c, _ := newCache(t, cfg, 100*sim.Nanosecond)
	// Sequential stream with gaps between issues so prefetches land.
	var addrs []uint64
	for a := uint64(0); a < 4096; a += 64 {
		addrs = append(addrs, a)
	}
	i := 0
	var next func()
	next = func() {
		if i >= len(addrs) {
			return
		}
		a := addrs[i]
		i++
		c.Access(Read, a, 8, func() {
			e.Schedule(200*sim.Nanosecond, func(any) { next() }, nil)
		})
	}
	next()
	e.RunAll()
	if c.prefetches.Count() == 0 {
		t.Fatal("no prefetches issued")
	}
	// With next-line prefetch and slack, most of the stream should hit.
	if c.HitRate() < 0.5 {
		t.Errorf("hit rate with prefetch = %.2f, want > 0.5", c.HitRate())
	}
}

func TestCacheMultiLineAccess(t *testing.T) {
	e, c, lower := newCache(t, testCfg("l1"), 10*sim.Nanosecond)
	done := false
	// 256B spanning 4 lines plus offset: 5 line accesses.
	c.Access(Read, 0x20, 256, func() { done = true })
	e.RunAll()
	if !done {
		t.Fatal("multi-line access never completed")
	}
	if lower.reads.Count() != 5 {
		t.Errorf("line fills = %d, want 5", lower.reads.Count())
	}
}

func TestCacheUpgradeWithoutBusIsFree(t *testing.T) {
	// A standalone write-back cache has no coherence domain: S lines
	// cannot exist, and upgrades complete locally. Simulate by filling
	// and writing; state must be M.
	e, c, _ := newCache(t, testCfg("l1"), 10*sim.Nanosecond)
	c.Access(Read, 0, 8, nil)
	e.RunAll()
	c.Access(Write, 0, 8, nil)
	e.RunAll()
	_, dirty := contents(c)
	if dirty != 1 {
		t.Fatalf("dirty = %d, want 1 (E→M on write hit)", dirty)
	}
	if c.upgrades.Count() != 0 {
		t.Errorf("upgrades = %d, want 0 (exclusive fill needs no upgrade)", c.upgrades.Count())
	}
}

func TestSimpleMemoryBandwidth(t *testing.T) {
	e := sim.NewEngine()
	m := NewSimpleMemory(e, "m", 0, 1e9, nil) // 1 GB/s, zero latency
	var last sim.Time
	for i := 0; i < 10; i++ {
		m.Access(Read, 0, 1000, func() { last = e.Now() })
	}
	e.RunAll()
	// 10 KB at 1 GB/s = 10 us.
	if last < 9*sim.Microsecond || last > 11*sim.Microsecond {
		t.Errorf("10KB at 1GB/s finished at %v, want ~10us", last)
	}
}

func TestDeviceName(t *testing.T) {
	e := sim.NewEngine()
	m := NewSimpleMemory(e, "zz", 0, 0, nil)
	if deviceName(m) != "zz" {
		t.Errorf("deviceName = %q", deviceName(m))
	}
	if deviceName(&BusPort{}) == "" {
		t.Error("fallback name empty")
	}
}

func TestOpString(t *testing.T) {
	if Read.String() != "read" || Write.String() != "write" {
		t.Fatal("op strings")
	}
	if LRU.String() != "lru" || FIFO.String() != "fifo" || RandomRepl.String() != "random" || ReplKind(7).String() == "" {
		t.Fatal("repl strings")
	}
}

func TestThreeLevelHierarchy(t *testing.T) {
	// L1 -> L2 -> L3 -> memory: each level absorbs its share. Stream a
	// working set sized between L2 and L3 twice: the second pass should
	// hit in L3, not memory.
	e := sim.NewEngine()
	lower := NewSimpleMemory(e, "mem", 100*sim.Nanosecond, 0, nil)
	mk := func(name string, kb int, below Device) *Cache {
		c, err := NewCache(e, CacheConfig{
			Name: name, SizeBytes: kb << 10, LineBytes: 64, Assoc: 8,
			HitLatency: sim.Nanosecond, MSHRs: 16, WriteBack: true,
		}, below, nil)
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	l3 := mk("l3", 256, lower)
	l2 := mk("l2", 32, l3)
	l1 := mk("l1", 4, l2)
	const ws = 128 << 10 // fits L3, not L2
	for pass := 0; pass < 2; pass++ {
		for a := uint64(0); a < ws; a += 64 {
			l1.Access(Read, a, 8, nil)
		}
		e.RunAll()
	}
	if l3.HitRate() < 0.45 {
		t.Errorf("L3 hit rate = %.3f, want ~0.5 (second pass resident)", l3.HitRate())
	}
	if got := lower.reads.Count(); got != ws/64 {
		t.Errorf("memory reads = %d, want %d (one compulsory pass)", got, ws/64)
	}
	if l1.HitRate() > 0.1 {
		t.Errorf("L1 hit rate = %.3f on a streaming set 32x its size", l1.HitRate())
	}
}

// contents returns c's (valid lines, dirty lines).
func contents(c *Cache) (valid, dirty int) {
	for _, set := range c.sets {
		for i := range set {
			if set[i].valid {
				valid++
				if set[i].st == modified {
					dirty++
				}
			}
		}
	}
	return valid, dirty
}
