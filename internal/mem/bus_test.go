package mem

import (
	"testing"
	"testing/quick"

	"sst/internal/dram"
	"sst/internal/sim"
	"sst/internal/stats"
)

// coherentPair builds two L1 caches over a snooping bus over a simple
// memory.
func coherentPair(t testing.TB) (*sim.Engine, *Cache, *Cache, *Bus, *SimpleMemory) {
	t.Helper()
	e := sim.NewEngine()
	reg := stats.NewRegistry()
	lower := NewSimpleMemory(e, "mem", 50*sim.Nanosecond, 0, reg.Scope("mem"))
	bus := NewBus(e, "bus", 5*sim.Nanosecond, 0, lower, reg.Scope("bus"))
	mk := func(name string) *Cache {
		cfg := testCfg(name)
		port := bus.Port(nil)
		c, err := NewCache(e, cfg, port, reg.Scope(name))
		if err != nil {
			t.Fatal(err)
		}
		port.AttachCache(c)
		return c
	}
	return e, mk("c0"), mk("c1"), bus, lower
}

func lineState(c *Cache, addr uint64) state {
	ln := c.findLine(addr >> c.lineShift)
	if ln == nil {
		return invalid
	}
	return ln.st
}

func TestMESIExclusiveFill(t *testing.T) {
	e, c0, c1, _, _ := coherentPair(t)
	c0.Access(Read, 0, 8, nil)
	e.RunAll()
	if st := lineState(c0, 0); st != exclusive {
		t.Fatalf("lone reader state = %d, want exclusive", st)
	}
	_ = c1
}

func TestMESISharedFill(t *testing.T) {
	e, c0, c1, _, _ := coherentPair(t)
	c0.Access(Read, 0, 8, nil)
	e.RunAll()
	c1.Access(Read, 0, 8, nil)
	e.RunAll()
	if st := lineState(c0, 0); st != shared {
		t.Fatalf("first reader downgraded to %d, want shared", st)
	}
	if st := lineState(c1, 0); st != shared {
		t.Fatalf("second reader state = %d, want shared", st)
	}
}

func TestMESIWriteInvalidatesPeer(t *testing.T) {
	e, c0, c1, bus, _ := coherentPair(t)
	c0.Access(Read, 0, 8, nil)
	c1.Access(Read, 0, 8, nil)
	e.RunAll()
	c0.Access(Write, 0, 8, nil)
	e.RunAll()
	if st := lineState(c0, 0); st != modified {
		t.Fatalf("writer state = %d, want modified", st)
	}
	if st := lineState(c1, 0); st != invalid {
		t.Fatalf("peer state = %d, want invalid", st)
	}
	if bus.invals.Count() == 0 {
		t.Error("no invalidations recorded")
	}
	if c0.upgrades.Count() != 1 {
		t.Errorf("upgrades = %d, want 1 (S→M)", c0.upgrades.Count())
	}
}

func TestMESIDirtyPeerSuppliesData(t *testing.T) {
	e, c0, c1, bus, lower := coherentPair(t)
	c0.Access(Write, 0, 8, nil)
	e.RunAll()
	reads := lower.reads.Count()
	var lat sim.Time
	start := e.Now()
	c1.Access(Read, 0, 8, func() { lat = e.Now() - start })
	e.RunAll()
	if bus.c2cTransfers.Count() != 1 {
		t.Fatalf("cache-to-cache transfers = %d, want 1", bus.c2cTransfers.Count())
	}
	if lower.reads.Count() != reads {
		t.Error("memory read issued despite dirty peer supply")
	}
	if lower.writes.Count() == 0 {
		t.Error("dirty data never written back to memory")
	}
	// c2c supply must beat the 50ns memory path.
	if lat > 40*sim.Nanosecond {
		t.Errorf("c2c latency = %v, expected well under memory latency", lat)
	}
	if st := lineState(c0, 0); st != shared {
		t.Errorf("previous owner state = %d, want shared", st)
	}
}

func TestMESIRFOOnWriteMissWithDirtyPeer(t *testing.T) {
	e, c0, c1, bus, _ := coherentPair(t)
	c0.Access(Write, 0, 8, nil)
	e.RunAll()
	c1.Access(Write, 0, 8, nil)
	e.RunAll()
	if st := lineState(c1, 0); st != modified {
		t.Fatalf("new writer state = %d, want modified", st)
	}
	if st := lineState(c0, 0); st != invalid {
		t.Fatalf("old writer state = %d, want invalid", st)
	}
	if bus.c2cTransfers.Count() != 1 {
		t.Errorf("c2c transfers = %d, want 1 for dirty RFO", bus.c2cTransfers.Count())
	}
}

func TestMESISilentEToM(t *testing.T) {
	e, c0, _, bus, _ := coherentPair(t)
	c0.Access(Read, 0, 8, nil)
	e.RunAll()
	txns := bus.transactions.Count()
	c0.Access(Write, 0, 8, nil)
	e.RunAll()
	if bus.transactions.Count() != txns {
		t.Error("E→M transition generated bus traffic")
	}
	if st := lineState(c0, 0); st != modified {
		t.Fatalf("state = %d, want modified", st)
	}
}

// TestMESIInvariantProperty drives random reads/writes from two caches and
// checks the single-writer invariant afterwards for every touched line.
func TestMESIInvariantProperty(t *testing.T) {
	fn := func(ops []uint8) bool {
		e, c0, c1, _, _ := coherentPair(t)
		caches := [2]*Cache{c0, c1}
		touched := map[uint64]bool{}
		for _, op := range ops {
			who := int(op>>0) & 1
			isWrite := op&2 != 0
			addr := uint64(op>>2) * 64 // 64 distinct lines
			touched[addr] = true
			if isWrite {
				caches[who].Access(Write, addr, 8, nil)
			} else {
				caches[who].Access(Read, addr, 8, nil)
			}
			e.RunAll()
		}
		for addr := range touched {
			s0, s1 := lineState(c0, addr), lineState(c1, addr)
			// Single-writer: if either is M or E, the other must
			// be invalid.
			if (s0 == modified || s0 == exclusive) && s1 != invalid {
				return false
			}
			if (s1 == modified || s1 == exclusive) && s0 != invalid {
				return false
			}
		}
		return true
	}
	if err := quick.Check(fn, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestBusBandwidthSerializes(t *testing.T) {
	e := sim.NewEngine()
	lower := NewSimpleMemory(e, "mem", 0, 0, nil)
	// 64 bytes at 1 GB/s = 64ns occupancy per line.
	bus := NewBus(e, "bus", 0, 1e9, lower, nil)
	p := bus.Port(nil)
	var last sim.Time
	for i := 0; i < 4; i++ {
		p.Access(Read, uint64(i*64), 64, func() { last = e.Now() })
	}
	e.RunAll()
	if last < 250*sim.Nanosecond {
		t.Errorf("4 x 64B at 1GB/s finished at %v, want >= 256ns", last)
	}
	if bus.busyTime.Count() == 0 {
		t.Error("bus busy time not recorded")
	}
}

func TestBusCachelessMasterWrite(t *testing.T) {
	e, c0, _, bus, lower := coherentPair(t)
	c0.Access(Read, 0, 8, nil)
	e.RunAll()
	// A cache-less master (e.g. NIC DMA) writes the same line: the cache
	// copy must be invalidated and the write must reach memory.
	dma := bus.Port(nil)
	done := false
	dma.Access(Write, 0, 64, func() { done = true })
	e.RunAll()
	if !done {
		t.Fatal("DMA write never completed")
	}
	if st := lineState(c0, 0); st != invalid {
		t.Errorf("cached copy survived DMA write: state %d", st)
	}
	if lower.writes.Count() == 0 {
		t.Error("DMA write never reached memory")
	}
}

func TestDRAMDeviceAdapterSplit(t *testing.T) {
	e := sim.NewEngine()
	dmem := newDRAMForTest(t, e)
	dev := &DRAMDevice{Mem: dmem}
	done := false
	dev.Access(Read, 0x10, 256, func() { done = true })
	e.RunAll()
	if !done {
		t.Fatal("adapter access never completed")
	}
	// 0x10..0x10f spans 5 lines.
	if got := dmem.BytesTransferred(); got != 5*64 {
		t.Errorf("bytes = %d, want %d", got, 5*64)
	}
	// Posted write path.
	dev.Access(Write, 0, 64, nil)
	e.RunAll()
	if got := dmem.BytesTransferred(); got != 6*64 {
		t.Errorf("bytes after posted write = %d, want %d", got, 6*64)
	}
}

func TestCacheOverDRAMIntegration(t *testing.T) {
	// Full stack: cache -> bus -> DRAM. Streaming read twice: second
	// pass hits in cache, DRAM sees each line once.
	e := sim.NewEngine()
	dmem := newDRAMForTest(t, e)
	bus := NewBus(e, "bus", 2*sim.Nanosecond, 0, &DRAMDevice{Mem: dmem}, nil)
	cfg := testCfg("l2")
	cfg.SizeBytes = 8 << 10
	port := bus.Port(nil)
	c, err := NewCache(e, cfg, port, nil)
	if err != nil {
		t.Fatal(err)
	}
	port.cache = c
	for pass := 0; pass < 2; pass++ {
		for a := uint64(0); a < 4096; a += 64 {
			c.Access(Read, a, 8, nil)
		}
		e.RunAll()
	}
	if c.Misses() != 64 {
		t.Errorf("misses = %d, want 64", c.Misses())
	}
	if c.Hits() != 64 {
		t.Errorf("hits = %d, want 64", c.Hits())
	}
	if dmem.BytesTransferred() != 64*64 {
		t.Errorf("DRAM bytes = %d, want %d", dmem.BytesTransferred(), 64*64)
	}
}

// newDRAMForTest builds a DDR3-1333 dram.Memory for integration tests.
func newDRAMForTest(t testing.TB, e *sim.Engine) *dram.Memory {
	t.Helper()
	m, err := dram.New(e, "dram", dram.DDR3_1333, nil)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// TestLineSerializer: a transaction on a busy line queues and counts one
// conflict, queued bodies start in arrival order as each owner releases,
// other lines run at once, and the last release frees the line.
func TestLineSerializer(t *testing.T) {
	l := newLineSerializer(stats.NewRegistry().Scope("fabric"))
	var order []int
	l.acquire(0, func() { order = append(order, 1) })
	l.acquire(0, func() { order = append(order, 2) })
	l.acquire(0, func() { order = append(order, 3) })
	l.acquire(64, func() { order = append(order, 4) })
	if got := l.conflicts.Count(); got != 2 {
		t.Errorf("conflicts = %d, want 2", got)
	}
	l.release(0)
	l.release(0)
	l.release(0)
	l.release(64)
	if len(order) != 4 || order[0] != 1 || order[1] != 4 || order[2] != 2 || order[3] != 3 {
		t.Errorf("start order = %v, want [1 4 2 3]", order)
	}
	if len(l.pending) != 0 {
		t.Errorf("lines still owned after every release: %v", l.pending)
	}
}

// TestFabricsSerializeSameLine: two concurrent misses to one line queue
// the second behind the first on both coherence fabrics.
func TestFabricsSerializeSameLine(t *testing.T) {
	e, c0, c1, bus, _ := coherentPair(t)
	c0.Access(Read, 0, 8, nil)
	c1.Access(Read, 0, 8, nil)
	e.RunAll()
	if got := bus.conflicts.Count(); got != 1 || len(bus.pending) != 0 {
		t.Errorf("bus: conflicts = %d, owned lines %v; want 1 and none", got, bus.pending)
	}
	e, cs, dir, _ := dirPair(t, 2)
	cs[0].Access(Read, 0, 8, nil)
	cs[1].Access(Read, 0, 8, nil)
	e.RunAll()
	if got := dir.conflicts.Count(); got != 1 || len(dir.pending) != 0 {
		t.Errorf("directory: conflicts = %d, owned lines %v; want 1 and none", got, dir.pending)
	}
}
