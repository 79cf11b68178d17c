package mem

import (
	"testing"
	"testing/quick"

	"sst/internal/sim"
	"sst/internal/stats"
)

// dirPair builds two L1 caches over a directory over a simple memory.
func dirPair(t testing.TB, n int) (*sim.Engine, []*Cache, *Directory, *SimpleMemory) {
	t.Helper()
	e := sim.NewEngine()
	reg := stats.NewRegistry()
	lower := NewSimpleMemory(e, "mem", 50*sim.Nanosecond, 0, reg.Scope("mem"))
	dir := NewDirectory(e, "dir", 5*sim.Nanosecond, lower, reg.Scope("dir"))
	caches := make([]*Cache, n)
	for i := 0; i < n; i++ {
		port := dir.Port(nil)
		c, err := NewCache(e, testCfg(scName(i)), port, reg.Scope(scName(i)))
		if err != nil {
			t.Fatal(err)
		}
		port.AttachCache(c)
		caches[i] = c
	}
	return e, caches, dir, lower
}

func scName(i int) string {
	return "c" + string(rune('0'+i))
}

func TestDirectoryExclusiveFill(t *testing.T) {
	e, cs, _, _ := dirPair(t, 2)
	cs[0].Access(Read, 0, 8, nil)
	e.RunAll()
	if st := lineState(cs[0], 0); st != exclusive {
		t.Fatalf("lone reader state = %d, want exclusive", st)
	}
}

func TestDirectorySharedFillAndDowngrade(t *testing.T) {
	e, cs, dir, _ := dirPair(t, 2)
	cs[0].Access(Read, 0, 8, nil)
	e.RunAll()
	cs[1].Access(Read, 0, 8, nil)
	e.RunAll()
	if st := lineState(cs[0], 0); st != shared {
		t.Fatalf("owner not downgraded: %d", st)
	}
	if st := lineState(cs[1], 0); st != shared {
		t.Fatalf("second reader state = %d", st)
	}
	if dir.forwards.Count() != 1 {
		t.Errorf("forwards = %d, want 1 (owner supplied)", dir.forwards.Count())
	}
}

func TestDirectoryWriteInvalidatesExactSharers(t *testing.T) {
	e, cs, dir, _ := dirPair(t, 4)
	// Caches 0 and 1 share; 2 and 3 never touch the line.
	cs[0].Access(Read, 0, 8, nil)
	e.RunAll()
	cs[1].Access(Read, 0, 8, nil)
	e.RunAll()
	snoops := dir.snoopsSent.Count()
	cs[0].Access(Write, 0, 8, nil)
	e.RunAll()
	if st := lineState(cs[0], 0); st != modified {
		t.Fatalf("writer state = %d", st)
	}
	if st := lineState(cs[1], 0); st != invalid {
		t.Fatalf("sharer not invalidated: %d", st)
	}
	// Exactly one snoop (to cache 1); caches 2/3 must not be bothered.
	if got := dir.snoopsSent.Count() - snoops; got != 1 {
		t.Errorf("upgrade sent %d snoops, want 1 (exact sharer set)", got)
	}
}

func TestDirectoryDirtyForward(t *testing.T) {
	e, cs, dir, lower := dirPair(t, 2)
	cs[0].Access(Write, 0, 8, nil)
	e.RunAll()
	reads := lower.reads.Count()
	cs[1].Access(Read, 0, 8, nil)
	e.RunAll()
	if lower.reads.Count() != reads {
		t.Error("memory read despite dirty owner forward")
	}
	if lower.writes.Count() == 0 {
		t.Error("dirty data never written back")
	}
	if st := lineState(cs[0], 0); st != shared {
		t.Errorf("old owner state = %d, want shared", st)
	}
	if dir.forwards.Count() == 0 {
		t.Error("no forward recorded")
	}
}

func TestDirectoryRFOWithDirtyOwner(t *testing.T) {
	e, cs, _, _ := dirPair(t, 2)
	cs[0].Access(Write, 0, 8, nil)
	e.RunAll()
	cs[1].Access(Write, 0, 8, nil)
	e.RunAll()
	if st := lineState(cs[1], 0); st != modified {
		t.Fatalf("new writer state = %d", st)
	}
	if st := lineState(cs[0], 0); st != invalid {
		t.Fatalf("old owner state = %d", st)
	}
}

func TestDirectorySilentEvictionTolerated(t *testing.T) {
	e, cs, _, _ := dirPair(t, 2)
	// Fill, then force a clean eviction via conflicting sets (stride 512
	// on the 8-set test cache), then have the peer write: the directory
	// still lists cache 0 as owner and snoops it; snoopInvalidate finds
	// nothing, which must be harmless.
	cs[0].Access(Read, 0, 8, nil)
	e.RunAll()
	cs[0].Access(Read, 512, 8, nil)
	cs[0].Access(Read, 1024, 8, nil) // evicts line 0 (2-way set)
	e.RunAll()
	cs[1].Access(Write, 0, 8, nil)
	e.RunAll()
	if st := lineState(cs[1], 0); st != modified {
		t.Fatalf("writer state = %d after silent eviction", st)
	}
}

// TestDirectoryInvariantProperty mirrors the bus MESI property test.
func TestDirectoryInvariantProperty(t *testing.T) {
	fn := func(ops []uint8) bool {
		e, cs, _, _ := dirPair(t, 3)
		touched := map[uint64]bool{}
		for _, op := range ops {
			who := int(op) % 3
			isWrite := op&4 != 0
			addr := uint64(op>>3) * 64
			touched[addr] = true
			if isWrite {
				cs[who].Access(Write, addr, 8, nil)
			} else {
				cs[who].Access(Read, addr, 8, nil)
			}
			e.RunAll()
		}
		for addr := range touched {
			excl, sh := 0, 0
			for _, c := range cs {
				switch lineState(c, addr) {
				case modified, exclusive:
					excl++
				case shared:
					sh++
				}
			}
			if excl > 1 || (excl == 1 && sh > 0) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(fn, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// TestDirectoryScalesSnoops is the headline contrast with the bus: with
// private (unshared) working sets, the bus snoops every peer on every miss
// while the directory snoops nobody.
func TestDirectoryScalesSnoops(t *testing.T) {
	const cores = 8
	// Directory version.
	e, cs, dir, _ := dirPair(t, cores)
	for i, c := range cs {
		base := uint64(i) << 20 // disjoint regions
		for a := uint64(0); a < 4096; a += 64 {
			c.Access(Read, base+a, 8, nil)
		}
	}
	e.RunAll()
	if got := dir.snoopsSent.Count(); got != 0 {
		t.Errorf("directory sent %d snoops on private data, want 0", got)
	}

	// Bus version of the same traffic for comparison.
	e2 := sim.NewEngine()
	lower := NewSimpleMemory(e2, "mem", 50*sim.Nanosecond, 0, nil)
	bus := NewBus(e2, "bus", 5*sim.Nanosecond, 0, lower, nil)
	var busCaches []*Cache
	for i := 0; i < cores; i++ {
		port := bus.Port(nil)
		c, err := NewCache(e2, testCfg(scName(i)), port, nil)
		if err != nil {
			t.Fatal(err)
		}
		port.AttachCache(c)
		busCaches = append(busCaches, c)
	}
	for i, c := range busCaches {
		base := uint64(i) << 20
		for a := uint64(0); a < 4096; a += 64 {
			c.Access(Read, base+a, 8, nil)
		}
	}
	e2.RunAll()
	// The bus has no snoop counter per se; its transactions each visit
	// all peers. The contrast metric: every bus fill was a broadcast.
	if bus.transactions.Count() == 0 {
		t.Fatal("bus saw no traffic")
	}
}

func TestDirectoryCachelessMaster(t *testing.T) {
	e, cs, dir, lower := dirPair(t, 2)
	cs[0].Access(Read, 0, 8, nil)
	e.RunAll()
	dma := dir.Port(nil)
	done := false
	dma.Access(Write, 0, 64, func() { done = true })
	e.RunAll()
	if !done {
		t.Fatal("DMA write never completed")
	}
	if st := lineState(cs[0], 0); st != invalid {
		t.Errorf("cached copy survived DMA write: %d", st)
	}
	if lower.writes.Count() == 0 {
		t.Error("DMA write never reached memory")
	}
	// DMA read path.
	ok := false
	dma.Access(Read, 128, 64, func() { ok = true })
	e.RunAll()
	if !ok {
		t.Fatal("DMA read never completed")
	}
}

func TestDirectoryConcurrentSameLineSerialized(t *testing.T) {
	e, cs, _, _ := dirPair(t, 2)
	cs[0].Access(Read, 0, 8, nil)
	cs[1].Access(Read, 0, 8, nil)
	e.RunAll()
	s0, s1 := lineState(cs[0], 0), lineState(cs[1], 0)
	if (s0 == exclusive || s0 == modified) && s1 != invalid {
		t.Fatalf("concurrent fills broke single-writer: %d/%d", s0, s1)
	}
	if (s1 == exclusive || s1 == modified) && s0 != invalid {
		t.Fatalf("concurrent fills broke single-writer: %d/%d", s0, s1)
	}
}
