package mem

import (
	"testing"

	"sst/internal/sim"
)

// TestMSHRFileMatchesMap drives the flat MSHR file and a map with the same
// seeded stream of find, add and remove, and requires every find to agree
// and every entry's slot to index its own tag.
func TestMSHRFileMatchesMap(t *testing.T) {
	rng := sim.NewRNG(7)
	for _, capacity := range []int{1, 2, 8, 32} {
		f := newMSHRFile(capacity)
		ref := map[uint64]*mshr{}
		for step := 0; step < 20000; step++ {
			tag := rng.Uint64() % uint64(3*capacity) // collisions are the point
			got, want := f.find(tag), ref[tag]
			if got != want {
				t.Fatalf("cap %d step %d: find(%d) = %p, map has %p", capacity, step, tag, got, want)
			}
			switch {
			case want == nil && len(ref) < capacity:
				m := &mshr{tag: tag}
				f.add(m)
				ref[tag] = m
			case want != nil && rng.Intn(2) == 0:
				f.remove(want)
				delete(ref, tag)
			}
			if f.len() != len(ref) {
				t.Fatalf("cap %d step %d: file holds %d, map %d", capacity, step, f.len(), len(ref))
			}
			for i, m := range f.ms {
				if m.slot != i || f.tags[i] != m.tag || ref[m.tag] != m {
					t.Fatalf("cap %d step %d: slot %d holds tag %d (mshr slot %d, tag %d)", capacity, step, i, f.tags[i], m.slot, m.tag)
				}
			}
		}
	}
}

// TestCacheMSHRStallCoalesceDrain runs a cache whose MSHR file fills, with
// accesses that coalesce onto outstanding fills both before and after the
// stall queue forms, and checks the conservation the miss path owes: every
// access answered exactly once, one fill per distinct line, an empty MSHR
// file and stall queue at the end, and no retired callback left pinned in
// the queue's backing array.
func TestCacheMSHRStallCoalesceDrain(t *testing.T) {
	cfg := testCfg("l1")
	cfg.MSHRs = 2
	cfg.SizeBytes = 16 << 10
	e, c, lower := newCache(t, cfg, 100*sim.Nanosecond)
	answered := map[int]int{}
	lines := map[uint64]bool{}
	id := 0
	access := func(addr uint64) {
		k := id
		id++
		lines[addr&^63] = true
		c.Access(Read, addr, 8, func() { answered[k]++ })
	}
	for round := 0; round < 3; round++ {
		for i := uint64(0); i < 6; i++ {
			access(i*4096 + uint64(round)*64)
			access(i*4096 + uint64(round)*64 + 8) // coalesces, or stalls behind its twin
		}
		e.Run(e.Now() + 50*sim.Nanosecond) // drain part-way: new stalls join a non-empty queue
	}
	e.RunAll()
	for k := 0; k < id; k++ {
		if answered[k] != 1 {
			t.Fatalf("access %d answered %d times, want 1", k, answered[k])
		}
	}
	if got, want := lower.reads.Count(), uint64(len(lines)); got != want {
		t.Errorf("fills = %d, want %d (one per distinct line)", got, want)
	}
	if c.mshrStalls.Count() == 0 || c.secondaryMisses.Count() == 0 {
		t.Fatalf("stalls %d, secondary misses %d: the scenario must exercise both",
			c.mshrStalls.Count(), c.secondaryMisses.Count())
	}
	if c.mshrs.len() != 0 || len(c.stalls) != c.stallHead {
		t.Fatalf("after drain: %d MSHRs outstanding, %d stalls queued", c.mshrs.len(), len(c.stalls)-c.stallHead)
	}
	for i, s := range c.stalls[:cap(c.stalls)] {
		if s.done != nil {
			t.Fatalf("stall slot %d still holds a retired callback", i)
		}
	}
}

// TestCacheHugeMSHRCount checks that an MSHR count from a config is not an
// allocation size: a file of 1<<40 MSHRs builds and serves misses.
func TestCacheHugeMSHRCount(t *testing.T) {
	cfg := testCfg("l1")
	cfg.MSHRs = 1 << 40
	e, c, _ := newCache(t, cfg, 100*sim.Nanosecond)
	done := 0
	for i := 0; i < 100; i++ {
		c.Access(Read, uint64(i)*4096, 8, func() { done++ })
	}
	e.RunAll()
	if done != 100 || c.mshrStalls.Count() != 0 {
		t.Fatalf("completions %d, stalls %d: want 100 misses in flight at once, no stalls", done, c.mshrStalls.Count())
	}
}
