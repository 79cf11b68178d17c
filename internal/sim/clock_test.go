package sim

import "testing"

func TestClockTicks(t *testing.T) {
	e := NewEngine()
	c := NewClock(e, 1*GHz)
	var cycles []Cycle
	c.Register(func(n Cycle) bool {
		cycles = append(cycles, n)
		return n < 4 // run cycles 0..4, then deregister
	})
	e.RunAll()
	if len(cycles) != 5 {
		t.Fatalf("got %d ticks, want 5: %v", len(cycles), cycles)
	}
	for i, n := range cycles {
		if n != Cycle(i) {
			t.Fatalf("tick %d has cycle %d", i, n)
		}
	}
	if e.Now() != 4*Nanosecond {
		t.Errorf("Now = %v, want 4ns", e.Now())
	}
}

func TestClockSharedHandlersOrder(t *testing.T) {
	e := NewEngine()
	c := NewClock(e, 2*GHz)
	var order []string
	c.Register(func(n Cycle) bool {
		order = append(order, "a")
		return n < 1
	})
	c.Register(func(n Cycle) bool {
		order = append(order, "b")
		return n < 1
	})
	e.RunAll()
	want := []string{"a", "b", "a", "b"}
	if len(order) != len(want) {
		t.Fatalf("order = %v, want %v", order, want)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

func TestClockReregisterAfterStall(t *testing.T) {
	e := NewEngine()
	c := NewClock(e, 1*GHz)
	var resumed Cycle
	// Tick once at cycle 0, then stall for 10ns, then resume.
	c.Register(func(n Cycle) bool {
		e.Schedule(10*Nanosecond, func(any) {
			c.Register(func(n Cycle) bool {
				if resumed == 0 {
					resumed = n
				}
				return false
			})
		}, nil)
		return false
	})
	e.RunAll()
	// Stall began at t=0 tick; wake event at t=10ns, so the resume tick
	// is cycle 10 or 11 depending on boundary alignment (10ns == cycle 10
	// boundary exactly, and the wake event runs at link priority after
	// the clock edge, so the next available tick is cycle 11... unless
	// the clock is dormant and re-arms at the same timestamp).
	if resumed != 10 && resumed != 11 {
		t.Fatalf("resumed at cycle %d, want 10 or 11", resumed)
	}
	// The clock must not have ticked during the stall window: engine
	// should have handled only a handful of events, not 10+.
	if e.Handled() > 6 {
		t.Errorf("engine handled %d events; clock appears to have spun during stall", e.Handled())
	}
}

func TestClockDormantCostsNothing(t *testing.T) {
	e := NewEngine()
	c := NewClock(e, 1*GHz)
	c.Register(func(n Cycle) bool { return false }) // one tick, then dormant
	e.Schedule(1*Millisecond, func(any) {}, nil)
	handled := e.RunAll()
	// 1 tick + 1 event; a spinning clock would be ~1e6 events.
	if handled != 2 {
		t.Fatalf("handled %d events, want 2", handled)
	}
	_ = c
}

func TestClockRegisterDuringTick(t *testing.T) {
	e := NewEngine()
	c := NewClock(e, 1*GHz)
	var second []Cycle
	c.Register(func(n Cycle) bool {
		if n == 0 {
			c.Register(func(m Cycle) bool {
				second = append(second, m)
				return m < 2
			})
		}
		return n < 2
	})
	e.RunAll()
	if len(second) == 0 || second[0] != 1 {
		t.Fatalf("handler registered during tick first ran at %v, want cycle 1", second)
	}
}

func TestClockNonIntegralPeriodNoDrift(t *testing.T) {
	e := NewEngine()
	c := NewClock(e, 3*GHz) // 333.33ps period
	var last Time
	var count int
	c.Register(func(n Cycle) bool {
		last = e.Now()
		count++
		return n < 2_999 // 3000 ticks
	})
	e.RunAll()
	if count != 3000 {
		t.Fatalf("count = %d, want 3000", count)
	}
	// Cycle 2999 at 3GHz = 2999 * 1000/3 ps = 999666.33 -> 999666 ps.
	if last != 999_666 {
		t.Fatalf("cycle 2999 at %v ps, want 999666 (exact, no drift)", uint64(last))
	}
}

func TestClockZeroFreqPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewClock(0) did not panic")
		}
	}()
	NewClock(NewEngine(), 0)
}

func TestSimulationSharedClocks(t *testing.T) {
	s := New()
	c1 := s.Clock(2 * GHz)
	c2 := s.Clock(2 * GHz)
	if c1 != c2 {
		t.Fatal("same-frequency clocks not shared")
	}
	if s.Clock(1*GHz) == c1 {
		t.Fatal("different-frequency clocks aliased")
	}
}

func BenchmarkClockTick(b *testing.B) {
	e := NewEngine()
	c := NewClock(e, 1*GHz)
	n := 0
	c.Register(func(Cycle) bool {
		n++
		return n < b.N
	})
	b.ResetTimer()
	b.ReportAllocs()
	e.RunAll()
}

func BenchmarkClockTick8Handlers(b *testing.B) {
	e := NewEngine()
	c := NewClock(e, 1*GHz)
	n := 0
	for i := 0; i < 8; i++ {
		c.Register(func(Cycle) bool {
			n++
			return n < b.N
		})
	}
	b.ResetTimer()
	b.ReportAllocs()
	e.RunAll()
}

// BenchmarkClockTickWithHeap is the clock lane's merge under load: one clock
// ticking against a steady 16 pending aperiodic events (the queue depth the
// sweep profile shows), each rescheduling itself, so every dispatch compares
// the lane's tick with a non-trivial heap top. About 0.7 aperiodic events
// dispatch per tick; ns/op is per tick.
func BenchmarkClockTickWithHeap(b *testing.B) {
	e := NewEngine()
	c := NewClock(e, 1*GHz)
	n := 0
	c.Register(func(Cycle) bool {
		n++
		return n < b.N
	})
	for i := 0; i < 16; i++ {
		d := Time(16+i) * Nanosecond
		var h Handler
		h = func(any) {
			if n < b.N {
				e.Schedule(d, h, nil)
			}
		}
		e.Schedule(d, h, nil)
	}
	b.ResetTimer()
	b.ReportAllocs()
	e.RunAll()
}
