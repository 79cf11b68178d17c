package sim

import "testing"

func TestLinkDelivery(t *testing.T) {
	e := NewEngine()
	a, b := Connect(e, "l0", 5*Nanosecond)
	var arrived Time
	var got any
	b.SetHandler(func(p any) {
		arrived = e.Now()
		got = p
	})
	e.Schedule(10*Nanosecond, func(any) { a.Send("hello") }, nil)
	e.RunAll()
	if arrived != 15*Nanosecond {
		t.Fatalf("arrived at %v, want 15ns", arrived)
	}
	if got != "hello" {
		t.Fatalf("payload = %v", got)
	}
}

func TestLinkBidirectional(t *testing.T) {
	e := NewEngine()
	a, b := Connect(e, "l0", Nanosecond)
	var fromA, fromB int
	a.SetHandler(func(p any) { fromB = p.(int) })
	b.SetHandler(func(p any) { fromA = p.(int) })
	a.Send(1)
	b.Send(2)
	e.RunAll()
	if fromA != 1 || fromB != 2 {
		t.Fatalf("fromA=%d fromB=%d, want 1, 2", fromA, fromB)
	}
}

func TestLinkSendDelayed(t *testing.T) {
	e := NewEngine()
	a, b := Connect(e, "l0", 2*Nanosecond)
	var arrived []Time
	b.SetHandler(func(any) { arrived = append(arrived, e.Now()) })
	// Model serialization: 3 packets at 1ns spacing.
	for i := Time(0); i < 3; i++ {
		a.SendDelayed(i*Nanosecond, i)
	}
	e.RunAll()
	want := []Time{2 * Nanosecond, 3 * Nanosecond, 4 * Nanosecond}
	if len(arrived) != 3 {
		t.Fatalf("arrived = %v", arrived)
	}
	for i := range want {
		if arrived[i] != want[i] {
			t.Fatalf("arrived = %v, want %v", arrived, want)
		}
	}
}

// sized is a payload with a wire size.
type sized int

func (s sized) PayloadBytes() int { return int(s) }

func TestLinkTraffic(t *testing.T) {
	e := NewEngine()
	a, b := Connect(e, "l0", Nanosecond)
	a.SetHandler(func(any) {})
	b.SetHandler(func(any) {})
	a.Send(sized(100))
	a.Send("unsized")
	b.SendDelayed(Nanosecond, sized(7))
	e.RunAll()
	if msgs, bytes := a.Link().Traffic(); msgs != 3 || bytes != 107 {
		t.Fatalf("Traffic = %d msgs, %d bytes; want 3, 107", msgs, bytes)
	}
}

// TestLinkTrafficLeavesHeapEmpty: counting a link's traffic does not move
// its sends off the port's lane onto the event heap.
func TestLinkTrafficLeavesHeapEmpty(t *testing.T) {
	e := NewEngine()
	a, b := Connect(e, "l0", Nanosecond)
	got := 0
	b.SetHandler(func(any) { got++ })
	for i := range 8 {
		a.SendDelayed(Time(i)*Nanosecond, sized(4))
	}
	if e.q.Len() != 0 || e.laneN != 8 {
		t.Fatalf("after 8 sends: %d events on the heap, %d on lanes; want 0, 8", e.q.Len(), e.laneN)
	}
	e.RunAll()
	if msgs, bytes := a.Link().Traffic(); got != 8 || msgs != 8 || bytes != 32 {
		t.Fatalf("delivered %d, Traffic = %d msgs, %d bytes; want 8, 8, 32", got, msgs, bytes)
	}
}

func TestLinkUnconnectedPanics(t *testing.T) {
	p := &Port{name: "orphan"}
	defer func() {
		if recover() == nil {
			t.Fatal("send on unconnected port did not panic")
		}
	}()
	p.Send(nil)
}

func TestLinkNoHandlerPanics(t *testing.T) {
	e := NewEngine()
	a, _ := Connect(e, "l0", Nanosecond)
	defer func() {
		if recover() == nil {
			t.Fatal("send to handler-less port did not panic")
		}
	}()
	a.Send(nil)
}

func TestLinkCustomDeliver(t *testing.T) {
	e := NewEngine()
	a, _ := Connect(e, "l0", 7*Nanosecond)
	var gotDelay Time
	var gotPayload any
	a.link.SetDeliver(func(from *Port, delay Time, payload any) {
		if from != a {
			t.Errorf("deliver from wrong port %q", from.Name())
		}
		gotDelay, gotPayload = delay, payload
	})
	a.SendDelayed(3*Nanosecond, "x")
	if gotDelay != 10*Nanosecond || gotPayload != "x" {
		t.Fatalf("deliver got (%v, %v), want (10ns, x)", gotDelay, gotPayload)
	}
}

func TestSimulationDuplicateNamePanics(t *testing.T) {
	s := New()
	s.Add(named("a"))
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate Add did not panic")
		}
	}()
	s.Add(named("a"))
}

type named string

func (n named) Name() string { return string(n) }

type finisher struct {
	name string
	log  *[]string
}

func (f *finisher) Name() string { return f.name }
func (f *finisher) Finish()      { *f.log = append(*f.log, f.name) }

func TestSimulationFinishOrder(t *testing.T) {
	s := New()
	var log []string
	s.Add(&finisher{"z", &log})
	s.Add(&finisher{"a", &log})
	s.Add(named("plain")) // no Finisher: skipped
	s.Finish()
	if len(log) != 2 || log[0] != "z" || log[1] != "a" {
		t.Fatalf("finish order = %v, want [z a] (insertion order)", log)
	}
}

func TestSimulationComponentsSorted(t *testing.T) {
	s := New()
	s.Add(named("b"))
	s.Add(named("a"))
	cs := s.Components()
	if len(cs) != 2 || cs[0].Name() != "a" || cs[1].Name() != "b" {
		t.Fatalf("Components() not sorted: %v", cs)
	}
	// The sorted slice is cached between Adds and invalidated by Add.
	if &cs[0] != &s.Components()[0] {
		t.Error("repeated Components() call re-sorted instead of using the cache")
	}
	s.Add(named("c"))
	cs = s.Components()
	if len(cs) != 3 || cs[0].Name() != "a" || cs[2].Name() != "c" {
		t.Fatalf("Components() stale after Add: %v", cs)
	}
}

func TestRNGDeterminism(t *testing.T) {
	a, b := NewRNG(42), NewRNG(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same-seed RNGs diverged")
		}
	}
	c := NewRNG(43)
	same := 0
	for i := 0; i < 64; i++ {
		if a.Uint64() == c.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("different-seed RNGs matched %d/64 draws", same)
	}
}

func TestRNGUniformity(t *testing.T) {
	r := NewRNG(7)
	const buckets, draws = 16, 160000
	var hist [buckets]int
	for i := 0; i < draws; i++ {
		hist[r.Intn(buckets)]++
	}
	for i, h := range hist {
		if h < draws/buckets*8/10 || h > draws/buckets*12/10 {
			t.Fatalf("bucket %d has %d draws, expected ~%d", i, h, draws/buckets)
		}
	}
}

func TestRNGFloat64Range(t *testing.T) {
	r := NewRNG(9)
	for i := 0; i < 10000; i++ {
		v := r.Float64()
		if v < 0 || v >= 1 {
			t.Fatalf("Float64 out of range: %v", v)
		}
	}
}

func TestRNGUint64nBounds(t *testing.T) {
	r := NewRNG(11)
	for _, n := range []uint64{1, 2, 3, 7, 8, 1000, 1 << 40} {
		for i := 0; i < 1000; i++ {
			if v := r.Uint64n(n); v >= n {
				t.Fatalf("Uint64n(%d) = %d", n, v)
			}
		}
	}
}

func TestRNGExpMean(t *testing.T) {
	r := NewRNG(13)
	sum := 0.0
	const n = 200000
	for i := 0; i < n; i++ {
		sum += r.Exp(10)
	}
	mean := sum / n
	if mean < 9.5 || mean > 10.5 {
		t.Fatalf("Exp(10) sample mean = %v", mean)
	}
}

func TestRNGSplitIndependent(t *testing.T) {
	parent := NewRNG(1)
	child := parent.Split()
	same := 0
	for i := 0; i < 64; i++ {
		if parent.Uint64() == child.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("split stream correlated: %d/64 matches", same)
	}
}
