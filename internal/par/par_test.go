package par

import (
	"fmt"
	"testing"

	"sst/internal/sim"
)

// pinger is a test component: it responds to each incoming integer with
// value+1 after a fixed think time, recording (time, value) pairs, until
// the value reaches its limit.
type pinger struct {
	name  string
	port  *sim.Port
	think sim.Time
	limit int
	log   []pingRec
}

type pingRec struct {
	t sim.Time
	v int
}

func newPinger(name string, port *sim.Port, think sim.Time, limit int) *pinger {
	p := &pinger{name: name, port: port, think: think, limit: limit}
	port.SetHandler(p.recv)
	return p
}

func (p *pinger) Name() string { return p.name }

func (p *pinger) recv(payload any) {
	v := payload.(int)
	// Record arrival against the engine time of whichever rank runs us;
	// links guarantee the timestamp.
	p.log = append(p.log, pingRec{v: v})
	if v >= p.limit {
		return
	}
	p.port.SendDelayed(p.think, v+1)
}

// buildRing constructs a ring of n pingers spread round-robin over the
// runner's ranks, kicks node 0, and returns the pingers.
func buildRing(t *testing.T, r *Runner, n, limit int, linkLat sim.Time) []*pinger {
	t.Helper()
	// Ring links: node i -> node i+1.
	type half struct{ a, b *sim.Port }
	halves := make([]half, n)
	for i := 0; i < n; i++ {
		ra := i % r.NumRanks()
		rb := (i + 1) % n % r.NumRanks()
		a, b, err := r.Connect(fmt.Sprintf("ring%d", i), linkLat, ra, rb)
		if err != nil {
			t.Fatal(err)
		}
		halves[i] = half{a, b}
	}
	// forwarder component: receives on the inbound port, sends on the
	// outbound port.
	pingers := make([]*pinger, n)
	for i := 0; i < n; i++ {
		in := halves[(i-1+n)%n].b
		out := halves[i].a
		fp := &forwardPinger{name: fmt.Sprintf("n%d", i), in: in, out: out, think: sim.Nanosecond, limit: limit}
		in.SetHandler(fp.recv)
		pingers[i] = nil
		r.Rank(i % r.NumRanks()).Add(fp)
		forwarders[fp.name] = fp
	}
	return pingers
}

// forwardPinger passes a counter around a ring.
type forwardPinger struct {
	name  string
	in    *sim.Port
	out   *sim.Port
	think sim.Time
	limit int
	log   []pingRec
}

func (f *forwardPinger) Name() string { return f.name }

func (f *forwardPinger) recv(payload any) {
	v := payload.(int)
	f.log = append(f.log, pingRec{v: v})
	if v >= f.limit {
		return
	}
	f.out.SendDelayed(f.think, v+1)
}

var forwarders map[string]*forwardPinger

// runRing runs a ring over the given rank count and returns per-node logs.
func runRing(t *testing.T, nranks, nodes, limit int) map[string][]pingRec {
	t.Helper()
	forwarders = map[string]*forwardPinger{}
	r, err := NewRunner(nranks)
	if err != nil {
		t.Fatal(err)
	}
	buildRing(t, r, nodes, limit, 10*sim.Nanosecond)
	// Kick: inject value 0 into node 0's inbound port via its upstream
	// link — send from node n-1's out port would double-count; instead
	// schedule a direct delivery.
	first := forwarders["n0"]
	r.Rank(0).Engine().Schedule(0, func(any) { first.recv(0) }, nil)
	if _, err := r.RunAll(); err != nil {
		t.Fatal(err)
	}
	out := map[string][]pingRec{}
	for name, f := range forwarders {
		out[name] = append([]pingRec(nil), f.log...)
	}
	return out
}

func TestRunnerValidation(t *testing.T) {
	if _, err := NewRunner(0); err == nil {
		t.Error("zero ranks accepted")
	}
	r, _ := NewRunner(2)
	if _, _, err := r.Connect("x", 0, 0, 1); err == nil {
		t.Error("zero-latency cross link accepted")
	}
	if _, _, err := r.Connect("x", sim.Nanosecond, 0, 5); err == nil {
		t.Error("invalid rank accepted")
	}
	if _, _, err := r.Connect("ok", 0, 1, 1); err != nil {
		t.Errorf("same-rank zero-latency link rejected: %v", err)
	}
	if r.Lookahead() != 0 {
		t.Error("lookahead nonzero with no cross links")
	}
	if _, _, err := r.Connect("c", 5*sim.Nanosecond, 0, 1); err != nil {
		t.Fatal(err)
	}
	if r.Lookahead() != 5*sim.Nanosecond {
		t.Errorf("lookahead = %v", r.Lookahead())
	}
}

func TestParallelMatchesSequential(t *testing.T) {
	seq := runRing(t, 1, 8, 200)
	for _, nranks := range []int{2, 4, 8} {
		par := runRing(t, nranks, 8, 200)
		if len(par) != len(seq) {
			t.Fatalf("nranks=%d: node count mismatch", nranks)
		}
		for name, want := range seq {
			got := par[name]
			if len(got) != len(want) {
				t.Fatalf("nranks=%d node %s: %d records vs %d", nranks, name, len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("nranks=%d node %s record %d: %+v vs %+v", nranks, name, i, got[i], want[i])
				}
			}
		}
	}
}

func TestParallelDeterminism(t *testing.T) {
	a := runRing(t, 4, 12, 500)
	b := runRing(t, 4, 12, 500)
	for name := range a {
		if len(a[name]) != len(b[name]) {
			t.Fatalf("node %s: nondeterministic record count", name)
		}
		for i := range a[name] {
			if a[name][i] != b[name][i] {
				t.Fatalf("node %s record %d differs between runs", name, i)
			}
		}
	}
}

func TestRunUntil(t *testing.T) {
	forwarders = map[string]*forwardPinger{}
	r, _ := NewRunner(2)
	buildRing(t, r, 4, 1_000_000, 10*sim.Nanosecond)
	first := forwarders["n0"]
	r.Rank(0).Engine().Schedule(0, func(any) { first.recv(0) }, nil)
	if _, err := r.Run(1 * sim.Microsecond); err != nil {
		t.Fatal(err)
	}
	if r.Now() < 1*sim.Microsecond {
		t.Fatalf("Now = %v, want >= 1us", r.Now())
	}
	// The ring must not have finished: each hop takes 11ns, the limit is
	// huge.
	total := 0
	for _, f := range forwarders {
		total += len(f.log)
	}
	if total == 0 || total > 200 {
		t.Fatalf("records after 1us = %d, want bounded progress", total)
	}
}

// TestRunZeroHandlesNothing: Run(0) is the empty window [0, 0) at any rank
// count, and the run continues from it as if it had not been called. Each
// rank drives itself with a 1ns tick from time 0 that interrupts the
// runner after a bounded count, so a window that wrongly runs on ends in
// a failure instead of a hang.
func TestRunZeroHandlesNothing(t *testing.T) {
	for _, nranks := range []int{1, 2} {
		r, _ := NewRunner(nranks)
		if nranks > 1 {
			a, b, err := r.Connect("x", sim.Nanosecond, 0, 1)
			if err != nil {
				t.Fatal(err)
			}
			a.SetHandler(func(any) {})
			b.SetHandler(func(any) {})
		}
		for i := range nranks {
			eng, ticks := r.Rank(i).Engine(), 0
			var tick func(any)
			tick = func(any) {
				if ticks++; ticks == 1000 {
					r.Interrupt()
					return
				}
				eng.Schedule(sim.Nanosecond, tick, nil)
			}
			eng.Schedule(0, tick, nil)
		}
		if n, err := r.Run(0); n != 0 || err != nil {
			t.Fatalf("ranks %d: Run(0) handled %d events (err %v), want 0", nranks, n, err)
		}
		if n, err := r.Run(5 * sim.Nanosecond); n != uint64(5*nranks) || err != nil {
			t.Fatalf("ranks %d: Run(5ns) after Run(0) handled %d events (err %v), want %d", nranks, n, err, 5*nranks)
		}
	}
}

func TestFastForwardSparseEvents(t *testing.T) {
	// Two ranks with a cross link (tiny lookahead) but one far-future
	// event: the runner must not crawl 1ns windows to reach it.
	r, _ := NewRunner(2)
	a, b, err := r.Connect("x", sim.Nanosecond, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	a.SetHandler(func(any) {})
	b.SetHandler(func(any) {})
	fired := false
	r.Rank(1).Engine().Schedule(10*sim.Millisecond, func(any) { fired = true }, nil)
	n, err := r.RunAll()
	if err != nil {
		t.Fatal(err)
	}
	if !fired || n != 1 {
		t.Fatalf("fired=%v handled=%d", fired, n)
	}
}

// sizedMsg is a payload with a wire size.
type sizedMsg int

func (m sizedMsg) PayloadBytes() int { return int(m) }

// TestCrossRankLinkTraffic: each rank counts its own side's sends on a
// cross-rank link, concurrently and without a lock (run it under -race).
func TestCrossRankLinkTraffic(t *testing.T) {
	r, _ := NewRunner(2)
	a, b, err := r.Connect("x", 10*sim.Nanosecond, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	var atA, atB int
	a.SetHandler(func(any) { atA++ })
	b.SetHandler(func(any) { atB++ })
	for i := range 100 {
		r.Rank(0).Engine().Schedule(sim.Time(i)*sim.Nanosecond, func(any) { a.Send(sizedMsg(10)) }, nil)
	}
	for i := range 50 {
		r.Rank(1).Engine().Schedule(sim.Time(i)*sim.Nanosecond, func(any) { b.Send(sizedMsg(3)) }, nil)
	}
	if _, err := r.RunAll(); err != nil {
		t.Fatal(err)
	}
	if atB != 100 || atA != 50 {
		t.Fatalf("delivered %d to b, %d to a; want 100, 50", atB, atA)
	}
	if msgs, bytes := a.Link().Traffic(); msgs != 150 || bytes != 1150 {
		t.Fatalf("Traffic = %d msgs, %d bytes; want 150, 1150", msgs, bytes)
	}
}

func TestIndependentRanksNoCrossLinks(t *testing.T) {
	r, _ := NewRunner(4)
	counts := make([]int, 4)
	for i := 0; i < 4; i++ {
		i := i
		eng := r.Rank(i).Engine()
		var h sim.Handler
		h = func(any) {
			counts[i]++
			if counts[i] < 1000 {
				eng.Schedule(sim.Nanosecond, h, nil)
			}
		}
		eng.Schedule(0, h, nil)
	}
	if _, err := r.RunAll(); err != nil {
		t.Fatal(err)
	}
	for i, c := range counts {
		if c != 1000 {
			t.Fatalf("rank %d ran %d events", i, c)
		}
	}
}

func TestFinishPropagates(t *testing.T) {
	r, _ := NewRunner(2)
	var log []string
	r.Rank(0).Add(&finComp{"a", &log})
	r.Rank(1).Add(&finComp{"b", &log})
	r.Finish()
	if len(log) != 2 {
		t.Fatalf("finish log = %v", log)
	}
}

type finComp struct {
	name string
	log  *[]string
}

func (f *finComp) Name() string { return f.name }
func (f *finComp) Finish()      { *f.log = append(*f.log, f.name) }

// heavyRank builds self-contained busy work on each rank plus cross-rank
// chatter, for the speedup benchmark.
func buildHeavy(b *testing.B, r *Runner, eventsPerRank int) {
	nr := r.NumRanks()
	for i := 0; i < nr; i++ {
		a, bp, err := r.Connect(fmt.Sprintf("c%d", i), 2*sim.Microsecond, i, (i+1)%nr)
		if err != nil && nr > 1 {
			b.Fatal(err)
		}
		if err == nil {
			a.SetHandler(func(any) {})
			bp.SetHandler(func(any) {})
		}
	}
	for i := 0; i < nr; i++ {
		eng := r.Rank(i).Engine()
		n := 0
		sink := 0.0
		var h sim.Handler
		h = func(any) {
			// Emulate model computation.
			for k := 0; k < 50; k++ {
				sink += float64(k) * 1.000001
			}
			n++
			if n < eventsPerRank {
				eng.Schedule(sim.Nanosecond, h, nil)
			}
		}
		eng.Schedule(0, h, nil)
	}
}

func BenchmarkParallelRanks1(b *testing.B) { benchRanks(b, 1) }
func BenchmarkParallelRanks2(b *testing.B) { benchRanks(b, 2) }
func BenchmarkParallelRanks4(b *testing.B) { benchRanks(b, 4) }
func BenchmarkParallelRanks8(b *testing.B) { benchRanks(b, 8) }

func benchRanks(b *testing.B, nranks int) {
	// Fixed total work, split across ranks: wall time should shrink with
	// rank count.
	const totalEvents = 80_000
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r, err := NewRunner(nranks)
		if err != nil {
			b.Fatal(err)
		}
		buildHeavy(b, r, totalEvents/nranks)
		if _, err := r.RunAll(); err != nil {
			b.Fatal(err)
		}
	}
}
