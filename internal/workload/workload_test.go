package workload

import (
	"runtime"
	"testing"

	"sst/internal/frontend"
	"sst/internal/mem"
	"sst/internal/noc"
	"sst/internal/sim"
)

// drain consumes a kernel's stream, returning per-class counts.
func drain(t *testing.T, k *Kernel) map[frontend.Class]uint64 {
	t.Helper()
	s := k.Stream()
	defer s.Close()
	counts := map[frontend.Class]uint64{}
	var op frontend.Op
	for s.Next(&op) {
		counts[op.Class]++
		if op.Class == frontend.ClassLoad || op.Class == frontend.ClassStore {
			if op.Size == 0 {
				t.Fatalf("%s: memory op with zero size", k.Name)
			}
		}
	}
	return counts
}

func TestHPCCGOpCensus(t *testing.T) {
	k := HPCCG(4, 1)
	c := drain(t, k)
	rows := uint64(4 * 4 * 4)
	// SpMV loads: 54 per row; dots: 3 loads per row; axpys: 6 loads.
	wantLoads := rows * (54 + 3 + 6)
	if c[frontend.ClassLoad] != wantLoads {
		t.Errorf("loads = %d, want %d", c[frontend.ClassLoad], wantLoads)
	}
	// Stores: 1 (SpMV) + 3 (axpys) per row.
	if c[frontend.ClassStore] != rows*4 {
		t.Errorf("stores = %d, want %d", c[frontend.ClassStore], rows*4)
	}
	if c[frontend.ClassFloat] == 0 {
		t.Error("no flops")
	}
	if k.Flops == 0 || k.Bytes == 0 {
		t.Error("intensity not positive")
	}
}

func TestHPCCGGatherLocality(t *testing.T) {
	// Neighbor gathers must stay within the x-vector region and hit 27
	// distinct-or-clamped cells around each row.
	k := HPCCG(3, 1)
	s := k.Stream()
	defer s.Close()
	var op frontend.Op
	for s.Next(&op) {
		if op.Class != frontend.ClassLoad {
			continue
		}
		if op.Addr >= baseP && op.Addr < baseP+27*8*27 {
			// Gather region for the small grid: fine.
			continue
		}
	}
}

func TestKernelsProduceBoundedStreams(t *testing.T) {
	kernels := []*Kernel{
		HPCCG(3, 1),
		Lulesh(64, 2),
		Stencil(6, 2),
		STREAMTriad(128, 2),
		GUPS(1<<20, 100, 1),
		FEA(32, 2),
	}
	for _, k := range kernels {
		c := drain(t, k)
		total := uint64(0)
		for _, v := range c {
			total += v
		}
		if total == 0 {
			t.Errorf("%s: empty stream", k.Name)
		}
	}
}

func TestStencilAddressesInBounds(t *testing.T) {
	k := Stencil(5, 1)
	s := k.Stream()
	defer s.Close()
	cells := uint64(5 * 5 * 5)
	var op frontend.Op
	for s.Next(&op) {
		if op.Class == frontend.ClassLoad {
			if op.Addr < baseX || op.Addr >= baseY+cells*8 {
				t.Fatalf("stencil load at %#x out of region", op.Addr)
			}
		}
	}
}

func TestGUPSDependentChain(t *testing.T) {
	k := GUPS(1<<20, 50, 7)
	s := k.Stream()
	defer s.Close()
	var op frontend.Op
	loads := 0
	for s.Next(&op) {
		if op.Class == frontend.ClassLoad {
			loads++
			if op.Dst != 1 || op.Src1 != 1 {
				t.Fatal("GUPS load not chained through r1")
			}
		}
	}
	if loads != 50 {
		t.Fatalf("loads = %d", loads)
	}
}

func TestFEASmallWorkingSet(t *testing.T) {
	k := FEA(100, 1)
	s := k.Stream()
	defer s.Close()
	var op frontend.Op
	for s.Next(&op) {
		if op.Class == frontend.ClassLoad || op.Class == frontend.ClassStore {
			if op.Addr < baseX || op.Addr >= baseX+(16<<10) {
				t.Fatalf("FEA access at %#x escapes the cache-resident set", op.Addr)
			}
		}
	}
}

func TestFlopChainILPBounds(t *testing.T) {
	ks := frontend.NewKernelStream(func(e *frontend.Emitter) {
		flopChain(e, 100, 4)
	})
	defer ks.Close()
	var op frontend.Op
	regs := map[uint8]bool{}
	for ks.Next(&op) {
		if op.Class != frontend.ClassFloat || op.Dst != op.Src1 || op.Dst == 0 {
			t.Fatal("flopChain op malformed")
		}
		regs[op.Dst] = true
	}
	if len(regs) != 4 {
		t.Fatalf("accumulators = %d, want 4", len(regs))
	}
}

// --- skeleton app tests ---

func newRing(t testing.TB, n int, cfg noc.NetConfig) (*sim.Engine, *noc.Network) {
	t.Helper()
	topo, err := noc.NewTorus3D(n, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	e := sim.NewEngine()
	net, err := noc.NewNetwork(e, "net", topo, cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	return e, net
}

// newApp wires scripts[i] to node i of a single-engine network.
func newApp(e *sim.Engine, name string, net *noc.Network, scripts []*Script) (*App, error) {
	ports := make([]MessagePort, len(scripts))
	for i := range ports {
		ports[i] = net.NIC(i)
	}
	return NewAppOnPorts(e, name, ports, scripts)
}

func TestScriptPingPong(t *testing.T) {
	e, net := newRing(t, 2, noc.DefaultConfig())
	s0, s1 := &Script{}, &Script{}
	const rounds = 5
	for i := 0; i < rounds; i++ {
		s0.Send(1, 1024)
		s0.Recv(1)
		s1.Recv(0)
		s1.Send(0, 1024)
	}
	app, err := newApp(e, "pingpong", net, []*Script{s0, s1})
	if err != nil {
		t.Fatal(err)
	}
	done := false
	app.Start(func() { done = true })
	e.RunAll()
	if !done || !app.Done() {
		t.Fatal("ping-pong never completed (recv matching broken?)")
	}
	if app.Elapsed() == 0 {
		t.Fatal("elapsed time zero")
	}
}

func TestScriptComputeOnly(t *testing.T) {
	e, net := newRing(t, 2, noc.DefaultConfig())
	s := &Script{}
	s.Compute(5 * sim.Microsecond)
	s.Compute(5 * sim.Microsecond)
	app, _ := newApp(e, "compute", net, []*Script{s})
	app.Start(nil)
	e.RunAll()
	if !app.Done() {
		t.Fatal("not done")
	}
	if app.Elapsed() != 10*sim.Microsecond {
		t.Fatalf("elapsed = %v, want 10us", app.Elapsed())
	}
}

func TestAllReduceCompletes(t *testing.T) {
	for _, n := range []int{2, 3, 4, 7, 8} {
		e, net := newRing(t, n, noc.DefaultConfig())
		scripts := make([]*Script, n)
		for r := 0; r < n; r++ {
			s := &Script{}
			s.AllReduce(r, n, 64)
			s.AllReduce(r, n, 8) // a barrier
			scripts[r] = s
		}
		app, err := newApp(e, "allreduce", net, scripts)
		if err != nil {
			t.Fatal(err)
		}
		app.Start(nil)
		e.RunAll()
		if !app.Done() {
			t.Fatalf("all-reduce deadlocked at n=%d", n)
		}
	}
}

func TestRecvBeforeSendArrival(t *testing.T) {
	// Rank 1 posts its recv long before rank 0 sends: blocking recv must
	// wake on delivery.
	e, net := newRing(t, 2, noc.DefaultConfig())
	s0, s1 := &Script{}, &Script{}
	s0.Compute(1 * sim.Millisecond)
	s0.Send(1, 64)
	s1.Recv(0)
	app, _ := newApp(e, "latersend", net, []*Script{s0, s1})
	app.Start(nil)
	e.RunAll()
	if !app.Done() {
		t.Fatal("blocked recv never woke")
	}
	if app.MaxWaitTime() < sim.Millisecond/2 {
		t.Errorf("wait time = %v, want ~1ms", app.MaxWaitTime())
	}
}

func TestCommProfilesComplete(t *testing.T) {
	for _, p := range []CommProfile{CTHProfile, SAGEProfile, CharonProfile, XNOBELProfile} {
		p.Steps = 2 // shrink for the unit test
		const n = 8
		e, net := newRing(t, n, noc.DefaultConfig())
		app, err := newApp(e, p.Name, net, p.Scripts(n))
		if err != nil {
			t.Fatal(err)
		}
		app.Start(nil)
		e.RunAll()
		if !app.Done() {
			t.Fatalf("profile %s deadlocked", p.Name)
		}
	}
}

// TestScriptsSizedExactly: every script a profile expands to fills the
// capacity it was allocated with, so building it never grows a slice.
func TestScriptsSizedExactly(t *testing.T) {
	for _, p := range []CommProfile{CTHProfile, SAGEProfile, CharonProfile, XNOBELProfile} {
		for _, n := range []int{2, 3, 8, 32, 33} {
			for r, s := range p.Scripts(n) {
				if len(s.ops) != cap(s.ops) {
					t.Fatalf("%s at %d ranks, rank %d: %d steps in a capacity of %d", p.Name, n, r, len(s.ops), cap(s.ops))
				}
			}
		}
	}
}

// TestLookupProfile: every proxy resolves by its own name, to itself.
func TestLookupProfile(t *testing.T) {
	for _, want := range []CommProfile{CTHProfile, SAGEProfile, CharonProfile, XNOBELProfile} {
		if got, ok := LookupProfile(want.Name); !ok || got != want {
			t.Errorf("LookupProfile(%q) = %+v, %v", want.Name, got, ok)
		}
	}
	if _, ok := LookupProfile("lammps"); ok {
		t.Error("unknown profile resolved")
	}
}

func TestBandwidthBoundVsLatencyBoundDegradation(t *testing.T) {
	// The Fig. 9 mechanism in miniature: scaling injection bandwidth to
	// 1/8 must hurt the large-message profile far more than the
	// small-message profile.
	run := func(p CommProfile, scale float64) sim.Time {
		const n = 8
		cfg := noc.DefaultConfig()
		cfg.InjectionBandwidth *= scale
		e, net := newRing(t, n, cfg)
		p.Steps = 4
		app, err := newApp(e, p.Name, net, p.Scripts(n))
		if err != nil {
			t.Fatal(err)
		}
		app.Start(nil)
		e.RunAll()
		if !app.Done() {
			t.Fatalf("%s did not complete", p.Name)
		}
		return app.Elapsed()
	}
	cthSlowdown := float64(run(CTHProfile, 1.0/8)) / float64(run(CTHProfile, 1))
	charonSlowdown := float64(run(CharonProfile, 1.0/8)) / float64(run(CharonProfile, 1))
	if cthSlowdown < 1.5 {
		t.Errorf("CTH-like slowdown at 1/8 bandwidth = %.2f, want > 1.5", cthSlowdown)
	}
	if charonSlowdown > 1.15 {
		t.Errorf("Charon-like slowdown at 1/8 bandwidth = %.2f, want ~1", charonSlowdown)
	}
	if cthSlowdown < 2*charonSlowdown {
		t.Errorf("bandwidth-bound (%.2f) vs latency-bound (%.2f) separation too small", cthSlowdown, charonSlowdown)
	}
}

// TestAppValidation: an app with no ranks finishes at Start. (More ranks
// than nodes is core.NewSystem's check.)
func TestAppValidation(t *testing.T) {
	e, net := newRing(t, 2, noc.DefaultConfig())
	app, err := newApp(e, "empty", net, nil)
	if err != nil {
		t.Fatal(err)
	}
	done := false
	app.Start(func() { done = true })
	if !done {
		t.Fatal("empty app should finish immediately")
	}
}

func TestScriptSteps(t *testing.T) {
	s := &Script{}
	s.Compute(1)
	s.Send(0, 1)
	s.Recv(0)
	if s.Steps() != 3 {
		t.Fatalf("steps = %d", s.Steps())
	}
	// AllReduce on 8 ranks: 3 rounds x (send+recv).
	s2 := &Script{}
	s2.AllReduce(0, 8, 8)
	if s2.Steps() != 6 {
		t.Fatalf("allreduce steps = %d, want 6", s2.Steps())
	}
	s3 := &Script{}
	s3.AllReduce(0, 1, 8)
	if s3.Steps() != 0 {
		t.Fatal("single-rank allreduce should be empty")
	}
}

func TestMiniMDCensusAndLocality(t *testing.T) {
	k := MiniMD(64, 8, 1, 3)
	s := k.Stream()
	defer s.Close()
	var loads, flops, stores, branches int
	var op frontend.Op
	for s.Next(&op) {
		switch op.Class {
		case frontend.ClassLoad:
			loads++
		case frontend.ClassFloat:
			flops++
		case frontend.ClassStore:
			stores++
		case frontend.ClassBranch:
			branches++
		}
	}
	// Per atom: 3 own-position + 8*(1 index + 3 neighbor) loads.
	if want := 64 * (3 + 8*4); loads != want {
		t.Errorf("loads = %d, want %d", loads, want)
	}
	if want := 64 * 8 * 12; flops != want {
		t.Errorf("flops = %d, want %d", flops, want)
	}
	if stores != 64*3 || branches != 64 {
		t.Errorf("stores=%d branches=%d", stores, branches)
	}
	if k.Flops == 0 || k.Bytes == 0 {
		t.Error("intensity")
	}
}

func TestMiniMDDeterministicNeighbors(t *testing.T) {
	collect := func() []frontend.Op {
		k := MiniMD(32, 4, 1, 7)
		s := k.Stream()
		defer s.Close()
		var ops []frontend.Op
		var op frontend.Op
		for s.Next(&op) {
			ops = append(ops, op)
		}
		return ops
	}
	a, b := collect(), collect()
	if len(a) != len(b) {
		t.Fatal("lengths differ")
	}
	for i := range a {
		if a[i].Addr != b[i].Addr || a[i].Class != b[i].Class {
			t.Fatalf("nondeterministic at %d", i)
		}
	}
}

func TestMiniMDCacheFriendly(t *testing.T) {
	// Neighbor gathers cluster within a 64-atom window: a cache holding
	// the window should hit most of the time.
	e := sim.NewEngine()
	lower := mem.NewSimpleMemory(e, "mem", 100*sim.Nanosecond, 0, nil)
	c, err := mem.NewCache(e, mem.CacheConfig{
		Name: "l1", SizeBytes: 64 << 10, LineBytes: 64, Assoc: 8,
		HitLatency: sim.Nanosecond, MSHRs: 8, WriteBack: true,
	}, lower, nil)
	if err != nil {
		t.Fatal(err)
	}
	k := MiniMD(512, 8, 1, 1)
	s := k.Stream()
	defer s.Close()
	var op frontend.Op
	pending := 0
	for s.Next(&op) {
		if op.Class == frontend.ClassLoad || op.Class == frontend.ClassStore {
			mop := mem.Read
			if op.Class == frontend.ClassStore {
				mop = mem.Write
			}
			pending++
			c.Access(mop, op.Addr, int(op.Size), func() { pending-- })
			e.RunAll()
		}
	}
	if pending != 0 {
		t.Fatal("accesses unresolved")
	}
	if hr := c.HitRate(); hr < 0.8 {
		t.Errorf("miniMD hit rate = %.3f, want > 0.8 (neighbor locality)", hr)
	}
}

func TestAppOverDetailedNetwork(t *testing.T) {
	// The same skeleton profile must complete over the detailed
	// (credit-based) fabric, and take at least as long as over the fast
	// model.
	run := func(detailed bool) sim.Time {
		const n = 8
		topo, err := noc.NewMesh2D(n, 1)
		if err != nil {
			t.Fatal(err)
		}
		e := sim.NewEngine()
		p := CTHProfile
		p.Steps = 2
		var app *App
		if detailed {
			net, err := noc.NewDetailedNetwork(e, "dnet", topo, noc.DefaultConfig(), 0, nil)
			if err != nil {
				t.Fatal(err)
			}
			ports := make([]MessagePort, n)
			for i := range ports {
				ports[i] = net.NIC(i)
			}
			app, err = NewAppOnPorts(e, p.Name, ports, p.Scripts(n))
			if err != nil {
				t.Fatal(err)
			}
		} else {
			net, err := noc.NewNetwork(e, "net", topo, noc.DefaultConfig(), nil)
			if err != nil {
				t.Fatal(err)
			}
			app, err = newApp(e, p.Name, net, p.Scripts(n))
			if err != nil {
				t.Fatal(err)
			}
		}
		app.Start(nil)
		e.RunAll()
		if !app.Done() {
			t.Fatalf("detailed=%v: app deadlocked", detailed)
		}
		return app.Elapsed()
	}
	fast := run(false)
	det := run(true)
	if det < fast {
		t.Errorf("detailed fabric (%v) finished before fast fabric (%v)", det, fast)
	}
}

func TestNewAppOnPortsValidation(t *testing.T) {
	e, net := newRing(t, 2, noc.DefaultConfig())
	_ = net
	if _, err := NewAppOnPorts(e, "x", nil, make([]*Script, 2)); err == nil {
		t.Fatal("port/script mismatch accepted")
	}
}

// BenchmarkKernelDrain is the per-op cost of the kernel front end: the
// full-scale hpccg and lulesh kernels (the paper grid's) emitting their ops
// through an Emitter while the benchmark pulls them off the KernelStream,
// restarting each kernel on a pooled stream when it ends. It runs at
// GOMAXPROCS 1, so producer and consumer share one processor and the
// number is their CPU per op, not how well two goroutines overlap.
func BenchmarkKernelDrain(b *testing.B) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	for _, k := range []struct {
		name   string
		kernel *Kernel
	}{{"hpccg", HPCCG(18, 1)}, {"lulesh", Lulesh(16384, 1)}} {
		b.Run(k.name, func(b *testing.B) {
			pool := &frontend.OpPool{}
			s := k.kernel.StreamPool(pool)
			var op frontend.Op
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if !s.Next(&op) {
					s.Close()
					s = k.kernel.StreamPool(pool)
					s.Next(&op)
				}
			}
			b.StopTimer()
			s.Close()
		})
	}
}
