package noc

import (
	"fmt"
	"testing"
	"testing/quick"

	"sst/internal/sim"
)

// allTopologies returns a representative instance of each topology kind.
func allTopologies(t *testing.T) []Topology {
	t.Helper()
	m, err := NewMesh2D(4, 3)
	if err != nil {
		t.Fatal(err)
	}
	t2, err := NewTorus3D(4, 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	t3, err := NewTorus3D(3, 3, 3)
	if err != nil {
		t.Fatal(err)
	}
	ft, err := NewFatTree(4, 4, 4)
	if err != nil {
		t.Fatal(err)
	}
	xb, err := NewCrossbar(8)
	if err != nil {
		t.Fatal(err)
	}
	hc, err := NewHypercube(4)
	if err != nil {
		t.Fatal(err)
	}
	bf, err := NewButterfly(3, 4)
	if err != nil {
		t.Fatal(err)
	}
	return []Topology{m, t2, t3, ft, xb, hc, bf}
}

// TestRoutingTerminatesAndUsesLinks is the deadlock/livelock-freedom
// property: every (src,dst) route reaches the destination within
// diameter+1 hops, moving only along declared links.
func TestRoutingTerminatesAndUsesLinks(t *testing.T) {
	for _, topo := range allTopologies(t) {
		links := map[[2]int]bool{}
		for _, l := range topo.Links() {
			links[l] = true
			links[[2]int{l[1], l[0]}] = true
		}
		for src := 0; src < topo.NumNodes(); src++ {
			for dst := 0; dst < topo.NumNodes(); dst++ {
				r := topo.RouterOf(src)
				hops := 0
				for {
					nxt := topo.Route(r, dst)
					if nxt < 0 {
						if r != topo.RouterOf(dst) {
							t.Fatalf("%s: route %d->%d delivered at wrong router %d", topo.Name(), src, dst, r)
						}
						break
					}
					if !links[[2]int{r, nxt}] {
						t.Fatalf("%s: route %d->%d uses missing link %d->%d", topo.Name(), src, dst, r, nxt)
					}
					r = nxt
					hops++
					if hops > topo.Diameter()+1 {
						t.Fatalf("%s: route %d->%d exceeded diameter bound %d", topo.Name(), src, dst, topo.Diameter())
					}
				}
			}
		}
	}
}

func TestTorusShortestDirection(t *testing.T) {
	topo, _ := NewTorus3D(8, 1, 1)
	// From router 0 to node 7: wrapping backward (1 hop) beats forward
	// (7 hops).
	if nxt := topo.Route(0, 7); nxt != 7 {
		t.Fatalf("torus route 0->7 goes via %d, want wraparound to 7", nxt)
	}
	if nxt := topo.Route(0, 2); nxt != 1 {
		t.Fatalf("torus route 0->2 goes via %d, want 1", nxt)
	}
}

func TestTopologyValidation(t *testing.T) {
	if _, err := NewMesh2D(0, 3); err == nil {
		t.Error("bad mesh accepted")
	}
	if _, err := NewTorus3D(2, 0, 2); err == nil {
		t.Error("bad torus accepted")
	}
	if _, err := NewFatTree(0, 1, 1); err == nil {
		t.Error("bad fat tree accepted")
	}
	if _, err := NewCrossbar(-1); err == nil {
		t.Error("bad crossbar accepted")
	}
	if err := (&NetConfig{}).Validate(); err == nil {
		t.Error("zero-bandwidth config accepted")
	}
	cfg := DefaultConfig()
	cfg.MaxPacketBytes = 8
	if err := cfg.Validate(); err == nil {
		t.Error("tiny packets accepted")
	}
}

func newNet(t testing.TB, topo Topology, cfg NetConfig) (*sim.Engine, *Network) {
	t.Helper()
	e := sim.NewEngine()
	n, err := NewNetwork(e, "net", topo, cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	return e, n
}

func TestPointToPointLatency(t *testing.T) {
	topo, _ := NewMesh2D(4, 1)
	cfg := DefaultConfig()
	e, n := newNet(t, topo, cfg)
	var arrived sim.Time
	var gotSrc, gotSize int
	n.NIC(3).SetReceiver(func(src, size int, payload any) {
		arrived = e.Now()
		gotSrc, gotSize = src, size
		if payload != "hello" {
			t.Errorf("payload = %v", payload)
		}
	})
	n.NIC(0).Send(3, 1024, "hello", nil)
	e.RunAll()
	if gotSrc != 0 || gotSize != 1024 {
		t.Fatalf("src=%d size=%d", gotSrc, gotSize)
	}
	// Path: inject (ser+link) + 3 hops (ser+link+router each).
	ser := serialize(1024, cfg.LinkBandwidth)
	want := serialize(1024, cfg.InjectionBandwidth) + cfg.LinkLatency +
		3*(ser+cfg.LinkLatency+cfg.RouterLatency)
	if arrived != want {
		t.Fatalf("latency = %v, want %v", arrived, want)
	}
}

func TestInjectionBandwidthThrottle(t *testing.T) {
	// Halving injection bandwidth should ~double the time to push many
	// back-to-back large messages from one node — the Fig. 9 mechanism.
	run := func(scale float64) sim.Time {
		topo, _ := NewMesh2D(2, 1)
		cfg := DefaultConfig()
		cfg.InjectionBandwidth *= scale
		e, n := newNet(t, topo, cfg)
		got := 0
		n.NIC(1).SetReceiver(func(int, int, any) { got++ })
		for i := 0; i < 32; i++ {
			n.NIC(0).Send(1, 64<<10, nil, nil)
		}
		e.RunAll()
		if got != 32 {
			t.Fatalf("delivered %d/32", got)
		}
		return e.Now()
	}
	full := run(1)
	eighth := run(1.0 / 8)
	ratio := float64(eighth) / float64(full)
	if ratio < 6 || ratio > 9 {
		t.Errorf("1/8 injection bandwidth ratio = %.2f, want ~8", ratio)
	}
}

func TestLinkContention(t *testing.T) {
	// Two senders share the single middle link of a 3x1 mesh when
	// targeting the far end: total time ~ sum of serializations.
	topo, _ := NewMesh2D(3, 1)
	cfg := DefaultConfig()
	cfg.LinkLatency = 0
	cfg.RouterLatency = 0
	e, n := newNet(t, topo, cfg)
	var last sim.Time
	n.NIC(2).SetReceiver(func(int, int, any) { last = e.Now() })
	const msg = 1 << 20
	n.NIC(0).Send(2, msg, nil, nil)
	n.NIC(1).Send(2, msg, nil, nil)
	e.RunAll()
	// The 1->2 link carries 2 MiB at 3.2 GB/s ≈ 655 us.
	lower := serialize(2*msg, cfg.LinkBandwidth)
	if last < lower {
		t.Errorf("contended delivery at %v, want >= %v", last, lower)
	}
	if last > lower*3/2 {
		t.Errorf("contended delivery at %v, want near %v", last, lower)
	}
}

func TestMessageSegmentation(t *testing.T) {
	topo, _ := NewMesh2D(2, 1)
	cfg := DefaultConfig()
	cfg.MaxPacketBytes = 1024
	e, n := newNet(t, topo, cfg)
	deliveries := 0
	n.NIC(1).SetReceiver(func(src, size int, payload any) {
		deliveries++
		if size != 10_000 {
			t.Errorf("size = %d", size)
		}
		if payload != 42 {
			t.Errorf("payload = %v", payload)
		}
	})
	n.NIC(0).Send(1, 10_000, 42, nil)
	e.RunAll()
	if deliveries != 1 {
		t.Fatalf("message delivered %d times (per-packet leak?)", deliveries)
	}
	// 10 packets on the wire, each an injection and an arrival event.
	if e.Handled() != 20 {
		t.Errorf("events = %d, want 20 (10 packets)", e.Handled())
	}
}

func TestSendOrderPreserved(t *testing.T) {
	topo, _ := NewMesh2D(4, 4)
	e, n := newNet(t, topo, DefaultConfig())
	var got []int
	n.NIC(15).SetReceiver(func(src, size int, payload any) {
		got = append(got, payload.(int))
	})
	for i := 0; i < 20; i++ {
		n.NIC(0).Send(15, 100+i, i, nil)
	}
	e.RunAll()
	if len(got) != 20 {
		t.Fatalf("delivered %d/20", len(got))
	}
	for i, v := range got {
		if v != i {
			t.Fatalf("order broken: %v", got)
		}
	}
}

func TestLoopback(t *testing.T) {
	topo, _ := NewMesh2D(2, 2)
	e, n := newNet(t, topo, DefaultConfig())
	ok := false
	n.NIC(1).SetReceiver(func(src, size int, payload any) {
		ok = src == 1 && size == 8
	})
	n.NIC(1).Send(1, 8, nil, nil)
	e.RunAll()
	if !ok {
		t.Fatal("loopback failed")
	}
}

func TestOnSentFiresAtInjection(t *testing.T) {
	topo, _ := NewMesh2D(2, 1)
	cfg := DefaultConfig()
	e, n := newNet(t, topo, cfg)
	var sentAt, recvAt sim.Time
	n.NIC(1).SetReceiver(func(int, int, any) { recvAt = e.Now() })
	n.NIC(0).Send(1, 1<<20, nil, func() { sentAt = e.Now() })
	e.RunAll()
	if sentAt == 0 || recvAt == 0 || sentAt >= recvAt {
		t.Fatalf("sentAt=%v recvAt=%v; want injection before delivery", sentAt, recvAt)
	}
}

func TestFatTreeBisection(t *testing.T) {
	// All-to-all across edge switches: a fat tree with full core count
	// should finish much faster than one squeezed through a single core.
	run := func(cores int) sim.Time {
		topo, err := NewFatTree(4, 4, cores)
		if err != nil {
			t.Fatal(err)
		}
		cfg := DefaultConfig()
		e, n := newNet(t, topo, cfg)
		for i := 0; i < topo.NumNodes(); i++ {
			n.NIC(i).SetReceiver(func(int, int, any) {})
		}
		for i := 0; i < topo.NumNodes(); i++ {
			dst := (i + 4) % topo.NumNodes() // always cross-edge
			n.NIC(i).Send(dst, 256<<10, nil, nil)
		}
		e.RunAll()
		return e.Now()
	}
	wide := run(4)
	narrow := run(1)
	if float64(narrow) < 2*float64(wide) {
		t.Errorf("1-core fat tree (%v) should be >= 2x slower than 4-core (%v)", narrow, wide)
	}
}

func TestNICCounters(t *testing.T) {
	topo, _ := NewMesh2D(2, 1)
	e, n := newNet(t, topo, DefaultConfig())
	n.NIC(1).SetReceiver(func(int, int, any) {})
	n.NIC(0).Send(1, 64, nil, nil)
	n.NIC(0).Send(1, 64, nil, nil)
	e.RunAll()
	if n.Messages() != 2 {
		t.Fatalf("messages = %d", n.Messages())
	}
	if n.BytesDelivered() != 128 {
		t.Fatalf("bytes = %d", n.BytesDelivered())
	}
	if n.MessageLatencyMean() <= 0 {
		t.Fatal("latency stat empty")
	}
	if n.Topology() != topo || n.Config().MaxPacketBytes == 0 || n.Name() != "net" {
		t.Fatal("accessors broken")
	}
}

func TestRandomTrafficAllDelivered(t *testing.T) {
	fn := func(seedRaw uint32) bool {
		topo, _ := NewTorus3D(4, 4, 2)
		e, n := newNet(t, topo, DefaultConfig())
		rng := sim.NewRNG(uint64(seedRaw))
		total := 0
		for i := 0; i < topo.NumNodes(); i++ {
			n.NIC(i).SetReceiver(func(int, int, any) { total++ })
		}
		const msgs = 200
		for i := 0; i < msgs; i++ {
			src := rng.Intn(topo.NumNodes())
			dst := rng.Intn(topo.NumNodes())
			n.NIC(src).Send(dst, 1+int(rng.Uint64n(20000)), nil, nil)
		}
		e.RunAll()
		return total == msgs
	}
	if err := quick.Check(fn, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

func BenchmarkNetworkRandomTraffic(b *testing.B) {
	topo, _ := NewTorus3D(8, 8, 1)
	e := sim.NewEngine()
	n, err := NewNetwork(e, "net", topo, DefaultConfig(), nil)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < topo.NumNodes(); i++ {
		n.NIC(i).SetReceiver(func(int, int, any) {})
	}
	rng := sim.NewRNG(1)
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		n.NIC(rng.Intn(64)).Send(rng.Intn(64), 4096, nil, nil)
		if i%64 == 63 {
			e.RunAll()
		}
	}
	e.RunAll()
}

func TestHypercubeProperties(t *testing.T) {
	h, err := NewHypercube(4)
	if err != nil {
		t.Fatal(err)
	}
	if h.NumNodes() != 16 || h.Diameter() != 4 {
		t.Fatalf("shape: %d nodes, diameter %d", h.NumNodes(), h.Diameter())
	}
	// D*2^(D-1) undirected links.
	if got := len(h.Links()); got != 4*8 {
		t.Fatalf("links = %d, want 32", got)
	}
	// Route length equals Hamming distance.
	for src := 0; src < 16; src++ {
		for dst := 0; dst < 16; dst++ {
			r, hops := src, 0
			for {
				nxt := h.Route(r, dst)
				if nxt < 0 {
					break
				}
				r = nxt
				hops++
			}
			want := 0
			for d := src ^ dst; d != 0; d &= d - 1 {
				want++
			}
			if hops != want {
				t.Fatalf("route %d->%d took %d hops, want %d", src, dst, hops, want)
			}
		}
	}
	if _, err := NewHypercube(0); err == nil {
		t.Error("dimension 0 accepted")
	}
	if _, err := NewHypercube(30); err == nil {
		t.Error("oversized dimension accepted")
	}
}

func TestButterflyRoutesAndRuns(t *testing.T) {
	bf, err := NewButterfly(4, 4)
	if err != nil {
		t.Fatal(err)
	}
	if bf.NumNodes() != 16 || bf.NumRouters() != 8 {
		t.Fatalf("shape: %d nodes, %d routers", bf.NumNodes(), bf.NumRouters())
	}
	e, n := newNet(t, bf, DefaultConfig())
	got := 0
	for i := 0; i < 16; i++ {
		n.NIC(i).SetReceiver(func(int, int, any) { got++ })
	}
	for i := 0; i < 16; i++ {
		n.NIC(i).Send(15-i, 4096, nil, nil)
	}
	e.RunAll()
	if got != 16 {
		t.Fatalf("delivered %d/16 over the butterfly", got)
	}
	if _, err := NewButterfly(0, 4); err == nil {
		t.Error("bad butterfly accepted")
	}
}

func TestHypercubeTrafficIntegration(t *testing.T) {
	h, _ := NewHypercube(5)
	e, n := newNet(t, h, DefaultConfig())
	got := 0
	for i := 0; i < 32; i++ {
		n.NIC(i).SetReceiver(func(int, int, any) { got++ })
	}
	rng := sim.NewRNG(9)
	for i := 0; i < 200; i++ {
		n.NIC(rng.Intn(32)).Send(rng.Intn(32), 1+int(rng.Uint64n(8000)), nil, nil)
	}
	e.RunAll()
	if got != 200 {
		t.Fatalf("delivered %d/200", got)
	}
}

func TestNetworkEnergyAccounting(t *testing.T) {
	topo, _ := NewMesh2D(4, 1)
	e, n := newNet(t, topo, DefaultConfig())
	n.NIC(3).SetReceiver(func(int, int, any) {})
	n.NIC(0).Send(3, 1<<20, nil, nil)
	e.RunAll()
	p := DefaultPowerParams()
	en := n.Energy(p, e.Now())
	if en.DynamicJ <= 0 || en.StaticJ <= 0 || en.StaticW <= 0 {
		t.Fatalf("energy = %+v", en)
	}
	if en.TotalJ() != en.DynamicJ+en.StaticJ {
		t.Fatal("total mismatch")
	}
	// 1 MiB over 3 hops: at least 3 MiB of link-byte traffic.
	minDyn := 3 * float64(1<<20) * p.LinkEnergyPerByteJ
	if en.DynamicJ < minDyn {
		t.Errorf("dynamic %.3g J below hop-count bound %.3g J", en.DynamicJ, minDyn)
	}
	// Halving provisioned bandwidth must halve-ish static power.
	cfg2 := DefaultConfig()
	cfg2.LinkBandwidth /= 2
	cfg2.InjectionBandwidth /= 2
	_, n2 := newNet(t, topo, cfg2)
	if w2 := n2.Energy(p, e.Now()).StaticW; w2 >= en.StaticW {
		t.Errorf("down-provisioned static power %.3g >= full %.3g", w2, en.StaticW)
	}
}

func TestLinkUtilization(t *testing.T) {
	topo, _ := NewMesh2D(2, 1)
	cfg := DefaultConfig()
	cfg.LinkLatency, cfg.RouterLatency = 0, 0
	e, n := newNet(t, topo, cfg)
	n.NIC(1).SetReceiver(func(int, int, any) {})
	if avg, hot := n.LinkUtilization(e.Now()); avg != 0 || hot != 0 {
		t.Fatal("utilization nonzero before any time passes")
	}
	for i := 0; i < 8; i++ {
		n.NIC(0).Send(1, 1<<20, nil, nil)
	}
	e.RunAll()
	avg, hot := n.LinkUtilization(e.Now())
	if hot < 0.5 || hot > 1.01 {
		t.Errorf("hottest link utilization = %.3f, want near saturation", hot)
	}
	if avg <= 0 || avg > hot {
		t.Errorf("avg utilization = %.3f (hot %.3f)", avg, hot)
	}
}

// TestSendAllocFree pins the fabric's steady state: once a single-engine
// torus is warm — packets on the free list, lane rings and the event free
// list grown — a round of all-to-all multi-packet messages sent through
// SendTimed allocates nothing, injections and forwarded hops included. A
// handler made per schedule (the method value rk.dispatch instead of the
// one the rank's EventSet holds) allocates a closure per event and fails
// this.
func TestSendAllocFree(t *testing.T) {
	topo, err := NewTorus3D(4, 4, 2)
	if err != nil {
		t.Fatal(err)
	}
	e, n := newNet(t, topo, DefaultConfig())
	delivered := 0
	for i := 0; i < topo.NumNodes(); i++ {
		n.NIC(i).SetReceiver(func(int, int, any) { delivered++ })
	}
	round := func() {
		for src := 0; src < topo.NumNodes(); src++ {
			for dst := 0; dst < topo.NumNodes(); dst++ {
				n.NIC(src).SendTimed(dst, 3*DefaultConfig().MaxPacketBytes, nil)
			}
		}
		e.RunAll()
	}
	round()
	round()
	if allocs := testing.AllocsPerRun(5, round); allocs != 0 {
		t.Fatalf("a warm all-to-all round allocates %v times, want 0", allocs)
	}
	if want := 8 * topo.NumNodes() * topo.NumNodes(); delivered != want {
		t.Fatalf("delivered %d messages, want %d", delivered, want)
	}
}

// TestNICCutsPacketsOnSchedule is the oracle for cutting packets as they
// enter the fabric. Messages sent back to back from one NIC — several
// packets each, with short last packets, a loopback among them and one
// sent while the NIC is still busy — must inject every packet at the time
// and under the sequence number the send-time loop gave it: injectAt =
// max(now, freeAt), then per packet injectAt += serialize(pk) and an event
// at injectAt + LinkLatency under the next sequence number. A probe event
// scheduled after each send at each of its packets' times must run after
// that packet, as a later sequence number at the same instant does (the
// last packet's probe takes the number right after the reserved ones).
// Between any two dispatches the engine's pending count must be what the
// network owns plus the test's own events, and the rank's saved events
// must hold every packet not yet injected as the loop's pending event: its
// time, number and packet, in sequence order among the tracked ones.
func TestNICCutsPacketsOnSchedule(t *testing.T) {
	topo, err := NewTorus3D(4, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.MaxPacketBytes = 1024
	e := sim.NewEngine()
	e.EnableSnapshots()
	n, err := NewNetwork(e, "net", topo, cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	nc, rk := n.NIC(0), n.ranks[0]
	delivered := 0
	for i := 0; i < topo.NumNodes(); i++ {
		n.NIC(i).SetReceiver(func(int, int, any) { delivered++ })
	}

	type nicEvent struct {
		at  sim.Time
		seq uint64
	}
	var want, got []nicEvent
	var wantPk []packet // the packet each of want's events carries
	var log []string
	own := 0 // the test's pending events
	probe := func(p any) { own--; log = append(log, fmt.Sprintf("probe %v", p)) }
	var freeAt sim.Time
	send := func(dst, size int) {
		t.Helper()
		inj, seq, k := max(e.Now(), freeAt), e.NextSeq(), len(want)
		at := topo.RouterOf(0)
		if dst == 0 {
			at = -1
		}
		for rem := size; rem > 0; {
			pk := min(rem, cfg.MaxPacketBytes)
			rem -= pk
			inj += serialize(pk, cfg.InjectionBandwidth)
			want = append(want, nicEvent{inj + cfg.LinkLatency, seq})
			p := packet{src: 0, dst: dst, size: pk, msgSize: size, sentAt: e.Now(), at: at}
			if rem == 0 {
				p.last, p.payload = true, size
			}
			wantPk = append(wantPk, p)
			seq++
		}
		freeAt = inj
		if end := nc.SendTimed(dst, size, size); end != freeAt {
			t.Fatalf("SendTimed(%d, %d) returned %v, want %v", dst, size, end, freeAt)
		}
		// Last packet first: its probe takes the number just past the
		// reserved ones, the closest a later event's number can come.
		for i := len(want) - 1; i >= k; i-- {
			own++
			e.ScheduleAt(want[i].at, sim.PrioLink, probe, want[i].at)
		}
	}
	inject := nc.inject
	nc.inject = func(p any) {
		got = append(got, nicEvent{e.Now(), nc.msgs[nc.head].seq})
		log = append(log, fmt.Sprintf("nic %v", e.Now()))
		inject(p)
	}

	send(3, 3*cfg.MaxPacketBytes+100)
	send(0, 2500) // loopback
	send(7, cfg.MaxPacketBytes)
	send(5, 1)
	own++
	e.ScheduleAt(freeAt/2, sim.PrioLink, func(any) { own--; send(6, 2*cfg.MaxPacketBytes+1) }, nil)
	// saved decodes the rank's saved events and returns the packets not
	// yet injected (a forwarded packet has hopped at least once, and a
	// loopback one is delivered as it is injected).
	saved := func() (evs []nicEvent, pks []packet) {
		t.Helper()
		enc := sim.NewEncoder()
		rk.SaveState(enc)
		dec := sim.NewDecoder(enc.Bytes())
		var last uint64
		for i, k := 0, int(dec.U64()); i < k; i++ {
			seq, at := dec.U64(), dec.Time()
			dec.I64() // priority
			pl, err := sim.DecodePayload(dec)
			if err != nil {
				t.Fatal(err)
			}
			if i > 0 && seq <= last {
				t.Fatalf("saved event seq %d follows seq %d", seq, last)
			}
			last = seq
			if p := pl.(*packet); p.hops == 0 {
				evs, pks = append(evs, nicEvent{at, seq}), append(pks, *p)
			}
		}
		return evs, pks
	}
	for {
		if owned, pending := rk.PendingOwned()+own, e.Pending(); owned != pending {
			t.Fatalf("at %v the network and test own %d of %d pending events", e.Now(), owned, pending)
		}
		evs, pks := saved()
		if fmt.Sprint(evs, pks) != fmt.Sprint(want[len(got):], wantPk[len(got):]) {
			t.Fatalf("at %v the saved uncut packets are\n%v %v\nwant\n%v %v", e.Now(), evs, pks, want[len(got):], wantPk[len(got):])
		}
		if !e.Step() {
			break
		}
	}

	if len(got) != len(want) {
		t.Fatalf("%d NIC events, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("packet %d: NIC event (time %v, seq %d), want (%v, %d)", i, got[i].at, got[i].seq, want[i].at, want[i].seq)
		}
	}
	var order []string
	for _, ev := range want {
		order = append(order, fmt.Sprintf("nic %v", ev.at), fmt.Sprintf("probe %v", ev.at))
	}
	if fmt.Sprint(log) != fmt.Sprint(order) {
		t.Fatalf("NIC events and probes ran in order\n%v\nwant\n%v", log, order)
	}
	if delivered != 5 || rk.uncut != 0 || nc.n != 0 {
		t.Fatalf("delivered %d messages with %d packets uncut and %d queued, want 5, 0 and 0", delivered, rk.uncut, nc.n)
	}
}
