package noc

import (
	"testing"

	"sst/internal/sim"
)

func newDetailed(t testing.TB, topo Topology, cfg NetConfig, buf int) (*sim.Engine, *DetailedNetwork) {
	t.Helper()
	e := sim.NewEngine()
	d, err := NewDetailedNetwork(e, "dnet", topo, cfg, buf, nil)
	if err != nil {
		t.Fatal(err)
	}
	return e, d
}

func TestDetailedTorusDatelineDeadlockFree(t *testing.T) {
	// Heavy random traffic around torus rings with single-packet buffers:
	// without the dateline virtual channels this wedges; with them every
	// message must deliver.
	for _, dims := range [][3]int{{4, 4, 1}, {3, 3, 3}, {8, 1, 1}} {
		topo, err := NewTorus3D(dims[0], dims[1], dims[2])
		if err != nil {
			t.Fatal(err)
		}
		cfg := DefaultConfig()
		cfg.MaxPacketBytes = 1024
		e, d := newDetailed(t, topo, cfg, 1024)
		rng := sim.NewRNG(5)
		total := 0
		for i := 0; i < topo.NumNodes(); i++ {
			d.NIC(i).SetReceiver(func(int, int, any) { total++ })
		}
		const msgs = 600
		for i := 0; i < msgs; i++ {
			src := rng.Intn(topo.NumNodes())
			dst := rng.Intn(topo.NumNodes())
			d.NIC(src).SendTimed(dst, 1+int(rng.Uint64n(8000)), nil)
		}
		e.RunAll()
		if total != msgs {
			t.Fatalf("%s: delivered %d/%d (torus deadlock?)", topo.Name(), total, msgs)
		}
	}
}

func TestDetailedTorusAllToAllStress(t *testing.T) {
	// All-to-all is the worst case for ring cycles: every node sends to
	// every other node simultaneously.
	topo, _ := NewTorus3D(4, 4, 1)
	cfg := DefaultConfig()
	e, d := newDetailed(t, topo, cfg, cfg.MaxPacketBytes)
	total := 0
	n := topo.NumNodes()
	for i := 0; i < n; i++ {
		d.NIC(i).SetReceiver(func(int, int, any) { total++ })
	}
	for s := 0; s < n; s++ {
		for r := 0; r < n; r++ {
			if s != r {
				d.NIC(s).SendTimed(r, 8<<10, nil)
			}
		}
	}
	e.RunAll()
	if total != n*(n-1) {
		t.Fatalf("all-to-all delivered %d/%d", total, n*(n-1))
	}
}

func TestDetailedBufferValidation(t *testing.T) {
	topo, _ := NewMesh2D(2, 2)
	e := sim.NewEngine()
	if _, err := NewDetailedNetwork(e, "d", topo, DefaultConfig(), 100, nil); err == nil {
		t.Fatal("sub-packet buffer accepted")
	}
	bad := NetConfig{}
	if _, err := NewDetailedNetwork(e, "d", topo, bad, 0, nil); err == nil {
		t.Fatal("invalid config accepted")
	}
}

func TestDetailedMatchesFastUncontended(t *testing.T) {
	// A single message with no contention: the detailed model's latency
	// must equal the fast model's (same serialization + per-hop terms).
	topo, _ := NewMesh2D(4, 1)
	cfg := DefaultConfig()
	eF, fast := newNet(t, topo, cfg)
	var tFast sim.Time
	fast.NIC(3).SetReceiver(func(int, int, any) { tFast = eF.Now() })
	fast.NIC(0).Send(3, 1024, nil, nil)
	eF.RunAll()

	eD, det := newDetailed(t, topo, cfg, 0)
	var tDet sim.Time
	det.NIC(3).SetReceiver(func(int, int, any) { tDet = eD.Now() })
	det.NIC(0).SendTimed(3, 1024, nil)
	eD.RunAll()

	if tFast == 0 || tDet != tFast {
		t.Fatalf("uncontended latency: detailed %v vs fast %v", tDet, tFast)
	}
}

func TestDetailedBackpressureBoundsBuffers(t *testing.T) {
	// Hammer one ejection point from many sources: buffers must never
	// exceed capacity and blocking time must accumulate.
	topo, _ := NewMesh2D(8, 1)
	cfg := DefaultConfig()
	e, d := newDetailed(t, topo, cfg, 2*cfg.MaxPacketBytes)
	got := 0
	d.NIC(7).SetReceiver(func(int, int, any) { got++ })
	const msgs = 16
	for i := 0; i < 7; i++ {
		for m := 0; m < msgs; m++ {
			d.NIC(i).SendTimed(7, 32<<10, nil)
		}
	}
	e.RunAll()
	if got != 7*msgs {
		t.Fatalf("delivered %d/%d", got, 7*msgs)
	}
	if d.PeakBufferOccupancy() > int64(2*cfg.MaxPacketBytes) {
		t.Errorf("buffer occupancy %d exceeded capacity %d", d.PeakBufferOccupancy(), 2*cfg.MaxPacketBytes)
	}
	if d.CreditBlockedTime() == 0 {
		t.Error("no credit blocking under heavy contention")
	}
}

func TestDetailedCongestionSlowerThanFast(t *testing.T) {
	// Under contention the bounded-buffer model must be at least as slow
	// as the unbounded fast model (backpressure can only delay).
	run := func(detailed bool) sim.Time {
		topo, _ := NewMesh2D(4, 4)
		cfg := DefaultConfig()
		var last sim.Time
		if detailed {
			e, d := newDetailed(t, topo, cfg, 0)
			d.NIC(15).SetReceiver(func(int, int, any) { last = e.Now() })
			for i := 0; i < 15; i++ {
				d.NIC(i).SendTimed(15, 256<<10, nil)
			}
			e.RunAll()
			return last
		}
		e, n := newNet(t, topo, cfg)
		n.NIC(15).SetReceiver(func(int, int, any) { last = e.Now() })
		for i := 0; i < 15; i++ {
			n.NIC(i).Send(15, 256<<10, nil, nil)
		}
		e.RunAll()
		return last
	}
	fast := run(false)
	det := run(true)
	if det < fast {
		t.Errorf("detailed model (%v) finished before fast model (%v) under congestion", det, fast)
	}
}

func TestDetailedDeadlockFreeRandomTraffic(t *testing.T) {
	// Deadlock-freedom on cycle-free topologies: every message delivers
	// under sustained random traffic with tiny buffers.
	mk := []func() Topology{
		func() Topology { x, _ := NewMesh2D(4, 4); return x },
		func() Topology { x, _ := NewFatTree(4, 4, 2); return x },
		func() Topology { x, _ := NewHypercube(4); return x },
		func() Topology { x, _ := NewButterfly(4, 4); return x },
	}
	for _, build := range mk {
		topo := build()
		cfg := DefaultConfig()
		cfg.MaxPacketBytes = 1024
		e, d := newDetailed(t, topo, cfg, 1024) // single-packet buffers
		rng := sim.NewRNG(11)
		total := 0
		for i := 0; i < topo.NumNodes(); i++ {
			d.NIC(i).SetReceiver(func(int, int, any) { total++ })
		}
		const msgs = 400
		for i := 0; i < msgs; i++ {
			src := rng.Intn(topo.NumNodes())
			dst := rng.Intn(topo.NumNodes())
			d.NIC(src).SendTimed(dst, 1+int(rng.Uint64n(6000)), nil)
		}
		e.RunAll()
		if total != msgs {
			t.Fatalf("%s: delivered %d/%d (deadlock?)", topo.Name(), total, msgs)
		}
	}
}

func TestDetailedLoopbackAndAccessors(t *testing.T) {
	topo, _ := NewMesh2D(2, 2)
	e, d := newDetailed(t, topo, DefaultConfig(), 0)
	ok := false
	d.NIC(2).SetReceiver(func(src, size int, payload any) { ok = src == 2 && payload == "x" })
	d.NIC(2).SendTimed(2, 64, "x")
	e.RunAll()
	if !ok {
		t.Fatal("loopback failed")
	}
	if d.Topology() != topo || d.NIC(1).Node() != 1 || d.Name() != "dnet" {
		t.Fatal("accessors")
	}
	if d.Messages() != 1 || d.BytesDelivered() != 64 || d.MessageLatencyMean() <= 0 {
		t.Fatal("stats")
	}
}
