package noc

import (
	"bytes"
	"slices"
	"testing"

	"sst/internal/par"
	"sst/internal/sim"
)

// The partitioned network against the single-engine reference: per-message
// delivery times must match exactly at every rank count.

// send is one message of a traffic plan.
type send struct {
	at   sim.Time
	src  int
	dst  int
	size int
	id   int
}

// plan is a deterministic staggered traffic pattern: node i sends msgs
// messages to (i*7+3) mod N at distinct times so no two packets tie on a
// link (ties may break differently across partitionings; everything else
// must match exactly).
func plan(nodes, msgs int) []send {
	var out []send
	id := 0
	for i := 0; i < nodes; i++ {
		for m := 0; m < msgs; m++ {
			out = append(out, send{
				at:   sim.Time(i)*977*sim.Nanosecond + sim.Time(m)*31*sim.Microsecond,
				src:  i,
				dst:  (i*7 + 3) % nodes,
				size: 1000 + 64*i + m,
				id:   id,
			})
			id++
		}
	}
	return out
}

// runSequential executes the plan on a single-engine network and returns
// per-message delivery times.
func runSequential(t *testing.T, topo Topology, cfg NetConfig, sends []send) []sim.Time {
	t.Helper()
	engine := sim.NewEngine()
	n, err := NewNetwork(engine, "net", topo, cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	out := make([]sim.Time, len(sends))
	for i := 0; i < topo.NumNodes(); i++ {
		n.NIC(i).SetReceiver(func(src, size int, payload any) {
			out[payload.(int)] = engine.Now()
		})
	}
	for _, s := range sends {
		engine.ScheduleAt(s.at, sim.PrioLink, func(any) {
			n.NIC(s.src).Send(s.dst, s.size, s.id, nil)
		}, nil)
	}
	engine.RunAll()
	return out
}

// runPartitioned executes the same plan over nranks, optionally on a
// snapshot-enabled runner, where sends go through SendTimed.
func runPartitioned(t *testing.T, topo Topology, cfg NetConfig, sends []send, nranks int, snapshots bool) []sim.Time {
	t.Helper()
	runner, err := par.NewRunner(nranks)
	if err != nil {
		t.Fatal(err)
	}
	if snapshots {
		runner.EnableSnapshots()
	}
	n, err := NewPartitionedNetwork(runner, topo, cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	engineOf := func(node int) *sim.Engine { return runner.Rank(n.RankOfNode(node)).Engine() }
	out := make([]sim.Time, len(sends))
	for i := 0; i < topo.NumNodes(); i++ {
		eng := engineOf(i)
		n.NIC(i).SetReceiver(func(src, size int, payload any) {
			out[payload.(int)] = eng.Now()
		})
	}
	for _, s := range sends {
		engineOf(s.src).ScheduleAt(s.at, sim.PrioLink, func(any) {
			if snapshots {
				n.NIC(s.src).SendTimed(s.dst, s.size, s.id)
			} else {
				n.NIC(s.src).Send(s.dst, s.size, s.id, nil)
			}
		}, nil)
	}
	if _, err := runner.RunAll(); err != nil {
		t.Fatal(err)
	}
	if got := n.Messages(); got != uint64(len(sends)) {
		t.Fatalf("delivered %d/%d messages", got, len(sends))
	}
	return out
}

func samePlanTimes(t *testing.T, what string, got, want []sim.Time) {
	t.Helper()
	for i := range want {
		if want[i] == 0 {
			t.Fatalf("reference message %d undelivered", i)
		}
		if got[i] != want[i] {
			t.Fatalf("%s: message %d delivered at %v, single engine at %v", what, i, got[i], want[i])
		}
	}
}

func TestDistributedMatchesSequential(t *testing.T) {
	topo, err := NewTorus3D(4, 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	sends := plan(topo.NumNodes(), 4)
	seq := runSequential(t, topo, cfg, sends)
	for _, nranks := range []int{1, 2, 4, 8} {
		samePlanTimes(t, "partitioned", runPartitioned(t, topo, cfg, sends, nranks, false), seq)
	}
}

func TestDistributedDeterminism(t *testing.T) {
	topo, _ := NewTorus3D(4, 2, 1)
	sends := plan(topo.NumNodes(), 6)
	a := runPartitioned(t, topo, DefaultConfig(), sends, 4, false)
	b := runPartitioned(t, topo, DefaultConfig(), sends, 4, false)
	samePlanTimes(t, "rerun", b, a)
}

func TestDistributedFatTree(t *testing.T) {
	topo, _ := NewFatTree(4, 4, 4)
	sends := plan(topo.NumNodes(), 2)
	seq := runSequential(t, topo, DefaultConfig(), sends)
	samePlanTimes(t, "fat tree", runPartitioned(t, topo, DefaultConfig(), sends, 3, false), seq)
}

// TestSnapshotBuilderMatchesPlain: the snapshot-enabled fabric (tracked
// event sets, SendTimed) must deliver at the single-engine times too.
func TestSnapshotBuilderMatchesPlain(t *testing.T) {
	topo, _ := NewTorus3D(4, 2, 1)
	sends := plan(topo.NumNodes(), 3)
	seq := runSequential(t, topo, DefaultConfig(), sends)
	samePlanTimes(t, "snapshots on", runPartitioned(t, topo, DefaultConfig(), sends, 4, true), seq)
}

func TestDistributedValidation(t *testing.T) {
	runner, _ := par.NewRunner(2)
	topo, _ := NewMesh2D(2, 2)
	cfg := DefaultConfig()
	cfg.LinkLatency, cfg.RouterLatency = 0, 0
	if _, err := NewPartitionedNetwork(runner, topo, cfg, nil); err == nil {
		t.Error("zero lookahead accepted")
	}
	if _, err := NewPartitionedNetwork(runner, topo, DefaultConfig(), func(int) int { return 99 }); err == nil {
		t.Error("invalid partition accepted")
	}
	bad := DefaultConfig()
	bad.LinkBandwidth = 0
	if _, err := NewPartitionedNetwork(runner, topo, bad, nil); err == nil {
		t.Error("invalid net config accepted")
	}
}

func TestDistributedAccessors(t *testing.T) {
	runner, _ := par.NewRunner(2)
	topo, _ := NewMesh2D(4, 1)
	n, err := NewPartitionedNetwork(runner, topo, DefaultConfig(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if n.Topology() != topo || n.NIC(1).Node() != 1 || n.RankOfNode(1) != 1 || n.RankOfNode(2) != 0 {
		t.Error("accessors")
	}
	// Loopback send on a live runner.
	got := false
	n.NIC(0).SetReceiver(func(src, size int, payload any) { got = src == 0 })
	runner.Rank(0).Engine().Schedule(0, func(any) {
		n.NIC(0).Send(0, 64, nil, nil)
	}, nil)
	if _, err := runner.RunAll(); err != nil {
		t.Fatal(err)
	}
	if !got {
		t.Fatal("loopback failed")
	}
	if n.BytesDelivered() != 64 || n.MessageLatencyMean() <= 0 {
		t.Error("stats roll-up")
	}
}

// twoQueued reports whether, after a run to cut, some NIC lane and some
// lane of a link within one rank provably still hold two packets. A
// producer's k-th entry runs a constant latency after freeAt_k =
// max(now, freeAt_k-1) + ser_k, scheduled at some now <= cut, so when its
// freeAt lies more than one full packet's serialization past the cut, its
// last two entries both run after it.
func twoQueued(n *Network, cut sim.Time) (nic, link bool) {
	for _, nc := range n.nics {
		nic = nic || nc.freeAt > cut+serialize(n.cfg.MaxPacketBytes, n.cfg.InjectionBandwidth)
	}
	for a, outs := range n.links {
		for _, o := range outs {
			local := n.part[a] == n.part[o.next]
			link = link || local && o.link.freeAt > cut+serialize(n.cfg.MaxPacketBytes, n.cfg.LinkBandwidth)
		}
	}
	return nic, link
}

// TestSnapshotWithQueuedLanes cuts a snapshot while NIC and link lanes hold
// queued packets, at one and at two ranks: every node sends a burst of
// multi-packet messages at time zero, so each NIC's lane holds a message's
// worth of injections and the links toward the hot destinations queue
// arrivals behind one another. The restored twin must re-save the same
// bytes and deliver every later message at the uninterrupted run's time.
func TestSnapshotWithQueuedLanes(t *testing.T) {
	topo, err := NewTorus3D(4, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	const perNode = 4
	msgs := topo.NumNodes() * perNode
	// build makes a snapshot-enabled network whose receivers log each
	// message's delivery time by id into out.
	build := func(nranks int, out []sim.Time) (*par.Runner, *Network) {
		runner, err := par.NewRunner(nranks)
		if err != nil {
			t.Fatal(err)
		}
		runner.EnableSnapshots()
		// Contiguous blocks of routers per rank: x-rings stay on one rank,
		// so their links queue on lanes while y-links cross ranks.
		n, err := NewPartitionedNetwork(runner, topo, cfg, func(r int) int { return r * nranks / topo.NumRouters() })
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < topo.NumNodes(); i++ {
			eng := runner.Rank(n.RankOfNode(i)).Engine()
			n.NIC(i).SetReceiver(func(src, size int, payload any) {
				out[payload.(int)] = eng.Now()
			})
		}
		return runner, n
	}
	send := func(n *Network) {
		for i := 0; i < topo.NumNodes(); i++ {
			for m := 0; m < perNode; m++ {
				n.NIC(i).SendTimed((i+1+m%2)%topo.NumNodes(), 3*cfg.MaxPacketBytes+100*i, i*perNode+m)
			}
		}
	}
	for _, nranks := range []int{1, 2} {
		want := make([]sim.Time, msgs)
		ref, refNet := build(nranks, want)
		send(refNet)
		if _, err := ref.RunAll(); err != nil {
			t.Fatal(err)
		}

		cutLog := make([]sim.Time, msgs)
		cut, cutNet := build(nranks, cutLog)
		send(cutNet)
		barrier := slices.Max(want) / 4
		if _, err := cut.Run(barrier); err != nil {
			t.Fatal(err)
		}
		if nic, link := twoQueued(cutNet, barrier); !nic || !link {
			t.Fatalf("nranks=%d: at the cut a NIC lane holds two packets: %v, a link lane: %v; want both",
				nranks, nic, link)
		}
		var file bytes.Buffer
		if err := cut.SaveTo(&file); err != nil {
			t.Fatalf("nranks=%d: SaveTo: %v", nranks, err)
		}

		got := make([]sim.Time, msgs)
		restored, _ := build(nranks, got)
		if err := restored.LoadFrom(bytes.NewReader(file.Bytes())); err != nil {
			t.Fatalf("nranks=%d: LoadFrom: %v", nranks, err)
		}
		var resaved bytes.Buffer
		if err := restored.SaveTo(&resaved); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(resaved.Bytes(), file.Bytes()) {
			t.Fatalf("nranks=%d: restored state re-saves to different bytes", nranks)
		}
		if _, err := restored.RunAll(); err != nil {
			t.Fatal(err)
		}
		later := 0
		for id := range want {
			if want[id] <= barrier {
				continue // delivered before the cut
			}
			later++
			if got[id] != want[id] {
				t.Fatalf("nranks=%d: message %d delivered at %v after restore, %v uninterrupted", nranks, id, got[id], want[id])
			}
		}
		if later == 0 {
			t.Fatalf("nranks=%d: every message was delivered before the cut; test is vacuous", nranks)
		}
	}
}
