package fault

import (
	"fmt"
	"reflect"
	"testing"

	"sst/internal/par"
	"sst/internal/sim"
)

// ringNode forwards an incremented token around a ring and folds every
// arrival (value and arrival time) into a checksum, so any divergence in
// payload content, delivery time or delivery order changes its state.
type ringNode struct {
	name      string
	eng       *sim.Engine
	out       *sim.Port
	count     uint64
	corrupted uint64
	sum       uint64
	dead      bool
}

func (n *ringNode) Name() string { return n.name }

func (n *ringNode) recv(payload any) {
	if n.dead {
		return
	}
	v, ok := payload.(int)
	if !ok {
		n.corrupted++ // a Corrupted wrapper: count it, do not forward
		return
	}
	n.count++
	n.sum = n.sum*1099511628211 ^ (uint64(n.eng.Now()) + uint64(int64(v)))
	n.out.Send(v + 1)
}

type nodeState struct {
	Count, Corrupted, Sum uint64
}

// runFaultyRing builds an nnodes ring partitioned over nranks, injects
// identical seeded faults on every link, runs to a fixed horizon and
// returns per-node state plus the per-link forward-direction fault traces.
func runFaultyRing(t *testing.T, nranks, nnodes int, seed uint64) ([]nodeState, []Trace) {
	t.Helper()
	r, err := par.NewRunner(nranks)
	if err != nil {
		t.Fatal(err)
	}
	rankOf := func(i int) int { return i * nranks / nnodes }
	nodes := make([]*ringNode, nnodes)
	for i := range nodes {
		nodes[i] = &ringNode{
			name: "n" + string(rune('0'+i%10)) + string(rune('0'+i/10)),
			eng:  r.Rank(rankOf(i)).Engine(),
		}
		r.Rank(rankOf(i)).Add(nodes[i])
	}
	cfg := LinkFaults{
		DropP:    0.02,
		CorruptP: 0.05,
		DelayP:   0.2,
		MaxDelay: 7 * sim.Nanosecond,
		Record:   true,
	}
	injs := make([]*LinkInjector, nnodes)
	for i := range nodes {
		j := (i + 1) % nnodes
		// Link names depend only on the topology, never on the
		// partitioning: they key the fault streams.
		name := "ring" + nodes[i].name
		a, b, err := r.Connect(name, 10*sim.Nanosecond, rankOf(i), rankOf(j))
		if err != nil {
			t.Fatal(err)
		}
		nodes[i].out = a
		b.SetHandler(nodes[j].recv)
		a.SetHandler(func(any) {})
		inj, err := InjectLink(a.Link(), seed, cfg)
		if err != nil {
			t.Fatal(err)
		}
		// Each direction's trace clock must be the clock of the rank
		// that sends on it.
		inj.SetClocks(nodes[i].eng.Now, nodes[j].eng.Now)
		injs[i] = inj
	}
	// Several tokens launched from node 0; drops eventually kill them all,
	// at which point the ring goes globally idle.
	r.Rank(0).Engine().Schedule(0, func(any) {
		for k := 0; k < 8; k++ {
			nodes[0].out.Send(k * 1000)
		}
	}, nil)
	if _, err := r.Run(2 * sim.Millisecond); err != nil {
		t.Fatal(err)
	}
	states := make([]nodeState, nnodes)
	for i, n := range nodes {
		states[i] = nodeState{Count: n.count, Corrupted: n.corrupted, Sum: n.sum}
	}
	traces := make([]Trace, nnodes)
	for i, inj := range injs {
		traces[i] = inj.TraceA()
	}
	return states, traces
}

// TestFaultDeterminismAcrossRankCounts is the headline determinism
// guarantee: the same fault seed produces a byte-identical failure trace
// and field-identical component state whether the model runs on 1, 2 or 4
// ranks.
func TestFaultDeterminismAcrossRankCounts(t *testing.T) {
	const nnodes = 12
	refStates, refTraces := runFaultyRing(t, 1, nnodes, 2024)
	var total uint64
	for _, tr := range refTraces {
		total += uint64(len(tr))
	}
	if total == 0 {
		t.Fatal("reference run injected no faults; test is vacuous")
	}
	// Traces compare byte-for-byte: a rendered trace includes every field
	// of every record in order, so even a divergence reflect.DeepEqual
	// might normalize away (e.g. nil vs empty slice) fails loudly.
	refBytes := fmt.Sprintf("%#v", refTraces)
	for _, nranks := range []int{2, 4} {
		states, traces := runFaultyRing(t, nranks, nnodes, 2024)
		if !reflect.DeepEqual(states, refStates) {
			t.Errorf("nranks=%d: node state diverged from sequential run\n got %+v\nwant %+v",
				nranks, states, refStates)
		}
		if got := fmt.Sprintf("%#v", traces); got != refBytes {
			t.Errorf("nranks=%d: fault trace diverged from sequential run byte-for-byte", nranks)
		}
	}
	// And a different seed must actually change the outcome.
	other, _ := runFaultyRing(t, 1, nnodes, 2025)
	if reflect.DeepEqual(other, refStates) {
		t.Error("different fault seed produced identical results")
	}
}
