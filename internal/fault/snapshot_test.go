package fault

// Crash-safety of the fault layer: a faulty ring with a scheduled kill is
// snapshotted at a barrier, restored into a freshly built runner, and
// continued — and both the component states and the recorded fault traces
// must be byte-identical to the uninterrupted run, at every rank count,
// whether the kill was still pending or had already fired when the
// snapshot was taken.

import (
	"bytes"
	"fmt"
	"reflect"
	"testing"

	"sst/internal/par"
	"sst/internal/sim"
)

// ringNode checkpoint support; Add registers it automatically when the
// rank engine has snapshots enabled.
func (n *ringNode) SaveState(enc *sim.Encoder) {
	enc.U64(n.count)
	enc.U64(n.corrupted)
	enc.U64(n.sum)
	enc.Bool(n.dead)
}

func (n *ringNode) LoadState(dec *sim.Decoder) error {
	n.count = dec.U64()
	n.corrupted = dec.U64()
	n.sum = dec.U64()
	n.dead = dec.Bool()
	return dec.Err()
}

// Kill makes ringNode Killable: a dead node swallows every arrival, so the
// ring's tokens die at it and the outcome visibly depends on the kill.
func (n *ringNode) Kill() { n.dead = true }

// ringSig is one node's full result signature including liveness.
type ringSig struct {
	Count, Corrupted, Sum uint64
	Dead                  bool
}

const (
	ringKillNode = 5
	ringKillAt   = 1200 * sim.Nanosecond
)

// buildFaultyRingSnap is runFaultyRing's builder with snapshots enabled
// and a KillAt on one node, factored out so a run can be cut at a barrier
// and resumed on a fresh, identically built runner.
func buildFaultyRingSnap(t *testing.T, r *par.Runner, nnodes int, seed uint64) ([]*ringNode, []*LinkInjector, *KillRecord) {
	t.Helper()
	r.EnableSnapshots()
	nranks := r.NumRanks()
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
		inj.SetClocks(nodes[i].eng.Now, nodes[j].eng.Now)
		injs[i] = inj
	}
	r.Rank(0).Engine().Schedule(0, func(any) {
		for k := 0; k < 8; k++ {
			nodes[0].out.Send(k * 1000)
		}
	}, nil)
	rec, err := KillAt(r.Rank(rankOf(ringKillNode)), nodes[ringKillNode].name, ringKillAt)
	if err != nil {
		t.Fatal(err)
	}
	return nodes, injs, rec
}

func ringSigs(nodes []*ringNode) []ringSig {
	sigs := make([]ringSig, len(nodes))
	for i, n := range nodes {
		sigs[i] = ringSig{Count: n.count, Corrupted: n.corrupted, Sum: n.sum, Dead: n.dead}
	}
	return sigs
}

func ringTraces(injs []*LinkInjector) []Trace {
	traces := make([]Trace, len(injs))
	for i, inj := range injs {
		traces[i] = inj.TraceA()
	}
	return traces
}

// runFaultyRingSnapRef runs the killable faulty ring uninterrupted.
func runFaultyRingSnapRef(t *testing.T, nranks, nnodes int, seed uint64) ([]ringSig, []Trace) {
	t.Helper()
	r, err := par.NewRunner(nranks)
	if err != nil {
		t.Fatal(err)
	}
	nodes, injs, rec := buildFaultyRingSnap(t, r, nnodes, seed)
	if _, err := r.Run(2 * sim.Millisecond); err != nil {
		t.Fatal(err)
	}
	if !rec.Done {
		t.Fatalf("kill of %s never fired", nodes[ringKillNode].name)
	}
	return ringSigs(nodes), ringTraces(injs)
}

// runFaultyRingKillRestore cuts the run at the barrier, snapshots, rebuilds
// from scratch, restores, and finishes.
func runFaultyRingKillRestore(t *testing.T, nranks, nnodes int, seed uint64, barrier sim.Time) ([]ringSig, []Trace) {
	t.Helper()
	r1, err := par.NewRunner(nranks)
	if err != nil {
		t.Fatal(err)
	}
	buildFaultyRingSnap(t, r1, nnodes, seed)
	if _, err := r1.Run(barrier); err != nil {
		t.Fatal(err)
	}
	var file bytes.Buffer
	if err := r1.SaveTo(&file); err != nil {
		t.Fatalf("SaveTo: %v", err)
	}
	r2, err := par.NewRunner(nranks)
	if err != nil {
		t.Fatal(err)
	}
	nodes, injs, rec := buildFaultyRingSnap(t, r2, nnodes, seed)
	if err := r2.LoadFrom(bytes.NewReader(file.Bytes())); err != nil {
		t.Fatalf("LoadFrom: %v", err)
	}
	if rec.Done != (barrier > ringKillAt) {
		t.Fatalf("restored kill Done = %v at barrier %v (kill at %v)", rec.Done, barrier, ringKillAt)
	}
	if _, err := r2.Run(2 * sim.Millisecond); err != nil {
		t.Fatal(err)
	}
	if !rec.Done {
		t.Fatal("restored kill never fired")
	}
	return ringSigs(nodes), ringTraces(injs)
}

// TestFaultKillRestoreDeterminism: the headline crash-safety property for
// the fault layer. Barrier 500ns snapshots with the kill still pending
// (KillRecord re-creates it on restore); barrier 1500ns snapshots after it
// fired (the dead flag rides in the node state).
func TestFaultKillRestoreDeterminism(t *testing.T) {
	const nnodes = 12
	const seed = 2024
	refStates, refTraces := runFaultyRingSnapRef(t, 1, nnodes, seed)
	var total uint64
	for _, tr := range refTraces {
		total += uint64(len(tr))
	}
	if total == 0 {
		t.Fatal("reference run injected no faults; test is vacuous")
	}
	if !refStates[ringKillNode].Dead {
		t.Fatal("reference run's kill target survived; test is vacuous")
	}
	refBytes := fmt.Sprintf("%#v", refTraces)
	rankCounts := []int{1, 2, 4, 8}
	if testing.Short() {
		rankCounts = []int{1, 4}
	}
	for _, barrier := range []sim.Time{500 * sim.Nanosecond, 1500 * sim.Nanosecond} {
		for _, nranks := range rankCounts {
			states, traces := runFaultyRingKillRestore(t, nranks, nnodes, seed, barrier)
			label := fmt.Sprintf("barrier=%v nranks=%d", barrier, nranks)
			if !reflect.DeepEqual(states, refStates) {
				t.Errorf("%s: restored node state diverged\n got %+v\nwant %+v", label, states, refStates)
			}
			if got := fmt.Sprintf("%#v", traces); got != refBytes {
				t.Errorf("%s: restored fault trace diverged byte-for-byte", label)
			}
		}
	}
}

// TestCorruptedPayloadCodec round-trips a Corrupted wrapper through the
// snapshot payload registry (nested payload encoding).
func TestCorruptedPayloadCodec(t *testing.T) {
	enc := sim.NewEncoder()
	sim.EncodePayload(enc, Corrupted{Payload: uint64(42)})
	sim.EncodePayload(enc, Corrupted{Payload: nil})
	dec := sim.NewDecoder(enc.Bytes())
	v, err := sim.DecodePayload(dec)
	if err != nil {
		t.Fatal(err)
	}
	if got := v.(Corrupted).Payload.(uint64); got != 42 {
		t.Fatalf("round-tripped payload %d, want 42", got)
	}
	v, err = sim.DecodePayload(dec)
	if err != nil {
		t.Fatal(err)
	}
	if v.(Corrupted).Payload != nil {
		t.Fatalf("round-tripped nil payload became %#v", v.(Corrupted).Payload)
	}
}
