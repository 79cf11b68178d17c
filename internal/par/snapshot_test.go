package par

// Kill-at-a-random-barrier tests: the determinism harness's randomized
// topologies are run with snapshots enabled, "crashed" at a seed-derived
// barrier, restored into a freshly built runner, and continued — and every
// signature must be bit-identical to the uninterrupted sequential
// reference, at 1/2/4/8 ranks.

import (
	"bytes"
	"errors"
	"testing"

	"sst/internal/sim"
)

func init() {
	sim.RegisterPayload("par.detToken", detToken{},
		func(e *sim.Encoder, v any) {
			tok := v.(detToken)
			e.U64(tok.id)
			e.I64(int64(tok.hops))
		},
		func(d *sim.Decoder) (any, error) {
			return detToken{id: d.U64(), hops: int(d.I64())}, d.Err()
		})
}

// SaveState makes detNode checkpointable; its pending sends are owned by
// the links (think-time sends are in-flight link deliveries), so the node
// itself carries only its arrival signature.
func (n *detNode) SaveState(enc *sim.Encoder) {
	enc.U64(n.count)
	enc.U64(n.sum)
	enc.Time(n.last)
}

func (n *detNode) LoadState(dec *sim.Decoder) error {
	n.count = dec.U64()
	n.sum = dec.U64()
	n.last = dec.Time()
	return dec.Err()
}

// detInjector owns one rank's token injections as checkpointable events:
// the payload is the injection's index into the topology description, so a
// restored injector re-creates exactly the pending ones.
type detInjector struct {
	name string
	set  *sim.EventSet
}

func (ij *detInjector) Name() string                     { return ij.name }
func (ij *detInjector) SaveState(enc *sim.Encoder)       { ij.set.Save(enc) }
func (ij *detInjector) LoadState(dec *sim.Decoder) error { return ij.set.Load(dec) }
func (ij *detInjector) PendingOwned() int                { return ij.set.PendingOwned() }

// buildDetTopoSnap is buildDetTopo with injections routed through per-rank
// detInjectors instead of raw closures (which no component owns and which a
// snapshot therefore rejects). Relative injection order per engine is
// unchanged, so results match the raw builder bit-for-bit.
func buildDetTopoSnap(t *testing.T, r *Runner, tp detTopo) []*detNode {
	t.Helper()
	nodes := buildDetNodes(t, r, tp)
	nranks := r.NumRanks()
	rankOf := func(i int) int { return i % nranks }
	for rank := 0; rank < nranks; rank++ {
		ij := &detInjector{name: "inject" + itoa(rank)}
		ij.set = sim.NewEventSet(r.Rank(rank).Engine(), ij.name, func(p any) {
			inj := tp.inject[p.(int)]
			nodes[inj.node].recv(detToken{id: inj.id, hops: inj.hops})
		})
		r.Rank(rank).Add(ij)
		for idx, inj := range tp.inject {
			if rankOf(inj.node) == rank {
				ij.set.ScheduleAt(inj.at, sim.PrioLink, idx)
			}
		}
	}
	return nodes
}

// detBarrier derives the seed's "random" crash barrier: arbitrary but
// reproducible, inside the busy phase of most topologies.
func detBarrier(seed int) sim.Time {
	return sim.Time(150+(seed*7919)%1100) * sim.Nanosecond
}

// runDetTopoKillRestore runs a topology to the barrier, snapshots, discards
// the runner, rebuilds, restores, and finishes the run. The event total
// comes from restored Metrics counters — it must equal the uninterrupted
// run's total.
func runDetTopoKillRestore(t *testing.T, tp detTopo, nranks int, barrier sim.Time) detSig {
	t.Helper()
	r1, err := NewRunner(nranks)
	if err != nil {
		t.Fatal(err)
	}
	r1.EnableSnapshots()
	buildDetTopoSnap(t, r1, tp)
	if _, err := r1.Run(barrier); err != nil {
		t.Fatal(err)
	}
	var file bytes.Buffer
	if err := r1.SaveTo(&file); err != nil {
		t.Fatalf("SaveTo: %v", err)
	}
	// r1 is dead now: the crash. Rebuild and restore.
	r2, err := NewRunner(nranks)
	if err != nil {
		t.Fatal(err)
	}
	r2.EnableSnapshots()
	nodes := buildDetTopoSnap(t, r2, tp)
	if err := r2.LoadFrom(bytes.NewReader(file.Bytes())); err != nil {
		t.Fatalf("LoadFrom: %v", err)
	}
	if r2.Now() != barrier {
		t.Fatalf("restored base %v, want %v", r2.Now(), barrier)
	}
	if _, err := r2.RunAll(); err != nil {
		t.Fatal(err)
	}
	var total uint64
	for _, rm := range r2.Metrics().Ranks {
		total += rm.Events
	}
	sig := detSig{Total: total, Nodes: make([]nodeSig, len(nodes))}
	for i, nd := range nodes {
		sig.Nodes[i] = nodeSig{Count: nd.count, Sum: nd.sum, Last: nd.last}
	}
	return sig
}

// TestKillRestoreDeterminism is the headline crash-safety property: kill at
// a barrier, restore, continue — bit-identical to the uninterrupted
// sequential reference at every rank count.
func TestKillRestoreDeterminism(t *testing.T) {
	seeds := 6
	if testing.Short() {
		seeds = 2
	}
	for s := 0; s < seeds; s++ {
		seed := 9000 + s
		tp := genDetTopo(int64(seed))
		ref := runDetTopo(t, tp, 1, 0)
		barrier := detBarrier(seed)
		for _, nranks := range detRankCounts {
			got := runDetTopoKillRestore(t, tp, nranks, barrier)
			diffSig(t, "kill-restore seed "+itoa(seed)+" ranks "+itoa(nranks), got, ref)
		}
	}
}

// TestSnapshotBuilderNonIntrusive proves the snapshot-owned builder (event
// sets, link tracking) does not perturb results relative to the raw one.
func TestSnapshotBuilderNonIntrusive(t *testing.T) {
	tp := genDetTopo(9000)
	ref := runDetTopo(t, tp, 4, 0)
	r, err := NewRunner(4)
	if err != nil {
		t.Fatal(err)
	}
	r.EnableSnapshots()
	nodes := buildDetTopoSnap(t, r, tp)
	total, err := r.RunAll()
	if err != nil {
		t.Fatal(err)
	}
	got := detSig{Total: total, Nodes: make([]nodeSig, len(nodes))}
	for i, nd := range nodes {
		got.Nodes[i] = nodeSig{Count: nd.count, Sum: nd.sum, Last: nd.last}
	}
	diffSig(t, "snapshot-enabled builder", got, ref)
}

// TestSnapshotRejectsMidRunState covers the quiescence preconditions: a
// runner that was interrupted mid-run refuses to snapshot.
func TestSnapshotRejectsInterrupted(t *testing.T) {
	tp := genDetTopo(9001)
	r, err := NewRunner(4)
	if err != nil {
		t.Fatal(err)
	}
	r.EnableSnapshots()
	buildDetTopoSnap(t, r, tp)
	// Interrupt from inside the simulation: deterministic, mid-window.
	r.Rank(1).Engine().ScheduleAt(200*sim.Nanosecond, sim.PrioLink, func(any) {
		r.Interrupt()
	}, nil)
	_, err = r.RunAll()
	if !errors.Is(err, sim.ErrInterrupted) {
		t.Fatalf("err = %v, want sim.ErrInterrupted", err)
	}
	if err := r.Snapshot(sim.NewEncoder()); err == nil {
		t.Fatal("snapshot of an interrupted runner not rejected")
	}
}

// TestInterruptPairwiseMultiRank exercises Engine.Interrupt's cooperative
// stop across several ranks: the interrupt lands
// mid-window, every rank parks, the run reports sim.ErrInterrupted, and a
// fresh run of the same topology is unaffected.
func TestInterruptPairwiseMultiRank(t *testing.T) {
	tp := genDetTopo(9002)
	ref := runDetTopo(t, tp, 1, 0)
	for _, nranks := range []int{2, 4, 8} {
		r, err := NewRunner(nranks)
		if err != nil {
			t.Fatal(err)
		}
		nodes := buildDetTopo(t, r, tp)
		r.Rank(nranks-1).Engine().ScheduleAt(300*sim.Nanosecond, sim.PrioLink, func(any) {
			r.Interrupt()
		}, nil)
		if _, err := r.RunAll(); !errors.Is(err, sim.ErrInterrupted) {
			t.Fatalf("ranks %d: err = %v, want sim.ErrInterrupted", nranks, err)
		}
		// The interrupted run stopped early: strictly fewer arrivals than
		// the full reference on at least one node (unless the reference
		// finished before the interrupt time, which these seeds do not).
		var refCount, gotCount uint64
		for i, nd := range nodes {
			refCount += ref.Nodes[i].Count
			gotCount += nd.count
		}
		if gotCount >= refCount {
			t.Fatalf("ranks %d: interrupt did not cut the run short (%d >= %d arrivals)", nranks, gotCount, refCount)
		}
		// A fresh runner over the same topology still matches the reference:
		// interruption poisons nothing beyond the interrupted runner.
		diffSig(t, "post-interrupt rerun ranks "+itoa(nranks),
			runDetTopo(t, tp, nranks, 0), ref)
	}
}
