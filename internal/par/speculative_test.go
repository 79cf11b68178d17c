package par

// Rollback-storm and replay-correctness tests for speculative sync. The
// determinism harness (determinism_test.go) proves speculation is
// invisible in the results; the tests here prove the opposite side of the
// contract — that under a hostile workload speculation actually happens,
// stays within its memory budget, keeps making forward progress, and that
// the governor notices a storm and demotes.

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"sst/internal/sim"
)

// stormTopo is a deliberately hostile machine for optimistic sync: a
// 4-node all-cross ring (node i on rank i%2, so every ring hop changes
// ranks) at the minimum 1ns latency, zero think time, and a burst of
// staggered token injections so both ranks always have local work to
// mis-execute ahead of a straggler. Lookahead 1ns with defaultSpecLeap 8
// means every leg outruns the neighbor's sends by ~8ns — a sustained
// rollback storm.
func stormTopo() detTopo {
	tp := detTopo{nodes: 4}
	for i := 0; i < 4; i++ {
		tp.rings = append(tp.rings, 1*sim.Nanosecond)
		tp.think = append(tp.think, 0)
		tp.kill = append(tp.kill, sim.TimeInfinity)
	}
	for i := 0; i < 8; i++ {
		tp.inject = append(tp.inject, detInjection{
			node: i % 4,
			at:   sim.Time(i) * sim.Nanosecond,
			hops: 500,
			id:   0x5707_0000 + uint64(i),
		})
	}
	return tp
}

// runStorm runs the storm topology at 2 ranks under speculative sync with
// the snapshot-owned builder (speculation needs checkpointable models),
// checks the result is bit-identical to the sequential reference, and
// returns the runner for metrics and peak inspection.
func runStorm(t *testing.T) *Runner {
	t.Helper()
	tp := stormTopo()
	ref := runDetTopo(t, tp, 1, SyncPairwise, 0)
	r, err := NewRunner(2)
	if err != nil {
		t.Fatal(err)
	}
	r.SetSyncMode(SyncSpeculative)
	r.watchdog = 10 * time.Second
	r.EnableSnapshots()
	nodes := buildDetTopoSnap(t, r, tp)
	total, err := r.RunAll()
	if err != nil {
		t.Fatalf("storm run: %v", err)
	}
	sig := detSig{Total: total, Nodes: make([]nodeSig, len(nodes))}
	for i, nd := range nodes {
		sig.Nodes[i] = nodeSig{Count: nd.count, Sum: nd.sum, Last: nd.last}
	}
	diffSig(t, "rollback storm", sig, ref)
	m := r.Metrics()
	t.Logf("storm: %d rollbacks, %d events replayed, %d fallbacks, %d promotions",
		m.Rollbacks, m.Replayed, m.Fallbacks, m.Promotions)
	return r
}

// TestRollbackStorm drives the zero-slack chatty topology under speculative
// sync and asserts the storm actually happened (sustained rollbacks), the
// run still finished correctly (no watchdog trip, results bit-identical to
// the sequential reference), and the speculative memory stayed within its
// configured budget: checkpoint count never exceeded the depth cap and the
// delivered-log high-water mark stayed bounded rather than scaling with
// the run length.
func TestRollbackStorm(t *testing.T) {
	r := runStorm(t)
	m := r.Metrics()
	if m.Rollbacks < 20 {
		t.Errorf("storm produced only %d rollbacks; topology no longer provokes speculation", m.Rollbacks)
	}
	if m.Replayed < m.Rollbacks {
		t.Errorf("replayed %d < rollbacks %d: every rollback replays at least one event", m.Replayed, m.Rollbacks)
	}
	for _, rk := range r.ranks {
		if rk.specPeakCkpts > defaultSpecDepth {
			t.Errorf("rank %d held %d checkpoints, cap %d", rk.id, rk.specPeakCkpts, defaultSpecDepth)
		}
		// The delivered log only spans the uncommitted window (≤ depth
		// legs of ≤ leap×lookahead each); at ~8 deliveries/ns that is a
		// few hundred entries. 4096 is an order of magnitude of slack
		// while still catching a log that scales with the ~4000-event run.
		if rk.specPeakLog > 4096 {
			t.Errorf("rank %d delivered-log peak %d: speculative memory is unbounded", rk.id, rk.specPeakLog)
		}
		if rk.rollbacks > 0 && rk.specPeakBytes == 0 {
			t.Errorf("rank %d rolled back %d times with zero checkpoint bytes recorded", rk.id, rk.rollbacks)
		}
	}
}

// TestRollbackStormAdaptive runs the same storm and checks the governor
// that every speculative run carries: it must detect the rollback spike
// and demote the rank to conservative legs (surfacing as at least one
// fallback) within a bounded number of rounds, re-promote only after a
// demotion, and still finish bit-identical to the reference.
func TestRollbackStormAdaptive(t *testing.T) {
	r := runStorm(t)
	m := r.Metrics()
	if m.Fallbacks == 0 {
		t.Errorf("governor never demoted during a storm of %d rollbacks", m.Rollbacks)
	}
	for _, rk := range r.ranks {
		if rk.promotions > rk.fallbacks {
			t.Errorf("rank %d: %d promotions but only %d demotions", rk.id, rk.promotions, rk.fallbacks)
		}
		// Demotion must engage within the governor's detection latency: a
		// rank cannot accumulate more than one governor window's worth of
		// rollbacks per demote-promote cycle, so the per-rank total is
		// bounded by cycles × window rather than by the run length.
		cycles := rk.fallbacks + 1 // +1 for the window that first trips
		if max := (cycles + rk.promotions) * govWindow; rk.rollbacks > max {
			t.Errorf("rank %d: %d rollbacks across %d demotions — governor reacted too slowly (bound %d)",
				rk.id, rk.rollbacks, rk.fallbacks, max)
		}
	}
}

// TestParseSyncMode pins the mode registry round-trip: every registered
// mode parses back from its String form, and garbage — including the
// retired "global" and "adaptive" spellings — is rejected with an error
// that names every valid spelling (the CLI -sync flag help is generated
// from the same registry).
func TestParseSyncMode(t *testing.T) {
	names := SyncModeNames()
	if len(names) != len(allSyncModes) {
		t.Fatalf("SyncModeNames lists %d modes, registry has %d", len(names), len(allSyncModes))
	}
	for _, m := range allSyncModes {
		got, err := ParseSyncMode(m.String())
		if err != nil {
			t.Errorf("ParseSyncMode(%q): %v", m.String(), err)
		}
		if got != m {
			t.Errorf("ParseSyncMode(%q) = %v, want %v", m.String(), got, m)
		}
	}
	for _, bad := range []string{"", "bogus", "Speculative", "time-warp", "pairwise ", "global", "adaptive"} {
		_, err := ParseSyncMode(bad)
		if err == nil {
			t.Errorf("ParseSyncMode(%q) accepted garbage", bad)
			continue
		}
		for _, name := range names {
			if !strings.Contains(err.Error(), name) {
				t.Errorf("ParseSyncMode(%q) error %q does not list valid mode %q", bad, err, name)
			}
		}
	}
}

// runSpecFuzz runs one fuzz configuration with the snapshot-owned builder
// and explicit leap/depth knobs (0 keeps the default), returning the
// signature and the nodes for byte-level state comparison.
func runSpecFuzz(t *testing.T, tp detTopo, nranks int, mode SyncMode, leap, depth int) (detSig, []*detNode) {
	t.Helper()
	r, err := NewRunner(nranks)
	if err != nil {
		t.Fatal(err)
	}
	r.SetSyncMode(mode)
	if leap > 0 {
		r.specLeap = leap
	}
	if depth > 0 {
		r.specDepth = depth
	}
	r.EnableSnapshots()
	nodes := buildDetTopoSnap(t, r, tp)
	total, err := r.RunAll()
	if err != nil {
		t.Fatal(err)
	}
	sig := detSig{Total: total, Nodes: make([]nodeSig, len(nodes))}
	for i, nd := range nodes {
		sig.Nodes[i] = nodeSig{Count: nd.count, Sum: nd.sum, Last: nd.last}
	}
	return sig, nodes
}

// FuzzSpeculativeReplay fuzzes the checkpoint→straggler→rollback→replay
// cycle: a seeded random topology is run optimistically at a fuzzed rank
// count (2, 4 or 8, chosen by sel) with fuzzed leap and depth knobs
// (including the degenerate leap=1/depth=1 corner, which checkpoints every
// leg) and compared against a straight-line conservative run of the
// identical machine — first by order-insensitive signature
// against the sequential reference, then byte-for-byte on every node's
// serialized state against a pairwise run at the same rank count. Any
// delivery lost, duplicated, reordered into visibility, or re-executed
// with different state by the replay path changes the node bytes.
func FuzzSpeculativeReplay(f *testing.F) {
	f.Add(int64(9000), uint8(8), uint8(4), uint8(0))
	f.Add(int64(9001), uint8(1), uint8(1), uint8(1))
	f.Add(int64(9017), uint8(3), uint8(2), uint8(2))
	f.Add(int64(424242), uint8(16), uint8(8), uint8(1))
	f.Fuzz(func(t *testing.T, seed int64, leap, depth, sel uint8) {
		nranks := []int{2, 4, 8}[int(sel)%3]
		tp := genDetTopo(seed)
		ref := runDetTopo(t, tp, 1, SyncPairwise, 0)
		pwSig, pwNodes := runSpecFuzz(t, tp, nranks, SyncPairwise, 0, 0)
		diffSig(t, "fuzz pairwise baseline", pwSig, ref)
		spSig, spNodes := runSpecFuzz(t, tp, nranks, SyncSpeculative,
			1+int(leap)%32, 1+int(depth)%8)
		diffSig(t, "fuzz speculative", spSig, ref)
		for i := range spNodes {
			a, b := sim.NewEncoder(), sim.NewEncoder()
			spNodes[i].SaveState(a)
			pwNodes[i].SaveState(b)
			if !bytes.Equal(a.Bytes(), b.Bytes()) {
				t.Errorf("node %d state diverged after replay: % x vs straight-line % x",
					i, a.Bytes(), b.Bytes())
			}
		}
	})
}
