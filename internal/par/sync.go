package par

import (
	"fmt"
	"strings"

	"sst/internal/sim"
)

// SyncMode selects whether ranks stop at their conservative horizons or
// may run past them.
type SyncMode int

const (
	// SyncPairwise derives each rank's horizon from the pairwise lookahead
	// matrix: rank i may advance to min over ranks j that can reach it of
	// (j's next-event time + the shortest-path latency j→i). Ranks coupled
	// only through high-latency links get wide windows regardless of how
	// small the minimum latency elsewhere in the machine is. This is the
	// default.
	SyncPairwise SyncMode = iota
	// SyncSpeculative lets ranks execute optimistically past their pairwise
	// horizon, checkpointing engine state through the snapshot codec at leg
	// boundaries. A straggler cross-rank event triggers a rollback to the
	// last checkpoint at or below the committed frontier and a deterministic
	// replay; only committed events are ever released to other ranks, so no
	// anti-messages exist. A per-rank governor demotes a rank whose
	// rollback rate spikes to its pairwise horizon for a cooldown, then
	// re-promotes it; the decision depends only on simulation content, so
	// results stay bit-identical to pairwise. Requires EnableSnapshots and
	// a fully checkpointable model when cross-rank links are present.
	SyncSpeculative
)

// syncModeNames is the registry of mode spellings, indexed by SyncMode.
// String, ParseSyncMode and SyncModeNames all derive from it, so the CLI
// flag help, the parser and its error message can never drift apart.
var syncModeNames = [...]string{
	SyncPairwise:    "pairwise",
	SyncSpeculative: "speculative",
}

// SyncModeNames returns the flag spellings of every registered mode, in
// declaration order. CLI flag help should be built from this list.
func SyncModeNames() []string {
	return append([]string(nil), syncModeNames[:]...)
}

// String returns the flag spelling of the mode.
func (m SyncMode) String() string {
	if int(m) >= 0 && int(m) < len(syncModeNames) {
		return syncModeNames[m]
	}
	return fmt.Sprintf("SyncMode(%d)", int(m))
}

// ParseSyncMode parses a -sync flag value. The error lists every valid
// spelling so a typo on the command line is self-correcting.
func ParseSyncMode(s string) (SyncMode, error) {
	for m, name := range syncModeNames {
		if s == name {
			return SyncMode(m), nil
		}
	}
	return 0, fmt.Errorf("par: unknown sync mode %q (want %s)", s, strings.Join(syncModeNames[:], ", "))
}

// SetSyncMode selects the synchronization mode for subsequent Run calls.
// Both modes produce bit-identical simulation results; they differ only in
// how far each rank may run between barriers and whether that execution is
// provisional (speculative) or final (pairwise). Must not be called while a
// Run is in flight.
func (r *Runner) SetSyncMode(m SyncMode) { r.mode = m }

// recordLink folds one cross-rank link into the direct-latency adjacency
// used to build the pairwise lookahead matrix.
func (r *Runner) recordLink(a, b int, latency sim.Time) {
	if latency < r.minLat[a][b] {
		r.minLat[a][b] = latency
		r.minLat[b][a] = latency
	}
	r.laDirty = true
}

// lookaheadMatrix returns the pairwise lookahead matrix la[src][dst]: the
// minimum latency over all link paths from a rank to another, i.e. the
// earliest any event leaving src's current base time could affect dst —
// including transitively, through handlers on intermediate ranks that
// forward with zero think time. Entries are sim.TimeInfinity for rank pairs
// with no connecting path and 0 on the diagonal. The matrix is recomputed
// (Floyd–Warshall over the direct-link adjacency, O(ranks³)) only when
// Connect has added links since the last call.
func (r *Runner) lookaheadMatrix() [][]sim.Time {
	if !r.laDirty && r.la != nil {
		return r.la
	}
	n := len(r.ranks)
	la := make([][]sim.Time, n)
	for i := range la {
		la[i] = append([]sim.Time(nil), r.minLat[i]...)
		la[i][i] = 0
	}
	for k := 0; k < n; k++ {
		for i := 0; i < n; i++ {
			ik := la[i][k]
			if ik == sim.TimeInfinity {
				continue
			}
			for j := 0; j < n; j++ {
				kj := la[k][j]
				if kj == sim.TimeInfinity {
					continue
				}
				if s := ik + kj; s >= ik && s < la[i][j] {
					la[i][j] = s
				}
			}
		}
	}
	r.la, r.laDirty = la, false
	return la
}

// rankLookahead is the width of rank i's inbound constraint: the minimum
// pairwise lookahead over ranks that can reach it. TimeInfinity when
// nothing can.
func (r *Runner) rankLookahead(la [][]sim.Time, i int) sim.Time {
	min := sim.TimeInfinity
	for j := range la {
		if j == i {
			continue
		}
		if l := la[j][i]; l < min {
			min = l
		}
	}
	return min
}

// remoteHeap is a per-destination staging min-heap of remote events in
// canonical (time, sent, srcRank, seq) order. Events parked here at an
// exchange are scheduled into the destination engine only once the
// destination's window horizon passes their timestamp, so the insertion
// order seen by the engine — and therefore same-timestamp tie-breaking —
// is identical no matter which barrier round carried the event across.
// That is what keeps results bit-identical between rank counts and sync
// modes, whose window boundaries differ, and what matches the sequential
// reference, which inserts each delivery into the queue at its send time.
type remoteHeap []remoteEvent

func remoteLess(a, b *remoteEvent) bool {
	if a.time != b.time {
		return a.time < b.time
	}
	if a.sent != b.sent {
		return a.sent < b.sent
	}
	if a.srcRank != b.srcRank {
		return a.srcRank < b.srcRank
	}
	return a.seq < b.seq
}

// minTime returns the earliest staged timestamp, or TimeInfinity.
func (h remoteHeap) minTime() sim.Time {
	if len(h) == 0 {
		return sim.TimeInfinity
	}
	return h[0].time
}

func (h *remoteHeap) push(ev remoteEvent) {
	q := append(*h, ev)
	i := len(q) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !remoteLess(&q[i], &q[p]) {
			break
		}
		q[i], q[p] = q[p], q[i]
		i = p
	}
	*h = q
}

func (h *remoteHeap) pop() remoteEvent {
	q := *h
	top := q[0]
	n := len(q) - 1
	q[0] = q[n]
	q[n] = remoteEvent{} // release payload/port references
	q = q[:n]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		min := i
		if l < n && remoteLess(&q[l], &q[min]) {
			min = l
		}
		if r < n && remoteLess(&q[r], &q[min]) {
			min = r
		}
		if min == i {
			break
		}
		q[i], q[min] = q[min], q[i]
		i = min
	}
	*h = q
	return top
}
