package par

import "sst/internal/sim"

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
// That is what keeps results bit-identical between rank counts, whose
// window boundaries differ, and what matches the sequential
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
