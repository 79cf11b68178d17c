package par

import (
	"fmt"
	"strings"
	"testing"

	"sst/internal/sim"
)

// FuzzPartitionLookahead feeds arbitrary byte strings through the
// rank-partitioning path (decoded as a rank count plus a list of links) and
// checks the invariants the conservative sync algorithm's safety rests on:
//
//   - a zero-latency cross-rank link is rejected with an error naming the
//     offending link (it would make the pairwise lookahead zero and the
//     window size degenerate);
//   - the derived lookahead matrix has a zero diagonal, is symmetric
//     (links are bidirectional), and every entry equals the true shortest
//     path over the accepted links — in particular it never exceeds any
//     single path's latency, because a lookahead larger than a real path
//     would let a rank run past an event that path can still deliver;
//   - entries are infinite exactly for disconnected rank pairs, and
//     strictly positive off the diagonal otherwise.
//
// The reference shortest paths are computed with per-source Bellman-Ford
// edge relaxation, deliberately a different algorithm from the runtime's
// Floyd-Warshall so the two cannot share a bug.
func FuzzPartitionLookahead(f *testing.F) {
	f.Add([]byte{})                               // no ranks decoded
	f.Add([]byte{0})                              // 2 ranks, no links
	f.Add([]byte{0, 0, 1, 10})                    // one 10ns cross link
	f.Add([]byte{0, 0, 1, 0})                     // zero-latency cross link: rejected
	f.Add([]byte{6, 0, 1, 5, 1, 2, 7, 3, 4, 9})   // 8 ranks, partly disconnected
	f.Add([]byte{2, 0, 0, 0, 1, 1, 3})            // self link with zero latency: fine
	f.Add([]byte{5, 0, 1, 1, 1, 2, 1, 2, 3, 255}) // chain with extreme latencies
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		nranks := 2 + int(data[0])%7
		r, err := NewRunner(nranks)
		if err != nil {
			t.Fatal(err)
		}
		type edge struct {
			u, v int
			w    sim.Time
		}
		var edges []edge
		for i, rec := 1, 0; i+2 < len(data) && rec < 64; i, rec = i+3, rec+1 {
			a := int(data[i]) % nranks
			b := int(data[i+1]) % nranks
			lat := sim.Time(data[i+2]) * sim.Nanosecond
			name := fmt.Sprintf("fz%d", rec)
			_, _, err := r.Connect(name, lat, a, b)
			if a != b && lat == 0 {
				if err == nil {
					t.Fatalf("zero-latency cross-rank link %q (%d->%d) was accepted", name, a, b)
				}
				if !strings.Contains(err.Error(), fmt.Sprintf("%q", name)) {
					t.Fatalf("rejection does not name the offending link %q: %v", name, err)
				}
				continue
			}
			if err != nil {
				t.Fatalf("valid link %q (%d->%d, %v) rejected: %v", name, a, b, lat, err)
			}
			if a != b {
				edges = append(edges, edge{a, b, lat})
			}
		}

		// Reference all-pairs shortest paths by Bellman-Ford relaxation.
		ref := make([][]sim.Time, nranks)
		for src := range ref {
			dist := make([]sim.Time, nranks)
			for i := range dist {
				dist[i] = sim.TimeInfinity
			}
			dist[src] = 0
			for round := 0; round < nranks; round++ {
				for _, e := range edges {
					if dist[e.u] != sim.TimeInfinity && dist[e.u]+e.w < dist[e.v] {
						dist[e.v] = dist[e.u] + e.w
					}
					if dist[e.v] != sim.TimeInfinity && dist[e.v]+e.w < dist[e.u] {
						dist[e.u] = dist[e.v] + e.w
					}
				}
			}
			ref[src] = dist
		}

		la := r.lookaheadMatrix()
		if len(la) != nranks {
			t.Fatalf("matrix has %d rows, want %d", len(la), nranks)
		}
		for i := 0; i < nranks; i++ {
			for j := 0; j < nranks; j++ {
				switch {
				case la[i][j] != ref[i][j]:
					t.Fatalf("la[%d][%d] = %v, shortest path over links is %v", i, j, la[i][j], ref[i][j])
				case la[i][j] != la[j][i]:
					t.Fatalf("asymmetric: la[%d][%d]=%v la[%d][%d]=%v", i, j, la[i][j], j, i, la[j][i])
				case i == j && la[i][j] != 0:
					t.Fatalf("nonzero diagonal la[%d][%d] = %v", i, j, la[i][j])
				case i != j && la[i][j] == 0:
					t.Fatalf("zero off-diagonal lookahead la[%d][%d]", i, j)
				}
			}
		}
	})
}
