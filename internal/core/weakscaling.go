package core

import (
	"context"
	"fmt"

	"sst/internal/noc"
	"sst/internal/sim"
	"sst/internal/stats"
	"sst/internal/workload"
)

// WeakScalingStudy is the Fig. 5 analogue: weak scaling of Krylov solvers
// to growing rank counts. Each rank's per-iteration compute is fixed (weak
// scaling); what changes with scale is communication — halo exchanges stay
// neighbor-local while the all-reduces in every CG iteration grow with
// log(P) and congest. A multilevel-preconditioned solver variant sends
// ~40% more messages per rank (the study's measured ML overhead), so it
// falls off faster — the study's explanation for why the miniapp tracked
// ILU but not ML.

// SolverProfile describes one solver's per-iteration communication.
type SolverProfile struct {
	Name string
	// HaloBytes per neighbor per iteration; Neighbors counted per side.
	HaloBytes int
	Neighbors int
	// AllReduces per iteration (dot products / norms).
	AllReduces int
	// ExtraSmallMsgs models preconditioner chatter per iteration.
	ExtraSmallMsgs int
	// ComputePerIter is the fixed per-rank computation.
	ComputePerIter sim.Time
}

// CGProfile is an unpreconditioned CG iteration: SpMV halo + 2 reductions.
var CGProfile = SolverProfile{
	Name:      "cg",
	HaloBytes: 64 << 10, Neighbors: 1,
	AllReduces:     2,
	ComputePerIter: 25 * sim.Microsecond,
}

// MLProfile is a multilevel-preconditioned iteration: the coarse-grid
// cycle adds reductions and ~40% more small messages per rank.
var MLProfile = SolverProfile{
	Name:      "ml",
	HaloBytes: 64 << 10, Neighbors: 1,
	AllReduces:     4,
	ExtraSmallMsgs: 12,
	ComputePerIter: 25 * sim.Microsecond,
}

// scripts expands a solver profile for n ranks and iters iterations.
func (p SolverProfile) scripts(n, iters int) []*workload.Script {
	out := make([]*workload.Script, n)
	for r := 0; r < n; r++ {
		s := &workload.Script{}
		for it := 0; it < iters; it++ {
			s.Compute(p.ComputePerIter)
			for k := 1; k <= p.Neighbors; k++ {
				s.Send((r+k)%n, p.HaloBytes)
				s.Send((r-k+n)%n, p.HaloBytes)
			}
			for k := 1; k <= p.Neighbors; k++ {
				s.Recv((r - k + n) % n)
				s.Recv((r + k) % n)
			}
			for m := 0; m < p.ExtraSmallMsgs; m++ {
				s.Send((r+1+m%(n-1))%n, 512)
			}
			for m := 0; m < p.ExtraSmallMsgs; m++ {
				s.Recv((r - 1 - m%(n-1) + n) % n)
			}
			for a := 0; a < p.AllReduces; a++ {
				s.AllReduce(r, n, 8)
			}
		}
		out[r] = s
	}
	return out
}

// runWeakPoint runs one (profile, ranks) cell and returns time/iteration.
func runWeakPoint(p SolverProfile, ranks, iters int) (sim.Time, error) {
	topo, err := torusFor(ranks)
	if err != nil {
		return 0, err
	}
	engine := sim.NewEngine()
	net, err := noc.NewNetwork(engine, "net", topo, noc.DefaultConfig(), nil)
	if err != nil {
		return 0, err
	}
	app, err := workload.NewApp(engine, p.Name, net, p.scripts(ranks, iters))
	if err != nil {
		return 0, err
	}
	app.Start(nil)
	engine.RunAll()
	if !app.Done() {
		return 0, fmt.Errorf("core: weak scaling %s/%d deadlocked", p.Name, ranks)
	}
	return app.Elapsed() / sim.Time(iters), nil
}

// WeakScalingResult is the weak-scaling study's Result: the rendered table
// plus Efficiency[solver] = efficiencies in rank-count order.
type WeakScalingResult struct {
	TableResult
	Efficiency map[string][]float64
}

// WeakScalingStudy runs both solver profiles across the rank counts,
// reporting per-iteration time and weak-scaling efficiency relative to the
// smallest machine.
func WeakScalingStudy(rankCounts []int, iters int, opts SweepOptions) (*WeakScalingResult, error) {
	t := stats.NewTable("Fig 5: relative weak scaling of solvers (CG vs ML-preconditioned)",
		"solver", "ranks", "time_per_iter_ms", "efficiency_vs_smallest")
	eff := map[string][]float64{}
	// Every profile × rank-count cell owns its own engine and network, so
	// the cells fan out across the sweep worker pool.
	profiles := []SolverProfile{CGProfile, MLProfile}
	nr := len(rankCounts)
	flat, _, err := runGrid(opts, grid[sim.Time]{
		n: len(profiles) * nr,
		run: func(_ context.Context, i int) (sim.Time, error) {
			return runWeakPoint(profiles[i/nr], rankCounts[i%nr], iters)
		},
		// Every SolverProfile field is load-bearing, so all of them are in
		// the key.
		key: func(i int) (string, error) {
			p := profiles[i/nr]
			return fmt.Sprintf("weak/v1/%s/h%d/nb%d/ar%d/xs%d/c%d/r%d/i%d", p.Name, p.HaloBytes, p.Neighbors,
				p.AllReduces, p.ExtraSmallMsgs, p.ComputePerIter, rankCounts[i%nr], iters), nil
		},
	})
	if err != nil {
		return nil, err
	}
	for pi, p := range profiles {
		base := flat[pi*nr]
		for ri, ranks := range rankCounts {
			tp := flat[pi*nr+ri]
			e := float64(base) / float64(tp)
			eff[p.Name] = append(eff[p.Name], e)
			t.AddRow(p.Name, ranks, tp.Seconds()*1e3, e)
		}
	}
	return &WeakScalingResult{TableResult: TableResult{Tab: t}, Efficiency: eff}, nil
}
