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

// comm is the solver's iteration as a skeleton-app profile: the halo
// exchange, the preconditioner's 512-byte messages and the reductions,
// once per iteration.
func (p SolverProfile) comm(iters int) workload.CommProfile {
	return workload.CommProfile{
		Name: p.Name, Steps: iters, ComputePerStep: p.ComputePerIter,
		HaloBytes: p.HaloBytes, Neighbors: p.Neighbors,
		SmallMsgs: p.ExtraSmallMsgs, SmallBytes: 512, AllReduces: p.AllReduces,
	}
}

// runWeakPoint runs one (profile, ranks) cell as a one-rank System under
// the cell's context and returns time/iteration.
func runWeakPoint(ctx context.Context, p SolverProfile, ranks, iters int) (sim.Time, error) {
	topo, err := torusFor(ranks)
	if err != nil {
		return 0, err
	}
	s, err := NewSystem(p.Name, topo, noc.DefaultConfig(), p.comm(iters).Scripts(ranks), 1, false)
	if err != nil {
		return 0, err
	}
	elapsed, err := s.runCell(ctx, fmt.Sprintf("core: weak scaling %s/%d", p.Name, ranks))
	if err != nil {
		return 0, err
	}
	return elapsed / sim.Time(iters), nil
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
		run: func(ctx context.Context, i int) (sim.Time, error) {
			return runWeakPoint(ctx, profiles[i/nr], rankCounts[i%nr], iters)
		},
		// Every SolverProfile field is load-bearing, so all of them are in
		// the key.
		key: func(i int) (string, error) {
			p := profiles[i/nr]
			return fmt.Sprintf("weak/v1/%s/h%d/nb%d/ar%d/xs%d/c%d/r%d/i%d", p.Name, p.HaloBytes, p.Neighbors,
				p.AllReduces, p.ExtraSmallMsgs, p.ComputePerIter, rankCounts[i%nr], iters), nil
		},
		// Only timeouts are labelled; other failures already name the cell.
		label: func(i int) string {
			return fmt.Sprintf("core: weak scaling %s/%d", profiles[i/nr].Name, rankCounts[i%nr])
		},
		bareErrs: true,
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
