package core

import (
	"context"
	"fmt"
	"math"

	"sst/internal/noc"
	"sst/internal/sim"
	"sst/internal/stats"
	"sst/internal/workload"
)

// NetStudyConfig parameterizes the Fig. 9 injection-bandwidth degradation
// study.
type NetStudyConfig struct {
	// Nodes is the machine size (a 3D-torus-shaped system, like the
	// XT5 testbed).
	Nodes int
	// Fractions are the injection-bandwidth operating points (1, 1/2,
	// 1/4, 1/8 in the study).
	Fractions []float64
	// Steps scales the proxies' timestep counts.
	Steps int
}

// DefaultNetStudy mirrors the proof-of-concept study's shape at a
// simulation-friendly size.
func DefaultNetStudy() NetStudyConfig {
	return NetStudyConfig{
		Nodes:     32,
		Fractions: []float64{1, 0.5, 0.25, 0.125},
		Steps:     6,
	}
}

// netStudyProfiles returns the four application proxies in the study's
// row order, which is part of its table and journal.
func netStudyProfiles() []workload.CommProfile {
	var ps []workload.CommProfile
	for _, name := range []string{"cth", "sage", "xnobel", "charon"} {
		p, _ := workload.LookupProfile(name)
		ps = append(ps, p)
	}
	return ps
}

// torusFor picks a near-cubic 3D torus for n nodes.
func torusFor(n int) (*noc.Torus3D, error) {
	best := [3]int{n, 1, 1}
	for x := 1; x*x*x <= n*4; x++ {
		if n%x != 0 {
			continue
		}
		rest := n / x
		for y := x; y*y <= rest*2; y++ {
			if rest%y != 0 {
				continue
			}
			z := rest / y
			if x*y*z == n {
				best = [3]int{x, y, z}
			}
		}
	}
	return noc.NewTorus3D(best[0], best[1], best[2])
}

// RunNetPoint executes one (profile, bandwidth fraction) cell and returns
// the simulated runtime plus the network (for power/utilization analysis).
func RunNetPoint(p workload.CommProfile, nodes, steps int, fraction float64) (sim.Time, *noc.Network, error) {
	return RunNetPointCtx(context.Background(), p, nodes, steps, fraction)
}

// RunNetPointCtx is RunNetPoint with cooperative cancellation: an expired
// ctx (sweep cancellation, a per-point deadline) interrupts the cell's
// run and it returns an error wrapping sim.ErrInterrupted. The cell is a
// one-rank System.
func RunNetPointCtx(ctx context.Context, p workload.CommProfile, nodes, steps int, fraction float64) (sim.Time, *noc.Network, error) {
	topo, err := torusFor(nodes)
	if err != nil {
		return 0, nil, err
	}
	cfg := noc.DefaultConfig()
	cfg.InjectionBandwidth *= fraction
	p.Steps = steps
	s, err := NewSystem(p.Name, topo, cfg, p.Scripts(nodes), 1, false)
	if err != nil {
		return 0, nil, err
	}
	elapsed, err := s.runCell(ctx, "core: net study "+p.Name)
	if err != nil {
		return 0, nil, err
	}
	return elapsed, s.Net, nil
}

// runNetGrid fans the profile × fraction cells of the study across the
// sweep worker pool, returning elapsed[profile index][fraction index]. Each
// cell owns a fresh engine, torus and application, so the cells are
// independent; writing by index keeps the grid identical to a sequential
// run at any worker count. With opts.Journal set, finished cells are
// durably journaled (keyed "profile/fraction") and opts.Resume restores
// them instead of re-running; a grid with failed cells returns an error
// wrapping ErrPointFailed.
func runNetGrid(cfg NetStudyConfig, opts SweepOptions) ([][]sim.Time, error) {
	profiles := netStudyProfiles()
	nf := len(cfg.Fractions)
	name := func(i int) string { return fmt.Sprintf("%s/%g", profiles[i/nf].Name, cfg.Fractions[i%nf]) }
	flat, errs, err := runGrid(opts, grid[sim.Time]{
		n: len(profiles) * nf,
		run: func(ctx context.Context, i int) (sim.Time, error) {
			t, _, err := RunNetPointCtx(ctx, profiles[i/nf], cfg.Nodes, cfg.Steps, cfg.Fractions[i%nf])
			return t, err
		},
		// The "net/v1" version tag covers everything the key cannot see —
		// torusFor's shape choice and noc.DefaultConfig's parameters — so
		// changing either orphans stale entries instead of serving them.
		key: func(i int) (string, error) {
			return fmt.Sprintf("net/v1/%s/n%d/s%d/f%016x", profiles[i/nf].Name, cfg.Nodes, cfg.Steps,
				math.Float64bits(cfg.Fractions[i%nf])), nil
		},
		name: name,
		// Only timeouts are labelled; other failures already name the proxy.
		label:    func(i int) string { return "core: net study " + name(i) },
		bareErrs: true,
	})
	elapsed := make([][]sim.Time, len(profiles))
	for pi := range elapsed {
		elapsed[pi] = flat[pi*nf : (pi+1)*nf]
	}
	for _, perr := range errs {
		if perr != nil {
			err = fmt.Errorf("%w: %w", ErrPointFailed, err)
			break
		}
	}
	// The partial grid is returned even on error; failed or skipped cells
	// stay zero and the table builders leave those rows out.
	return elapsed, err
}

// netCell is one completed cell of the study whose proxy's
// full-bandwidth baseline also completed: one row of both tables.
type netCell struct {
	app      string
	fi       int // index into the study's fractions
	fraction float64
	slowdown float64
}

// NetDegradationResult is the Fig. 9 study's Result: the rendered table
// plus Slowdown[app] = slowdowns in fraction order (completed cells only).
// Power reads the power study's table off the same cells.
type NetDegradationResult struct {
	TableResult
	Slowdown map[string][]float64
	cells    []netCell
}

// NetDegradationStudy reproduces Fig. 9: for each application proxy,
// runtime at each injection-bandwidth fraction relative to full bandwidth.
// On error the result still carries every completed cell.
func NetDegradationStudy(cfg NetStudyConfig, opts SweepOptions) (*NetDegradationResult, error) {
	t := stats.NewTable(
		fmt.Sprintf("Fig 9: application slowdown vs injection bandwidth (%d-node torus)", cfg.Nodes),
		"app", "bw_fraction", "runtime_ms", "slowdown_vs_full")
	elapsedGrid, err := runNetGrid(cfg, opts)
	res := &NetDegradationResult{TableResult: TableResult{Tab: t}, Slowdown: map[string][]float64{}}
	for pi, p := range netStudyProfiles() {
		full := elapsedGrid[pi][0]
		if full == 0 {
			continue // baseline cell failed: ratios are meaningless
		}
		for i, f := range cfg.Fractions {
			elapsed := elapsedGrid[pi][i]
			if elapsed == 0 {
				continue
			}
			c := netCell{app: p.Name, fi: i, fraction: f, slowdown: float64(elapsed) / float64(full)}
			res.cells = append(res.cells, c)
			res.Slowdown[p.Name] = append(res.Slowdown[p.Name], c.slowdown)
			t.AddRow(p.Name, f, elapsed.Seconds()*1e3, c.slowdown)
		}
	}
	return res, err
}

// NetPowerResult is the network power study's Result: the rendered table
// plus Best[app] = index into cfg.Fractions of the lowest-energy point.
type NetPowerResult struct {
	TableResult
	Best map[string]int
}

// Power is the power trade the paper draws from Fig. 9, read off the
// study's cells without simulating them again: assuming a system with an
// equal power split between CPU, memory and network at full bandwidth, how
// does total system ENERGY move when the network is down-provisioned?
// Latency-bound apps save energy (same runtime, cheaper network);
// bandwidth-bound apps lose (the runtime increase outweighs the network
// saving) — "the most energy efficient configuration would in fact be the
// one with full bandwidth."
func (r *NetDegradationResult) Power() *NetPowerResult {
	t := stats.NewTable(
		"Network power trade-off: system energy vs injection bandwidth (equal CPU/mem/net split at full bw)",
		"app", "bw_fraction", "slowdown", "net_power_frac", "system_power_frac", "system_energy_frac")
	best := map[string]int{}
	bestEnergy := 0.0 // of the current app: cells come grouped by app
	for _, c := range r.cells {
		// Network static power scales with provisioned bandwidth; CPU and
		// memory power are unchanged.
		sysPower := 2.0/3 + c.fraction/3
		sysEnergy := sysPower * c.slowdown
		if _, seen := best[c.app]; !seen || sysEnergy < bestEnergy {
			bestEnergy = sysEnergy
			best[c.app] = c.fi
		}
		t.AddRow(c.app, c.fraction, c.slowdown, c.fraction, sysPower, sysEnergy)
	}
	return &NetPowerResult{TableResult: TableResult{Tab: t}, Best: best}
}

// NetPowerStudy runs the Fig. 9 grid and returns its power view. On error
// the result still carries every completed cell.
func NetPowerStudy(cfg NetStudyConfig, opts SweepOptions) (*NetPowerResult, error) {
	deg, err := NetDegradationStudy(cfg, opts)
	return deg.Power(), err
}
