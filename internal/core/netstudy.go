package core

import (
	"context"
	"errors"
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

// netStudyProfiles returns the four application proxies.
func netStudyProfiles() []workload.CommProfile {
	return []workload.CommProfile{
		workload.CTHProfile,
		workload.SAGEProfile,
		workload.XNOBELProfile,
		workload.CharonProfile,
	}
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
// engine and the run returns an error wrapping sim.ErrInterrupted.
func RunNetPointCtx(ctx context.Context, p workload.CommProfile, nodes, steps int, fraction float64) (sim.Time, *noc.Network, error) {
	topo, err := torusFor(nodes)
	if err != nil {
		return 0, nil, err
	}
	engine := sim.NewEngine()
	if arena := arenaFrom(ctx); arena != nil {
		arena.Events.Lend(engine)
		defer arena.Events.Harvest(engine)
	}
	cfg := noc.DefaultConfig()
	cfg.InjectionBandwidth *= fraction
	net, err := noc.NewNetwork(engine, "net", topo, cfg, nil)
	if err != nil {
		return 0, nil, err
	}
	p.Steps = steps
	app, err := workload.NewApp(engine, p.Name, net, p.Scripts(nodes))
	if err != nil {
		return 0, nil, err
	}
	app.Start(nil)
	stop := context.AfterFunc(ctx, engine.Interrupt)
	engine.RunAll()
	stop()
	if !app.Done() {
		if engine.Interrupted() {
			return 0, nil, fmt.Errorf("core: net study %s interrupted at %v: %w",
				p.Name, engine.Now(), sim.ErrInterrupted)
		}
		return 0, nil, fmt.Errorf("core: net study %s deadlocked", p.Name)
	}
	// Same race as RunMachineCtx: a point that finishes between its
	// deadline expiring and the interrupt landing still counts as timed
	// out; completion under plain cancellation stays a success (drain).
	if errors.Is(ctx.Err(), context.DeadlineExceeded) {
		return 0, nil, fmt.Errorf("core: net study %s exceeded its deadline: %w",
			p.Name, context.DeadlineExceeded)
	}
	return app.Elapsed(), net, nil
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

// NetDegradationResult is the Fig. 9 study's Result: the rendered table
// plus Slowdown[app] = slowdowns in fraction order (completed cells only).
type NetDegradationResult struct {
	TableResult
	Slowdown map[string][]float64
}

// NetDegradationStudy reproduces Fig. 9: for each application proxy,
// runtime at each injection-bandwidth fraction relative to full bandwidth.
// On error the result still carries every completed cell.
func NetDegradationStudy(cfg NetStudyConfig, opts SweepOptions) (*NetDegradationResult, error) {
	t := stats.NewTable(
		fmt.Sprintf("Fig 9: application slowdown vs injection bandwidth (%d-node torus)", cfg.Nodes),
		"app", "bw_fraction", "runtime_ms", "slowdown_vs_full")
	elapsedGrid, err := runNetGrid(cfg, opts)
	slow := map[string][]float64{}
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
			s := float64(elapsed) / float64(full)
			slow[p.Name] = append(slow[p.Name], s)
			t.AddRow(p.Name, f, elapsed.Seconds()*1e3, s)
		}
	}
	// On error the table and map still carry every completed cell.
	return &NetDegradationResult{TableResult: TableResult{Tab: t}, Slowdown: slow}, err
}

// NetPowerResult is the network power study's Result: the rendered table
// plus Best[app] = index into cfg.Fractions of the lowest-energy point.
type NetPowerResult struct {
	TableResult
	Best map[string]int
}

// NetPowerStudy extends the degradation study with the power trade the
// paper draws from it: assuming a system with an equal power split between
// CPU, memory and network at full bandwidth, how does total system ENERGY
// move when the network is down-provisioned? Latency-bound apps save
// energy (same runtime, cheaper network); bandwidth-bound apps lose (the
// runtime increase outweighs the network saving) — "the most energy
// efficient configuration would in fact be the one with full bandwidth."
func NetPowerStudy(cfg NetStudyConfig, opts SweepOptions) (*NetPowerResult, error) {
	t := stats.NewTable(
		"Network power trade-off: system energy vs injection bandwidth (equal CPU/mem/net split at full bw)",
		"app", "bw_fraction", "slowdown", "net_power_frac", "system_power_frac", "system_energy_frac")
	best := map[string]int{}
	elapsedGrid, err := runNetGrid(cfg, opts)
	for pi, p := range netStudyProfiles() {
		full := elapsedGrid[pi][0]
		if full == 0 {
			continue // baseline cell failed or was skipped
		}
		bestEnergy := 0.0
		for i, f := range cfg.Fractions {
			if elapsedGrid[pi][i] == 0 {
				continue
			}
			slowdown := float64(elapsedGrid[pi][i]) / float64(full)
			// Network static power scales with provisioned
			// bandwidth; CPU and memory power are unchanged.
			sysPower := 2.0/3 + f/3
			sysEnergy := sysPower * slowdown
			if _, seen := best[p.Name]; !seen || sysEnergy < bestEnergy {
				bestEnergy = sysEnergy
				best[p.Name] = i
			}
			t.AddRow(p.Name, f, slowdown, f, sysPower, sysEnergy)
		}
	}
	// On error the table and map still carry every completed cell.
	return &NetPowerResult{TableResult: TableResult{Tab: t}, Best: best}, err
}
