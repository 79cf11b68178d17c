// Package sst's top-level benchmark harness regenerates every experiment
// table/figure of the reproduced SST studies. Each benchmark runs the full
// study and prints the corresponding table once; `go test -bench=.` is the
// repository's "reproduce the paper" entry point.
//
// Experiment index (see DESIGN.md for sources and EXPERIMENTS.md for
// paper-vs-measured):
//
//	BenchmarkFig10MemTech       E1: app performance vs memory technology
//	BenchmarkFig11PowerCost     E2: power & cost efficiency vs technology
//	BenchmarkFig12IssueWidth    E3: efficiency vs issue width
//	BenchmarkFig9NetDegradation E4: injection-bandwidth degradation
//	BenchmarkFig13PIM           E5: PIM vs conventional (novel architecture)
//	BenchmarkFig14ParallelSpeedup E6: parallel simulator scaling
//	BenchmarkFig3MemSpeed       E7: memory-speed phase sensitivity
package sst_test

import (
	"fmt"
	"os"
	"sync"
	"testing"
	"time"

	"sst/internal/cache"
	"sst/internal/core"
	"sst/internal/noc"
	"sst/internal/par"
	"sst/internal/sim"
	"sst/internal/stats"
)

var (
	sweepApps   = []string{"hpccg", "lulesh"}
	sweepTechs  = []string{"ddr2-800", "ddr3-1333", "gddr5-4000"}
	sweepWidths = []int{1, 2, 4, 8}
)

// printOnce renders each distinct table a single time, however many
// benchmark iterations run.
var printedTables sync.Map

func printOnce(t *stats.Table) {
	if _, loaded := printedTables.LoadOrStore(t.Title, true); loaded {
		return
	}
	fmt.Fprintln(os.Stdout)
	t.Render(os.Stdout)
}

// BenchmarkSweepWorkers measures the concurrent sweep scheduler on the
// warm-arena path: the same Small-scale Fig. 10/11/12 sweep at 1, 2, 4 and
// 8 workers, every worker drawing its point storage from a shared
// ArenaPool warmed by one untimed sweep. The design points are independent
// simulations, so up to the host's core count the wall-clock ratio to the
// 1-worker run approaches the worker count (oversubscribed counts just
// measure scheduler overhead); the grids themselves are identical at any
// worker count and with or without arenas (asserted by
// TestConcurrentSweepDeterminism and TestSweepArenaDeterminism in
// internal/core). bytes/op and allocs/op here are hard-gated by
// tools/benchcheck -max-bytes/-max-allocs — this is the resident sweep
// service's steady state, and it must stay flat.
func BenchmarkSweepWorkers(b *testing.B) {
	arenas := core.NewArenaPool()
	for _, workers := range []int{1, 2, 4, 8} {
		opts := core.SweepOptions{Workers: workers, Arena: arenas}
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			// Warm the pool: the first sweep pays the arena build cost so
			// the timed iterations measure steady-state reuse.
			if _, err := core.MemTechWidthSweep(sweepApps, sweepTechs, sweepWidths, core.Small, opts); err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := core.MemTechWidthSweep(sweepApps, sweepTechs, sweepWidths, core.Small, opts); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkSweepGups is the memory miss path's sweep: the full-scale gups
// grid (DDR2/DDR3-1333/GDDR5 x widths 1-8, 12 points) on one worker with a
// warm arena. gups hits L1 half the time at IPC ~0.008, so MSHRs, fills,
// the DRAM scheduler and the event lanes carrying their completions do the
// work; `make profile-gups` profiles it.
func BenchmarkSweepGups(b *testing.B) {
	opts := core.SweepOptions{Workers: 1, Arena: core.NewArenaPool()}
	sweep := func() {
		if _, err := core.MemTechWidthSweep([]string{"gups"}, sweepTechs, sweepWidths, core.Full, opts); err != nil {
			b.Fatal(err)
		}
	}
	sweep() // warm the arena
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sweep()
	}
}

// BenchmarkSweepCacheHit measures the all-hit path: the same sweep served
// entirely from a warm result cache. The perf gate pins this orders of
// magnitude below the workers=1 cold sweep — a hit is a hash, a map probe
// and a struct copy, not a simulation.
func BenchmarkSweepCacheHit(b *testing.B) {
	c, err := core.NewSweepCache(256, cache.LRU, nil, "")
	if err != nil {
		b.Fatal(err)
	}
	defer c.Close()
	opts := core.SweepOptions{Workers: 1, Cache: c}
	if _, err := core.MemTechWidthSweep(sweepApps, sweepTechs, sweepWidths, core.Small, opts); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.MemTechWidthSweep(sweepApps, sweepTechs, sweepWidths, core.Small, opts); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSweepCacheMiss measures the all-miss path: a fresh cache every
// iteration, so each point simulates and then pays the key hash, encode
// and insert. The gate keeps the overhead over the uncached sweep small.
func BenchmarkSweepCacheMiss(b *testing.B) {
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		c, err := core.NewSweepCache(256, cache.LRU, nil, "")
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		_, err = core.MemTechWidthSweep(sweepApps, sweepTechs, sweepWidths, core.Small,
			core.SweepOptions{Workers: 1, Cache: c})
		b.StopTimer()
		c.Close()
		b.StartTimer()
		if err != nil {
			b.Fatal(err)
		}
	}
}

// fullSweep runs the shared Fig. 10/11/12 design-space sweep.
func fullSweep(b *testing.B) *core.DSEGrid {
	b.Helper()
	grid, err := core.MemTechWidthSweep(sweepApps, sweepTechs, sweepWidths, core.Full, core.SweepOptions{})
	if err != nil {
		b.Fatal(err)
	}
	return grid
}

// BenchmarkFig10MemTech regenerates Fig. 10: application performance with
// DDR2/DDR3/GDDR5 across issue widths. Expected shape: GDDR5 26-47% faster
// than DDR3 on Lulesh and 32-41% on HPCCG; DDR2 slowest everywhere.
func BenchmarkFig10MemTech(b *testing.B) {
	for i := 0; i < b.N; i++ {
		grid := fullSweep(b)
		tab := core.Fig10Table(grid, sweepApps, sweepTechs, sweepWidths, "ddr3-1333")
		printOnce(tab)
		verifyFig10(b, grid)
	}
}

func verifyFig10(b *testing.B, grid *core.DSEGrid) {
	b.Helper()
	for _, app := range sweepApps {
		for _, w := range sweepWidths {
			ddr2 := grid.Find(app, "ddr2-800", w).Result.Seconds
			ddr3 := grid.Find(app, "ddr3-1333", w).Result.Seconds
			gddr5 := grid.Find(app, "gddr5-4000", w).Result.Seconds
			if !(gddr5 < ddr3 && ddr3 < ddr2) {
				b.Errorf("Fig10 %s w%d ordering broken: ddr2=%.4g ddr3=%.4g gddr5=%.4g",
					app, w, ddr2, ddr3, gddr5)
			}
		}
	}
}

// BenchmarkFig11PowerCost regenerates Fig. 11: power and cost with
// different memory systems. Expected shape: DDR3's perf/W beats or matches
// GDDR5, with the largest advantage at narrow widths; perf/$ crosses over
// (DDR3 wins narrow, GDDR5 competitive at 8-wide).
func BenchmarkFig11PowerCost(b *testing.B) {
	for i := 0; i < b.N; i++ {
		grid := fullSweep(b)
		tab := core.Fig11Table(grid, sweepApps, sweepTechs, sweepWidths)
		printOnce(tab)
		// Shape check: DDR3 perf/W >= GDDR5 perf/W at width 1.
		for _, app := range sweepApps {
			d := grid.Find(app, "ddr3-1333", 1).Result.PerfPerWatt()
			g := grid.Find(app, "gddr5-4000", 1).Result.PerfPerWatt()
			if d <= g {
				b.Errorf("Fig11 %s: DDR3 perf/W %.4g should beat GDDR5 %.4g at width 1", app, d, g)
			}
		}
	}
}

// BenchmarkFig12IssueWidth regenerates Fig. 12: cost and power efficiency
// for different processor issue widths. The width sweep runs on GDDR5 so
// the memory system does not wall off the width effect (on DDR3 the wide
// cores are bandwidth-bound and barely separate). Expected shape: wider is
// faster sublinearly (paper: +78% at 8-wide) but superlinearly hungrier
// (paper: +123% power); 1-2 wide cores win perf/W and 2-4 wide win perf/$.
func BenchmarkFig12IssueWidth(b *testing.B) {
	const tech = "gddr5-4000"
	for i := 0; i < b.N; i++ {
		grid, err := core.MemTechWidthSweep(sweepApps, []string{tech}, sweepWidths, core.Full, core.SweepOptions{})
		if err != nil {
			b.Fatal(err)
		}
		tab := core.Fig12Table(grid, sweepApps, tech, sweepWidths)
		printOnce(tab)
		for _, app := range sweepApps {
			r1 := grid.Find(app, tech, 1).Result
			r8 := grid.Find(app, tech, 8).Result
			if r8.Seconds >= r1.Seconds {
				b.Errorf("Fig12 %s: 8-wide not faster than 1-wide", app)
			}
			if r8.Budget.AvgPowerW() <= r1.Budget.AvgPowerW() {
				b.Errorf("Fig12 %s: 8-wide not hungrier than 1-wide", app)
			}
			if r8.PerfPerWatt() >= r1.PerfPerWatt() {
				b.Errorf("Fig12 %s: power efficiency should favor narrow cores", app)
			}
		}
	}
}

// BenchmarkFig9NetDegradation regenerates Fig. 9: application slowdown at
// 1, 1/2, 1/4 and 1/8 network injection bandwidth on a torus. Expected
// shape: CTH/SAGE-like large-message apps slow >2x at 1/8 bandwidth;
// Charon-like small-message apps are essentially flat.
func BenchmarkFig9NetDegradation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cfg := core.DefaultNetStudy()
		deg, err := core.NetDegradationStudy(cfg, core.SweepOptions{})
		if err != nil {
			b.Fatal(err)
		}
		printOnce(deg.Table())
		slow := deg.Slowdown
		last := len(cfg.Fractions) - 1
		if s := slow["cth"][last]; s < 2 {
			b.Errorf("Fig9: CTH slowdown at 1/8 bw = %.2f, want > 2", s)
		}
		if s := slow["charon"][last]; s > 1.1 {
			b.Errorf("Fig9: Charon slowdown at 1/8 bw = %.2f, want ~1", s)
		}
		// The power conclusion the paper draws from Fig. 9.
		pow, err := core.NetPowerStudy(cfg, core.SweepOptions{})
		if err != nil {
			b.Fatal(err)
		}
		printOnce(pow.Table())
		best := pow.Best
		if best["charon"] == 0 {
			b.Error("Fig9 power: Charon should save energy on a slower network")
		}
		if best["cth"] == last {
			b.Error("Fig9 power: CTH should not prefer the slowest network")
		}
	}
}

// BenchmarkFig13PIM runs the novel-architecture study the SC'06 poster
// headlines: a PIM-style multithreaded near-memory node vs a conventional
// cache-based node. Expected shape: PIM wins on irregular low-locality
// GUPS, loses on cache-friendly FEA.
func BenchmarkFig13PIM(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := core.PIMStudy([]string{"gups", "stream", "fea"}, core.Full, core.SweepOptions{})
		if err != nil {
			b.Fatal(err)
		}
		printOnce(res.Table())
		for _, r := range res.Results {
			switch r.App {
			case "gups":
				if r.PIMSpeedup() < 1.2 {
					b.Errorf("PIM should win GUPS: speedup %.2f", r.PIMSpeedup())
				}
			case "fea":
				if r.PIMSpeedup() > 1 {
					b.Errorf("PIM should lose FEA: speedup %.2f", r.PIMSpeedup())
				}
			}
		}
	}
}

// BenchmarkFig14ParallelSpeedup runs the parallel-simulator scaling study:
// one heterogeneous-latency model partitioned over 1..8 ranks under both
// sync modes. On a multi-core host the wall time drops with ranks; on a
// single-core host (like this repository's CI sandbox) the study instead
// bounds synchronization overhead. Determinism and sequential-equivalence
// are asserted in internal/par's tests.
func BenchmarkFig14ParallelSpeedup(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := core.ParallelScalingStudy([]int{1, 2, 4, 8}, 16, 2*sim.Millisecond, core.SweepOptions{},
			[]par.SyncMode{par.SyncPairwise, par.SyncSpeculative})
		if err != nil {
			b.Fatal(err)
		}
		printOnce(res.Table())
		wall := res.WallSeconds[par.SyncPairwise]
		// Overhead bound: the 8-rank run must stay within 2x of the
		// 1-rank run even on a single-core host.
		if wall[8] > 2*wall[1] {
			b.Errorf("parallel overhead too high: 8 ranks %.3fs vs 1 rank %.3fs", wall[8], wall[1])
		}
		// Dispatched-window counts are deterministic, unlike wall time:
		// pinned exactly, they catch any change in how pairwise horizons
		// are derived (EXPERIMENTS.md E6).
		for nr, want := range map[int]uint64{1: 1, 2: 5800, 4: 7401, 8: 9801} {
			if got := res.Windows[par.SyncPairwise][nr]; got != want {
				b.Errorf("pairwise sync dispatched %d windows at %d ranks, want %d", got, nr, want)
			}
		}
	}
}

// BenchmarkFig3MemSpeed regenerates the memory-speed sensitivity study:
// DDR3-800 vs DDR3-1066 vs DDR3-1333 on the FEA-like and solver phases.
// Expected shape: the solver slows as memory slows; FEA is flat.
func BenchmarkFig3MemSpeed(b *testing.B) {
	grades := []string{"ddr3-800", "ddr3-1066", "ddr3-1333"}
	for i := 0; i < b.N; i++ {
		res, err := core.MemSpeedStudy(grades, core.Full, core.SweepOptions{})
		if err != nil {
			b.Fatal(err)
		}
		printOnce(res.Table())
		rel := res.Rel
		if rel["hpccg"]["ddr3-800"] < 1.1 {
			b.Errorf("Fig3: solver insensitive to memory speed: %.3f", rel["hpccg"]["ddr3-800"])
		}
		if rel["fea"]["ddr3-800"] > 1.05 {
			b.Errorf("Fig3: FEA sensitive to memory speed: %.3f", rel["fea"]["ddr3-800"])
		}
	}
}

// BenchmarkFig2CoreScaling regenerates the cores-per-node study: fixed
// total work split over 1-8 cores sharing one memory system. Expected
// shape: the bandwidth-bound solver's parallel efficiency decays with core
// count while the compute-bound FEA phase scales nearly ideally.
func BenchmarkFig2CoreScaling(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := core.CoreScalingStudy([]string{"fea", "hpccg"}, []int{1, 2, 4, 8}, core.Full, core.SweepOptions{})
		if err != nil {
			b.Fatal(err)
		}
		printOnce(res.Table())
		eff := res.Efficiency
		if eff["fea"][8] < 0.7 {
			b.Errorf("Fig2: FEA efficiency at 8 cores = %.2f, want near-ideal", eff["fea"][8])
		}
		if eff["hpccg"][8] > eff["fea"][8]*0.9 {
			b.Errorf("Fig2: solver efficiency (%.2f) should fall well below FEA (%.2f)",
				eff["hpccg"][8], eff["fea"][8])
		}
	}
}

// BenchmarkFig4CacheRates regenerates the cache-behavior comparison:
// the FEA phase is L1-resident; the solver streams with weak outer-level
// locality.
func BenchmarkFig4CacheRates(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cs, err := core.CacheStudy(core.Full, core.SweepOptions{})
		if err != nil {
			b.Fatal(err)
		}
		printOnce(cs.Table())
		res := cs.Results
		if res["fea"].L1HitRate < 0.99 {
			b.Errorf("Fig4: FEA L1 hit rate = %.3f, want ~1", res["fea"].L1HitRate)
		}
		if res["fea"].MemBytes > res["hpccg"].MemBytes/10 {
			b.Errorf("Fig4: FEA DRAM traffic (%d B) should be tiny next to the solver's (%d B)",
				res["fea"].MemBytes, res["hpccg"].MemBytes)
		}
	}
}

// BenchmarkFig15DistNetwork runs the distributed-network study: the same
// 64-node torus traffic simulated on one engine (the reference) and over
// 1-8 parallel ranks. Per-message delivery times are independent of the
// partitioning (asserted exactly in internal/noc's tests); here the study
// reports wall time per rank count and asserts the message count matches
// the single-engine run.
func BenchmarkFig15DistNetwork(b *testing.B) {
	topo, err := noc.NewTorus3D(8, 8, 1)
	if err != nil {
		b.Fatal(err)
	}
	cfg := noc.DefaultConfig()
	// traffic schedules every node's 24 sends; engineOf picks the engine
	// that owns a node's NIC.
	traffic := func(net *noc.Network, engineOf func(node int) *sim.Engine) {
		for n := 0; n < topo.NumNodes(); n++ {
			net.NIC(n).SetReceiver(func(int, int, any) {})
			node := n
			for m := 0; m < 24; m++ {
				engineOf(node).ScheduleAt(sim.Time(node*977+m*31000)*sim.Nanosecond, sim.PrioLink, func(any) {
					net.NIC(node).Send((node*13+5)%topo.NumNodes(), 4096+node, nil, nil)
				}, nil)
			}
		}
	}
	for i := 0; i < b.N; i++ {
		tab := stats.NewTable("Distributed network simulation: 64-node torus over parallel ranks",
			"ranks", "messages", "wall_ms")
		engine := sim.NewEngine()
		ref, err := noc.NewNetwork(engine, "net", topo, cfg, nil)
		if err != nil {
			b.Fatal(err)
		}
		traffic(ref, func(int) *sim.Engine { return engine })
		start := time.Now()
		engine.RunAll()
		tab.AddRow("1 engine", ref.Messages(), float64(time.Since(start).Microseconds())/1e3)
		for _, nranks := range []int{1, 2, 4, 8} {
			runner, err := par.NewRunner(nranks)
			if err != nil {
				b.Fatal(err)
			}
			net, err := noc.NewPartitionedNetwork(runner, topo, cfg, nil)
			if err != nil {
				b.Fatal(err)
			}
			traffic(net, func(node int) *sim.Engine { return runner.Rank(net.RankOfNode(node)).Engine() })
			start := time.Now()
			if _, err := runner.RunAll(); err != nil {
				b.Fatal(err)
			}
			wall := time.Since(start)
			if net.Messages() != ref.Messages() {
				b.Fatalf("%d ranks delivered %d messages, the single engine %d", nranks, net.Messages(), ref.Messages())
			}
			tab.AddRow(nranks, net.Messages(), float64(wall.Microseconds())/1e3)
		}
		printOnce(tab)
	}
}

// BenchmarkFig5SolverScaling regenerates the weak-scaling comparison of
// solver communication patterns: the unpreconditioned CG iteration (two
// reductions) against a multilevel-preconditioned iteration that sends
// ~40% more messages per rank. Expected shape: both lose weak-scaling
// efficiency as rank count grows (the all-reduce log(P) term), and the
// ML variant falls off faster — the study's explanation for why miniFE
// tracked ILU-preconditioned Charon but not ML.
func BenchmarkFig5SolverScaling(b *testing.B) {
	ranks := []int{4, 8, 16, 32, 64}
	for i := 0; i < b.N; i++ {
		res, err := core.WeakScalingStudy(ranks, 4, core.SweepOptions{})
		if err != nil {
			b.Fatal(err)
		}
		printOnce(res.Table())
		eff := res.Efficiency
		last := len(ranks) - 1
		if eff["cg"][last] >= 1 {
			b.Errorf("Fig5: CG efficiency at %d ranks = %.3f, want < 1", ranks[last], eff["cg"][last])
		}
		if eff["ml"][last] >= eff["cg"][last] {
			b.Errorf("Fig5: ML (%.3f) should scale worse than CG (%.3f)",
				eff["ml"][last], eff["cg"][last])
		}
		// Efficiency decays monotonically-ish with scale for both.
		for _, name := range []string{"cg", "ml"} {
			if eff[name][last] > eff[name][0] {
				b.Errorf("Fig5: %s efficiency rising with scale: %v", name, eff[name])
			}
		}
	}
}
