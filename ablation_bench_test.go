// Ablation benchmarks: quantify the design choices DESIGN.md calls out by
// running the same workload with one knob flipped. Each benchmark prints a
// comparison table and asserts that the architecturally "better" choice
// actually wins in the model — if a refactor breaks, say, the FR-FCFS
// scheduler's row-hit preference, the corresponding ablation fails.
//
// Run with: go test -bench=Ablation -benchtime=1x
package sst_test

import (
	"fmt"
	"testing"

	"sst/internal/config"
	"sst/internal/core"
	"sst/internal/noc"
	"sst/internal/sim"
	"sst/internal/stats"
)

// runVariant runs one machine config and returns its runtime in seconds.
func runVariant(b *testing.B, cfg *config.MachineConfig) float64 {
	b.Helper()
	res, err := core.RunMachine(cfg)
	if err != nil {
		b.Fatal(err)
	}
	return res.Seconds
}

// runVariants runs independent ablation variants through the concurrent
// sweep pool and returns their runtimes in config order.
func runVariants(b *testing.B, cfgs []*config.MachineConfig) []float64 {
	b.Helper()
	results, err := core.RunMachines(cfgs, core.SweepOptions{})
	if err != nil {
		b.Fatal(err)
	}
	secs := make([]float64, len(results))
	for i, r := range results {
		secs[i] = r.Seconds
	}
	return secs
}

// BenchmarkAblationMemScheduler compares FR-FCFS against FCFS memory
// scheduling on a mixed-row workload. FR-FCFS's row-hit preference must
// win (or at worst tie).
func BenchmarkAblationMemScheduler(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tab := stats.NewTable("Ablation: DRAM scheduling policy", "policy", "runtime_ms", "ratio")
		scheds := []string{"fr-fcfs", "fcfs"}
		var cfgs []*config.MachineConfig
		for _, sched := range scheds {
			cfg := core.SweepMachine("hpccg", "ddr3-1333", 4, core.Full)
			cfg.Name = "sched-" + sched
			cfg.Node.Mem.Scheduler = sched
			cfgs = append(cfgs, cfg)
		}
		results := runVariants(b, cfgs)
		for j, sched := range scheds {
			tab.AddRow(sched, results[j]*1e3, results[j]/results[0])
		}
		printOnce(tab)
		if results[0] > results[1]*1.001 {
			b.Errorf("FR-FCFS (%.4g s) slower than FCFS (%.4g s)", results[0], results[1])
		}
	}
}

// BenchmarkAblationPrefetchDegree sweeps the stream prefetcher from off to
// degree 8 on a streaming workload: deeper prefetch must monotonically
// reduce runtime.
func BenchmarkAblationPrefetchDegree(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tab := stats.NewTable("Ablation: prefetch degree on a streaming workload",
			"l2_degree", "runtime_ms", "speedup_vs_off")
		degrees := []int{0, 1, 2, 8}
		var cfgs []*config.MachineConfig
		for _, deg := range degrees {
			cfg := core.SweepMachine("stream", "ddr3-1333", 4, core.Full)
			cfg.Name = fmt.Sprintf("pf-%d", deg)
			if deg == 0 {
				cfg.Node.L1.Prefetch = false
				cfg.Node.L2.Prefetch = false
			} else {
				cfg.Node.L1.Prefetch = true
				cfg.Node.L1.PrefetchDeg = 1
				cfg.Node.L2.Prefetch = true
				cfg.Node.L2.PrefetchDeg = deg
			}
			cfgs = append(cfgs, cfg)
		}
		results := runVariants(b, cfgs)
		off := results[0]
		for j, deg := range degrees {
			s := results[j]
			if j > 0 && s > results[j-1]*1.02 {
				b.Errorf("prefetch degree %d (%.4g s) slower than shallower (%.4g s)", deg, s, results[j-1])
			}
			tab.AddRow(deg, s*1e3, off/s)
		}
		printOnce(tab)
		if deepest := results[len(results)-1]; off/deepest < 1.5 {
			b.Errorf("deep prefetch speedup only %.2fx over none", off/deepest)
		}
	}
}

// BenchmarkAblationReplacement compares LRU, FIFO and random replacement
// on the reuse-heavy CG solver. LRU must not lose to either alternative by
// more than noise.
func BenchmarkAblationReplacement(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tab := stats.NewTable("Ablation: cache replacement policy", "policy", "runtime_ms", "ratio_vs_lru")
		policies := []string{"lru", "fifo", "random"}
		var cfgs []*config.MachineConfig
		for _, repl := range policies {
			cfg := core.SweepMachine("hpccg", "ddr3-1333", 4, core.Full)
			cfg.Name = "repl-" + repl
			cfg.Node.L1.Repl = repl
			cfg.Node.L2.Repl = repl
			cfgs = append(cfgs, cfg)
		}
		secs := runVariants(b, cfgs)
		results := map[string]float64{}
		for j, repl := range policies {
			results[repl] = secs[j]
		}
		for _, repl := range policies {
			tab.AddRow(repl, results[repl]*1e3, results[repl]/results["lru"])
		}
		printOnce(tab)
		if results["lru"] > results["fifo"]*1.05 || results["lru"] > results["random"]*1.05 {
			b.Errorf("LRU lost by more than 5%%: lru=%.4g fifo=%.4g random=%.4g",
				results["lru"], results["fifo"], results["random"])
		}
	}
}

// BenchmarkAblationAddressMapping compares interleaved (bank-parallel)
// against sequential (row-local) DRAM address mapping on a bandwidth-bound
// stream: interleaving must win by exposing bank parallelism.
func BenchmarkAblationAddressMapping(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tab := stats.NewTable("Ablation: DRAM address mapping", "mapping", "runtime_ms", "ratio")
		mappings := []string{"interleave", "sequential"}
		var cfgs []*config.MachineConfig
		for _, mapping := range mappings {
			cfg := core.SweepMachine("stream", "ddr3-1333", 8, core.Full)
			cfg.Name = "map-" + mapping
			cfg.Node.Mem.Mapping = mapping
			cfgs = append(cfgs, cfg)
		}
		secs := runVariants(b, cfgs)
		results := map[string]float64{}
		for j, mapping := range mappings {
			results[mapping] = secs[j]
		}
		for _, mapping := range mappings {
			tab.AddRow(mapping, results[mapping]*1e3, results[mapping]/results["interleave"])
		}
		printOnce(tab)
		if results["interleave"] > results["sequential"] {
			b.Errorf("interleaved mapping (%.4g s) slower than sequential (%.4g s)",
				results["interleave"], results["sequential"])
		}
	}
}

// BenchmarkAblationMSHRDepth compares a nearly blocking cache (1 MSHR)
// against a non-blocking one (16/32 MSHRs): memory-level parallelism must
// pay off on a miss-heavy workload.
func BenchmarkAblationMSHRDepth(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tab := stats.NewTable("Ablation: MSHR depth (memory-level parallelism)",
			"l1_mshrs", "l2_mshrs", "runtime_ms", "speedup_vs_blocking")
		depths := []struct{ l1, l2 int }{{1, 1}, {4, 8}, {16, 32}}
		var cfgs []*config.MachineConfig
		for _, mshrs := range depths {
			cfg := core.SweepMachine("lulesh", "gddr5-4000", 8, core.Full)
			cfg.Name = fmt.Sprintf("mshr-%d-%d", mshrs.l1, mshrs.l2)
			cfg.Node.L1.MSHRs = mshrs.l1
			cfg.Node.L2.MSHRs = mshrs.l2
			cfgs = append(cfgs, cfg)
		}
		results := runVariants(b, cfgs)
		for j, mshrs := range depths {
			tab.AddRow(mshrs.l1, mshrs.l2, results[j]*1e3, results[0]/results[j])
		}
		printOnce(tab)
	}
}

// BenchmarkAblationCoherenceSharing measures the cost of MESI sharing:
// the same total work on 1, 2 and 4 cores with private L1s over the
// snooping bus. Disjoint working sets should scale; the table quantifies
// bus and coherence overheads.
func BenchmarkAblationCoherenceSharing(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tab := stats.NewTable("Ablation: multicore scaling over the MESI bus",
			"cores", "runtime_ms", "speedup_vs_1core")
		counts := []int{1, 2, 4}
		var cfgs []*config.MachineConfig
		for _, cores := range counts {
			cfg := core.SweepMachine("stencil", "gddr5-4000", 4, core.Full)
			cfg.Name = fmt.Sprintf("cores-%d", cores)
			cfg.Node.Cores = cores
			cfgs = append(cfgs, cfg)
		}
		results := runVariants(b, cfgs)
		for j, cores := range counts {
			tab.AddRow(cores, results[j]*1e3, results[0]/results[j])
		}
		printOnce(tab)
	}
}

// BenchmarkAblationBackendFidelity compares the three single-thread timing
// back-ends at width 1 on a workload whose loads feed real consumers (the
// synthetic irregular profile carries load→use dependences) — SST's
// multi-fidelity claim made concrete. The in-order-issue scoreboard blocks
// at the first unready consumer; the OoO window issues past it, recovering
// memory-level parallelism a narrow in-order machine cannot see.
func BenchmarkAblationBackendFidelity(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tab := stats.NewTable("Ablation: back-end fidelity at width 1 (irregular dependent loads, DDR3)",
			"backend", "runtime_ms", "speedup_vs_inorder")
		kinds := []string{"inorder", "superscalar", "ooo"}
		var cfgs []*config.MachineConfig
		for _, kind := range kinds {
			cfgs = append(cfgs, &config.MachineConfig{
				Name: "be-" + kind,
				Node: config.NodeSpec{
					CPU: config.CPUSpec{
						Kind: kind, Freq: "3.2GHz", Width: 1,
						LoadQ: 16, Predictor: 1024,
					},
					L1:  &config.CacheSpec{Size: "32KB", Assoc: 4, HitLat: 2, MSHRs: 16},
					Mem: config.MemSpec{Preset: "ddr3-1333", CapacityGB: 4},
				},
				Workload: config.WorkloadSpec{Kind: "synthetic", Profile: "irregular", Ops: 300_000, Seed: 1},
			})
		}
		secs := runVariants(b, cfgs)
		results := map[string]float64{}
		for j, kind := range kinds {
			results[kind] = secs[j]
			tab.AddRow(kind, secs[j]*1e3, secs[0]/secs[j])
		}
		printOnce(tab)
		if results["ooo"]*1.3 > results["superscalar"] {
			b.Errorf("OoO (%.4g s) should clearly beat the in-order-issue scoreboard (%.4g s) at width 1",
				results["ooo"], results["superscalar"])
		}
		if results["superscalar"] > results["inorder"] {
			b.Errorf("scoreboard (%.4g s) should not lose to blocking in-order (%.4g s)",
				results["superscalar"], results["inorder"])
		}
	}
}

// BenchmarkAblationCoherenceFabric compares the snooping bus against the
// directory on a multicore node with private working sets: the directory
// avoids both broadcast snoops and shared-bus serialization, so it should
// match or beat the bus and send (near) zero snoops.
func BenchmarkAblationCoherenceFabric(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tab := stats.NewTable("Ablation: snooping bus vs directory coherence (8 cores, private data)",
			"fabric", "runtime_ms", "snoops_sent")
		results := map[string]float64{}
		for _, fabric := range []string{"bus", "directory"} {
			cfg := core.SweepMachine("stencil", "gddr5-4000", 4, core.Full)
			cfg.Name = "coh-" + fabric
			cfg.Node.Cores = 8
			cfg.Node.Coherence = fabric
			node, err := core.BuildNode(cfg)
			if err != nil {
				b.Fatal(err)
			}
			res, err := node.Run()
			if err != nil {
				b.Fatal(err)
			}
			results[fabric] = res.Seconds
			snoops := uint64(0)
			if c := node.Reg.Counter("dir.snoops_sent"); c != nil {
				snoops = c.Count()
			}
			tab.AddRow(fabric, res.Seconds*1e3, snoops)
		}
		printOnce(tab)
		if results["directory"] > results["bus"]*1.05 {
			b.Errorf("directory (%.4g s) should not lose to the bus (%.4g s) on private data",
				results["directory"], results["bus"])
		}
	}
}

// BenchmarkAblationNetworkFidelity contrasts the fast (unbounded-queue,
// LogGP-style) network model against the detailed (credit-based,
// bounded-buffer) model on the same hot-spot traffic. Uncontended they
// agree exactly (asserted in internal/noc tests); under congestion the
// detailed model exposes backpressure the fast model cannot represent.
func BenchmarkAblationNetworkFidelity(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tab := stats.NewTable("Ablation: network model fidelity under hot-spot congestion (8x8 mesh)",
			"model", "completion_ms", "blocked_time_ms", "peak_buffer_B")
		topo, err := noc.NewMesh2D(8, 8)
		if err != nil {
			b.Fatal(err)
		}
		cfg := noc.DefaultConfig()
		hot := topo.NumNodes() - 1
		const msg = 128 << 10

		eF := sim.NewEngine()
		fast, err := noc.NewNetwork(eF, "fast", topo, cfg, nil)
		if err != nil {
			b.Fatal(err)
		}
		var tFast sim.Time
		fast.NIC(hot).SetReceiver(func(int, int, any) { tFast = eF.Now() })
		for n := 0; n < hot; n++ {
			fast.NIC(n).Send(hot, msg, nil, nil)
		}
		eF.RunAll()
		tab.AddRow("fast", tFast.Seconds()*1e3, 0.0, "unbounded")

		eD := sim.NewEngine()
		det, err := noc.NewDetailedNetwork(eD, "detailed", topo, cfg, 0, nil)
		if err != nil {
			b.Fatal(err)
		}
		var tDet sim.Time
		det.NIC(hot).SetReceiver(func(int, int, any) { tDet = eD.Now() })
		for n := 0; n < hot; n++ {
			det.NIC(n).SendTimed(hot, msg, nil)
		}
		eD.RunAll()
		tab.AddRow("detailed", tDet.Seconds()*1e3,
			det.CreditBlockedTime().Seconds()*1e3, det.PeakBufferOccupancy())
		printOnce(tab)
		if tDet < tFast {
			b.Errorf("detailed (%v) should not beat fast (%v) under congestion", tDet, tFast)
		}
		if det.CreditBlockedTime() == 0 {
			b.Error("detailed model recorded no backpressure on hot-spot traffic")
		}
	}
}
