package core

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"sst/internal/config"
	"sst/internal/frontend"
	"sst/internal/sim"
)

func TestBuildAndRunMinimalNode(t *testing.T) {
	cfg := SweepMachine("stream", "ddr3-1333", 2, Small)
	res, err := RunMachine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Seconds <= 0 || res.Retired == 0 {
		t.Fatalf("degenerate result: %+v", res)
	}
	if res.IPC <= 0 || res.IPC > 2.05 {
		t.Errorf("IPC = %v out of range", res.IPC)
	}
	if res.L1HitRate <= 0 {
		t.Error("L1 never hit")
	}
	if res.MemBytes == 0 {
		t.Error("DRAM never touched")
	}
	if res.Budget.AvgPowerW() <= 0 || res.Budget.TotalCostUSD() <= 0 {
		t.Error("power/cost roll-up empty")
	}
	if res.AreaMM2 <= uncoreAreaMM2 {
		t.Error("die area missing cores/caches")
	}
}

func TestNodeWithoutCaches(t *testing.T) {
	cfg := &config.MachineConfig{
		Name: "nocache",
		Node: config.NodeSpec{
			CPU: config.CPUSpec{Kind: "inorder", Freq: "1GHz"},
			Mem: config.MemSpec{Preset: "ddr3-1333"},
		},
		Workload: config.WorkloadSpec{Kind: "stream", N: 256, Iters: 1},
	}
	res, err := RunMachine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.L1HitRate != 0 {
		t.Error("phantom L1")
	}
	if res.MemBytes == 0 {
		t.Error("no DRAM traffic")
	}
}

func TestNodeMulticoreCoherent(t *testing.T) {
	cfg := SweepMachine("stream", "ddr3-1333", 1, Small)
	cfg.Node.Cores = 4
	n, err := BuildNode(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if n.Bus == nil || len(n.L1s) != 4 {
		t.Fatal("multicore hierarchy not built")
	}
	res, err := n.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Retired == 0 {
		t.Fatal("no work retired")
	}
}

func TestThreadedNode(t *testing.T) {
	cfg := PIMMachine("gups", Small)
	res, err := RunMachine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Retired == 0 {
		t.Fatal("threaded node retired nothing")
	}
}

func TestWorkloadPartitioning(t *testing.T) {
	if splitDim(16, 8) != 8 {
		t.Errorf("splitDim(16,8) = %d", splitDim(16, 8))
	}
	if splitDim(4, 64) != 2 {
		t.Errorf("splitDim floor broken: %d", splitDim(4, 64))
	}
	if splitCount(100, 8) != 12 {
		t.Errorf("splitCount = %d", splitCount(100, 8))
	}
	if splitCount(2, 8) != 1 {
		t.Errorf("splitCount floor broken: %d", splitCount(2, 8))
	}
}

func TestFig10ShapeSmall(t *testing.T) {
	// The headline Fig. 10 shape at smoke-test size: GDDR5 beats DDR3
	// beats DDR2 on the bandwidth-bound miniapps at width 4.
	grid, err := MemTechWidthSweep(
		[]string{"lulesh"},
		[]string{"ddr2-800", "ddr3-1333", "gddr5-4000"},
		[]int{4}, Small, SweepOptions{})
	if err != nil {
		t.Fatal(err)
	}
	ddr2 := grid.Find("lulesh", "ddr2-800", 4).Result.Seconds
	ddr3 := grid.Find("lulesh", "ddr3-1333", 4).Result.Seconds
	gddr5 := grid.Find("lulesh", "gddr5-4000", 4).Result.Seconds
	if !(gddr5 < ddr3 && ddr3 < ddr2) {
		t.Errorf("Fig10 ordering broken: ddr2=%.4g ddr3=%.4g gddr5=%.4g s", ddr2, ddr3, gddr5)
	}
	tab := Fig10Table(grid, []string{"lulesh"}, []string{"ddr2-800", "ddr3-1333", "gddr5-4000"}, []int{4}, "ddr3-1333")
	if tab.NumRows() != 3 {
		t.Errorf("Fig10 table rows = %d", tab.NumRows())
	}
	if !strings.Contains(tab.String(), "gddr5-4000") {
		t.Error("table missing tech column")
	}
}

func TestFig12ShapeSmall(t *testing.T) {
	grid, err := MemTechWidthSweep([]string{"lulesh"}, []string{"ddr3-1333"}, []int{1, 4}, Small, SweepOptions{})
	if err != nil {
		t.Fatal(err)
	}
	w1 := grid.Find("lulesh", "ddr3-1333", 1).Result
	w4 := grid.Find("lulesh", "ddr3-1333", 4).Result
	if w4.Seconds >= w1.Seconds {
		t.Errorf("wider core not faster: w1=%.4g w4=%.4g", w1.Seconds, w4.Seconds)
	}
	speedup := w1.Seconds / w4.Seconds
	powerRatio := w4.Budget.AvgPowerW() / w1.Budget.AvgPowerW()
	if powerRatio <= 1 {
		t.Errorf("wider core not hungrier: power ratio %.2f", powerRatio)
	}
	if w4.PerfPerWatt() >= w1.PerfPerWatt() {
		t.Errorf("narrow core should win perf/W: w1=%.4g w4=%.4g (speedup %.2f, power %.2f)",
			w1.PerfPerWatt(), w4.PerfPerWatt(), speedup, powerRatio)
	}
	tab := Fig12Table(grid, []string{"lulesh"}, "ddr3-1333", []int{1, 4})
	if tab.NumRows() != 2 {
		t.Errorf("Fig12 table rows = %d", tab.NumRows())
	}
	_ = Fig11Table(grid, []string{"lulesh"}, []string{"ddr3-1333"}, []int{1, 4})
}

func TestMemSpeedStudySmall(t *testing.T) {
	res, err := MemSpeedStudy([]string{"ddr3-800", "ddr3-1333"}, Small, SweepOptions{})
	if err != nil {
		t.Fatal(err)
	}
	rel := res.Rel
	// The solver must slow on slow memory; the FEA phase must barely
	// move.
	if rel["hpccg"]["ddr3-800"] < 1.1 {
		t.Errorf("solver insensitive to memory speed: %.3f", rel["hpccg"]["ddr3-800"])
	}
	if rel["fea"]["ddr3-800"] > 1.05 {
		t.Errorf("FEA phase sensitive to memory speed: %.3f", rel["fea"]["ddr3-800"])
	}
}

func TestPIMStudySmall(t *testing.T) {
	res, err := PIMStudy([]string{"gups", "fea"}, Small, SweepOptions{})
	if err != nil {
		t.Fatal(err)
	}
	byApp := map[string]PIMStudyResult{}
	for _, r := range res.Results {
		byApp[r.App] = r
	}
	if s := byApp["gups"].PIMSpeedup(); s < 1.2 {
		t.Errorf("PIM speedup on GUPS = %.2f, want > 1.2", s)
	}
	if s := byApp["fea"].PIMSpeedup(); s > 1 {
		t.Errorf("PIM should lose on cache-friendly FEA, got speedup %.2f", s)
	}
}

func TestNetDegradationSmall(t *testing.T) {
	cfg := NetStudyConfig{Nodes: 8, Fractions: []float64{1, 0.125}, Steps: 3}
	res, err := NetDegradationStudy(cfg, SweepOptions{})
	if err != nil {
		t.Fatal(err)
	}
	slow := res.Slowdown
	if s := slow["cth"][1]; s < 1.4 {
		t.Errorf("CTH slowdown at 1/8 bw = %.2f, want > 1.4", s)
	}
	if s := slow["charon"][1]; s > 1.15 {
		t.Errorf("Charon slowdown at 1/8 bw = %.2f, want ~1", s)
	}
}

func TestParallelScalingStudyRuns(t *testing.T) {
	// 4 ranks so the chatty pair's tight link pins only ranks 0-1 and the
	// periphery ranks 2-3 see slow-link-only inbound paths.
	res, err := ParallelScalingStudy([]int{1, 4}, 8, 200*sim.Microsecond, SweepOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Table().NumRows() != 2 {
		t.Fatalf("study incomplete: %d rows", res.Table().NumRows())
	}
	if len(res.WallSeconds) != 2 {
		t.Fatalf("wall times for %d rank counts, want 2", len(res.WallSeconds))
	}
	// Dispatched-window counts are a pure function of the model and the
	// partition, so they are pinned exactly: a change in how horizons are
	// derived shows up here before it shows up in a timing.
	for nr, want := range map[int]uint64{1: 1, 4: 681} {
		if got := res.Windows[nr]; got != want {
			t.Errorf("windows at %d ranks = %d, want %d", nr, got, want)
		}
	}
}

// TestParallelScalingStudyCancelMidCell: cancelling the context interrupts
// the cell that is running, not just the next one. The horizon is far
// longer than the test waits, so a study that only checks between cells
// fails the deadline here.
func TestParallelScalingStudyCancelMidCell(t *testing.T) {
	for _, nr := range []int{1, 2} {
		ctx, cancel := context.WithCancel(context.Background())
		done := make(chan error, 1)
		go func() {
			_, err := ParallelScalingStudy([]int{nr}, 8, 10*sim.Second, SweepOptions{Context: ctx})
			done <- err
		}()
		time.Sleep(100 * time.Millisecond)
		cancel()
		select {
		case err := <-done:
			if !errors.Is(err, context.Canceled) {
				t.Errorf("ranks %d: err = %v, want context.Canceled", nr, err)
			}
		case <-time.After(time.Second):
			t.Fatalf("ranks %d: study still running 1s after cancel", nr)
		}
	}
}

func TestRunMachineErrors(t *testing.T) {
	bad := SweepMachine("lulesh", "ddr3-1333", 2, Small)
	bad.Workload.Kind = "quantum"
	if _, err := RunMachine(bad); err == nil {
		t.Fatal("bogus workload accepted")
	}
	bad2 := SweepMachine("lulesh", "sdram-66", 2, Small)
	if _, err := RunMachine(bad2); err == nil {
		t.Fatal("bogus memory preset accepted")
	}
}

func TestGridFind(t *testing.T) {
	g := &DSEGrid{Points: []DSEPoint{{App: "a", Tech: "t", Width: 2}}}
	if g.Find("a", "t", 2) == nil || g.Find("a", "t", 4) != nil {
		t.Fatal("Find broken")
	}
}

func TestNetPowerStudySmall(t *testing.T) {
	cfg := NetStudyConfig{Nodes: 8, Fractions: []float64{1, 0.5, 0.125}, Steps: 3}
	res, err := NetPowerStudy(cfg, SweepOptions{})
	if err != nil {
		t.Fatal(err)
	}
	best := res.Best
	if res.Table().NumRows() != 12 {
		t.Fatalf("rows = %d", res.Table().NumRows())
	}
	// Latency-bound Charon saves energy by down-provisioning; the
	// bandwidth-bound CTH proxy must prefer full (or near-full) bandwidth.
	if best["charon"] == 0 {
		t.Error("Charon's best energy point should be a reduced-bandwidth one")
	}
	if best["cth"] == len(cfg.Fractions)-1 {
		t.Error("CTH's best energy point should not be the slowest network")
	}
}

func TestDirectoryNodeRuns(t *testing.T) {
	cfg := SweepMachine("stream", "ddr3-1333", 1, Small)
	cfg.Node.Cores = 4
	cfg.Node.Coherence = "directory"
	n, err := BuildNode(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if n.Dir == nil || n.Bus != nil {
		t.Fatal("directory fabric not selected")
	}
	res, err := n.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Retired == 0 {
		t.Fatal("no work retired over the directory")
	}
	bad := SweepMachine("stream", "ddr3-1333", 1, Small)
	bad.Node.Coherence = "telepathy"
	if _, err := RunMachine(bad); err == nil {
		t.Fatal("bogus coherence fabric accepted")
	}
}

func TestWeakScalingStudySmall(t *testing.T) {
	res, err := WeakScalingStudy([]int{4, 16}, 3, SweepOptions{})
	if err != nil {
		t.Fatal(err)
	}
	eff := res.Efficiency
	// Both lose efficiency at scale; ML (heavier communication) must
	// lose more.
	if eff["cg"][1] >= 1 {
		t.Errorf("CG efficiency at 16 ranks = %.3f, want < 1", eff["cg"][1])
	}
	if eff["ml"][1] >= eff["cg"][1] {
		t.Errorf("ML efficiency (%.3f) should fall below CG (%.3f)", eff["ml"][1], eff["cg"][1])
	}
}

func TestOffsetStreamRelocatesMemoryOnly(t *testing.T) {
	src := &frontend.SliceStream{Ops: []frontend.Op{
		{Class: frontend.ClassLoad, Addr: 100, Size: 8},
		{Class: frontend.ClassInt},
		{Class: frontend.ClassStore, Addr: 200, Size: 8},
	}}
	o := &offsetStream{inner: src, off: 1 << 20}
	var op frontend.Op
	o.Next(&op)
	if op.Addr != 100+1<<20 {
		t.Fatalf("load addr = %d", op.Addr)
	}
	o.Next(&op)
	if op.Addr != 0 {
		t.Fatalf("int op got an address: %d", op.Addr)
	}
	o.Next(&op)
	if op.Addr != 200+1<<20 {
		t.Fatalf("store addr = %d", op.Addr)
	}
	if o.Next(&op) {
		t.Fatal("stream should be dry")
	}
}

func TestMaxOpsTruncatesWorkload(t *testing.T) {
	cfg := SweepMachine("stream", "ddr3-1333", 2, Small)
	full, err := RunMachine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg2 := SweepMachine("stream", "ddr3-1333", 2, Small)
	cfg2.MaxOps = full.Retired / 4
	short, err := RunMachine(cfg2)
	if err != nil {
		t.Fatal(err)
	}
	if short.Retired >= full.Retired/2 {
		t.Fatalf("MaxOps had no effect: %d vs %d", short.Retired, full.Retired)
	}
	if short.Seconds >= full.Seconds {
		t.Fatal("truncated run not shorter")
	}
}
