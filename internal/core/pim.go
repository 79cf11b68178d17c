package core

import (
	"fmt"

	"sst/internal/config"
	"sst/internal/stats"
)

// The PIM study — the poster's "exploring novel architectures" headline —
// compares a conventional wide cache-based core against a
// processing-in-memory design point: many fine-grained hardware threads on
// a lightweight scalar pipeline sitting close to a high-bank-parallelism
// memory with no cache hierarchy. The expected shape: PIM wins on
// low-locality workloads (GUPS) by tolerating latency with thread-level
// parallelism, and loses on cache-friendly workloads where the conventional
// machine's SRAM does the work.

// ConventionalMachine is the cache-based reference node.
func ConventionalMachine(app string, scale Scale) *config.MachineConfig {
	m := SweepMachine(app, "ddr3-1333", 4, scale)
	m.Name = fmt.Sprintf("conventional-%s", app)
	return m
}

// PIMMachine is the near-memory design point: a 1 GHz, 16-thread scalar
// core with no caches on the same DRAM technology (near-memory placement is
// modelled by higher bank parallelism and no cache detour).
func PIMMachine(app string, scale Scale) *config.MachineConfig {
	base := SweepMachine(app, "ddr3-1333", 1, scale)
	return &config.MachineConfig{
		Name: fmt.Sprintf("pim-%s", app),
		Node: config.NodeSpec{
			Cores: 1,
			CPU: config.CPUSpec{
				Kind: "threaded", Freq: "1GHz", Threads: 16,
			},
			// No caches: loads go straight at memory.
			Mem: config.MemSpec{Preset: "ddr3-1333", Channels: 4},
		},
		Workload: base.Workload,
	}
}

// PIMStudyResult holds one workload's comparison.
type PIMStudyResult struct {
	App          string
	Conventional *NodeResult
	PIM          *NodeResult
}

// PIMSpeedup returns conventional-runtime / PIM-runtime (>1 means the PIM
// node is faster).
func (r PIMStudyResult) PIMSpeedup() float64 {
	if r.PIM.Seconds == 0 {
		return 0
	}
	return r.Conventional.Seconds / r.PIM.Seconds
}

// PIMResult is the PIM study's Result: the rendered table plus the
// per-workload comparisons behind it.
type PIMResult struct {
	TableResult
	Results []PIMStudyResult
}

// PIMStudy runs the comparison over the given workloads.
func PIMStudy(apps []string, scale Scale, opts SweepOptions) (*PIMResult, error) {
	t := stats.NewTable("PIM vs conventional: exploring a novel architecture",
		"app", "conventional_ms", "pim_ms", "pim_speedup", "conv_l1_hit")
	// Both machines of every app comparison are independent design points:
	// flatten to app-major {conventional, pim} pairs and fan them out.
	cfgs := make([]*config.MachineConfig, 0, 2*len(apps))
	for _, app := range apps {
		cfgs = append(cfgs, ConventionalMachine(app, scale), PIMMachine(app, scale))
	}
	kinds := [2]string{"conventional", "pim"}
	pts := machineGrid(cfgs)
	pts.label = func(i int) string { return fmt.Sprintf("core: pim study %s %s", apps[i/2], kinds[i%2]) }
	flat, _, err := runGrid(opts, pts)
	if err != nil {
		return nil, err
	}
	var out []PIMStudyResult
	for i, app := range apps {
		r := PIMStudyResult{App: app, Conventional: flat[2*i], PIM: flat[2*i+1]}
		out = append(out, r)
		t.AddRow(app, r.Conventional.Seconds*1e3, r.PIM.Seconds*1e3, r.PIMSpeedup(), r.Conventional.L1HitRate)
	}
	return &PIMResult{TableResult: TableResult{Tab: t}, Results: out}, nil
}
