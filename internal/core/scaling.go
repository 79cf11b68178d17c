package core

import (
	"fmt"

	"sst/internal/config"
	"sst/internal/stats"
)

// CoreScalingResult is the core-scaling study's Result: the rendered table
// plus Efficiency[app][cores] = parallel efficiency.
type CoreScalingResult struct {
	TableResult
	Efficiency map[string]map[int]float64
}

// CoreScalingStudy is the Fig. 2 analogue: hold total work fixed, vary the
// number of cores sharing one node's memory system, and report parallel
// efficiency (T1 / (n·Tn)). Memory-bandwidth-bound phases (the solver)
// lose efficiency as cores contend for DRAM; compute-bound phases (the
// FEA-like assembly) scale nearly ideally — the effect the original
// cores-per-node methodology measures.
func CoreScalingStudy(apps []string, coreCounts []int, scale Scale, opts SweepOptions) (*CoreScalingResult, error) {
	t := stats.NewTable("Fig 2: effect of cores per node on solver and FEA phases",
		"phase", "cores", "runtime_ms", "speedup", "efficiency")
	eff := map[string]map[int]float64{}
	// Each app × core-count cell is an independent node simulation; fan
	// them out and derive speedup/efficiency in row order afterwards.
	nc := len(coreCounts)
	cfgs := make([]*config.MachineConfig, 0, len(apps)*nc)
	for _, app := range apps {
		for _, cores := range coreCounts {
			cfg := SweepMachine(app, "ddr3-1333", 4, scale)
			cfg.Name = fmt.Sprintf("%s-%dc", app, cores)
			cfg.Node.Cores = cores
			cfgs = append(cfgs, cfg)
		}
	}
	pts := machineGrid(cfgs)
	pts.label = func(i int) string { return fmt.Sprintf("core: scaling %s/%d", apps[i/nc], coreCounts[i%nc]) }
	flat, _, err := runGrid(opts, pts)
	if err != nil {
		return nil, err
	}
	for ai, app := range apps {
		eff[app] = map[int]float64{}
		t1 := flat[ai*nc].Seconds * float64(coreCounts[0])
		for ci, cores := range coreCounts {
			res := flat[ai*nc+ci]
			speedup := t1 / res.Seconds
			e := speedup / float64(cores)
			eff[app][cores] = e
			t.AddRow(app, cores, res.Seconds*1e3, speedup, e)
		}
	}
	return &CoreScalingResult{TableResult: TableResult{Tab: t}, Efficiency: eff}, nil
}

// CacheResult is the cache study's Result: the rendered table plus
// Results[app] = the full node result behind each row.
type CacheResult struct {
	TableResult
	Results map[string]*NodeResult
}

// CacheStudy is the Fig. 4 analogue: L1/L2 hit rates of the FEA-like and
// solver phases. The assembly phase lives in L1; the solver streams and
// shows much weaker outer-level locality.
func CacheStudy(scale Scale, opts SweepOptions) (*CacheResult, error) {
	t := stats.NewTable("Fig 4: cache behavior of the FEA and solver phases",
		"phase", "l1_hit_rate", "l2_hit_rate", "dram_MB")
	out := map[string]*NodeResult{}
	apps := []string{"fea", "hpccg"}
	cfgs := make([]*config.MachineConfig, len(apps))
	for i, app := range apps {
		cfg := SweepMachine(app, "ddr3-1333", 4, scale)
		// Measure raw locality: the stream prefetcher would convert the
		// solver's compulsory misses into hits and mask the contrast.
		cfg.Node.L1.Prefetch = false
		cfg.Node.L2.Prefetch = false
		cfgs[i] = cfg
	}
	results, err := RunMachines(cfgs, opts)
	if err != nil {
		return nil, err
	}
	for i, app := range apps {
		res := results[i]
		out[app] = res
		t.AddRow(app, res.L1HitRate, res.L2HitRate, float64(res.MemBytes)/1e6)
	}
	return &CacheResult{TableResult: TableResult{Tab: t}, Results: out}, nil
}
