// Package core is gosst's public facade: it assembles complete node and
// system models from Abstract Machine Model configurations, runs them, and
// produces the design-space exploration tables of the SST studies —
// memory-technology and issue-width sweeps with power and cost axes, the
// network injection-bandwidth degradation study, the PIM-vs-conventional
// comparison and the memory-speed sensitivity study.
package core

import (
	"fmt"
	"time"

	"sst/internal/config"
	"sst/internal/cpu"
	"sst/internal/dram"
	"sst/internal/mem"
	"sst/internal/power"
	"sst/internal/sim"
	"sst/internal/stats"
)

// cacheAreaMM2PerKB approximates SRAM array area for the chip cost model.
const cacheAreaMM2PerKB = 0.04

// uncoreAreaMM2 covers I/O, memory controllers and interconnect on a die.
const uncoreAreaMM2 = 25

// NodeModel is a fully wired single-node simulation: cores over an optional
// cache hierarchy (MESI bus when multicore) over DRAM, driven by a
// workload.
type NodeModel struct {
	Cfg     *config.MachineConfig
	Sim     *sim.Simulation
	Reg     *stats.Registry
	Cores   []cpu.Core
	L1s     []*mem.Cache
	L2      *mem.Cache
	Bus     *mem.Bus
	Dir     *mem.Directory
	DRAM    *dram.Memory
	Power   power.CoreParams
	Cost    power.CostParams
	Thermal power.ThermalParams
	Rel     power.ReliabilityParams
	closer  []func()

	// arena, when non-nil, is the sweep worker's PointArena this model's
	// storage was drawn from; Close hands the storage back.
	arena *PointArena
}

// NodeResult summarizes one run for the experiment harnesses.
type NodeResult struct {
	Name    string
	Seconds float64
	Retired uint64
	Flops   uint64
	// IPC is aggregate retired ops per core-cycle across cores.
	IPC float64
	// L1HitRate and L2HitRate are 0 when the level is absent.
	L1HitRate float64
	L2HitRate float64
	// DRAM activity.
	MemBytes      uint64
	MemBandwidth  float64 // achieved bytes/s
	MemRowHitRate float64
	// Energy and cost.
	Budget power.NodeBudget
	// AreaMM2 is the whole die.
	AreaMM2 float64
	// Thermal/reliability roll-up: steady-state junction temperature at
	// the run's average power, and the node failure rate / MTBF at that
	// temperature.
	TempC     float64
	NodeFIT   float64
	MTBFHours float64
	// Run mechanics: engine events dispatched, the pending-queue high-water
	// mark and the host wall time the run took.
	Events      uint64
	PeakQueue   int
	HostSeconds float64
}

// PerfPerWatt returns work-rate per watt (work = 1/Seconds).
func (r *NodeResult) PerfPerWatt() float64 {
	if r.Seconds == 0 {
		return 0
	}
	return r.Budget.PerfPerWatt(1 / r.Seconds)
}

// PerfPerDollar returns work-rate per dollar.
func (r *NodeResult) PerfPerDollar() float64 {
	if r.Seconds == 0 {
		return 0
	}
	return r.Budget.PerfPerDollar(1 / r.Seconds)
}

// BuildNode assembles a node model from a validated machine config.
func BuildNode(cfg *config.MachineConfig) (*NodeModel, error) {
	return BuildNodeArena(cfg, nil)
}

// BuildNodeArena is BuildNode drawing the model's bulk storage — the
// engine's event free list, cache backing arrays and kernel batch buffers —
// from a sweep worker's PointArena. A nil arena behaves exactly like
// BuildNode. Close (deferred by Run) hands the storage back scrubbed;
// simulation results are bit-identical either way.
func BuildNodeArena(cfg *config.MachineConfig, arena *PointArena) (*NodeModel, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	n := &NodeModel{
		Cfg:     cfg,
		Sim:     sim.New(),
		Reg:     stats.NewRegistry(),
		Power:   power.DefaultCoreParams(),
		Cost:    power.DefaultCostParams(),
		Thermal: power.DefaultThermalParams(),
		Rel:     power.DefaultReliabilityParams(),
		arena:   arena,
	}
	engine := n.Sim.Engine()
	if arena != nil {
		// Lend is a move: the arena is empty until the harvest closer runs,
		// so a point that dies mid-build loses buffers, never shares them.
		arena.Events.Lend(engine)
		n.closer = append(n.closer, func() { arena.Events.Harvest(engine) })
	}

	dramCfg, err := cfg.Node.Mem.ToDRAMConfig()
	if err != nil {
		return nil, err
	}
	n.DRAM, err = dram.New(engine, "dram", dramCfg, n.Reg.Scope("dram"))
	if err != nil {
		return nil, err
	}
	var lowest mem.Device = &mem.DRAMDevice{Mem: n.DRAM}
	// The memory channel between the deepest cache level and DRAM is a real
	// (zero-latency, so timing-neutral) link rather than a direct call:
	// channel traffic becomes attributable in traces and counted by the
	// link (sim.Link.Traffic).
	chanA, chanB := n.Sim.Connect("dram.chan", 0)
	lowest = mem.NewChannelDevice(chanA, chanB, lowest)

	coreCfg, err := cfg.Node.CPU.ToCoreConfig("cpu")
	if err != nil {
		return nil, err
	}
	freq := coreCfg.Freq
	clock := n.Sim.Clock(freq)

	// L2 (shared) sits directly above DRAM.
	if cfg.Node.L2 != nil {
		l2cfg, err := cfg.Node.L2.ToCacheConfig("l2", freq)
		if err != nil {
			return nil, err
		}
		n.L2, err = n.newCache(l2cfg, lowest, "l2")
		if err != nil {
			return nil, err
		}
		lowest = n.L2
	}

	cores := cfg.Node.Cores
	// A coherence fabric is needed when several L1s share the level
	// below: a snooping bus (default) or a directory.
	needFabric := cores > 1 && cfg.Node.L1 != nil
	useDir := cfg.Node.Coherence == "directory"
	if needFabric {
		if useDir {
			n.Dir = mem.NewDirectory(engine, "dir", 4*sim.Nanosecond, lowest, n.Reg.Scope("dir"))
		} else {
			n.Bus = mem.NewBus(engine, "bus", 2*sim.Nanosecond, 50e9, lowest, n.Reg.Scope("bus"))
		}
	}

	streams, err := n.buildStreams()
	if err != nil {
		return nil, err
	}

	for i := 0; i < cores; i++ {
		var lower mem.Device = lowest
		if cfg.Node.L1 != nil {
			l1cfg, err := cfg.Node.L1.ToCacheConfig(fmt.Sprintf("l1.%d", i), freq)
			if err != nil {
				return nil, err
			}
			var l1Lower mem.Device = lowest
			var busPort *mem.BusPort
			var dirPort *mem.DirPort
			if needFabric {
				if useDir {
					dirPort = n.Dir.Port(nil)
					l1Lower = dirPort
				} else {
					busPort = n.Bus.Port(nil)
					l1Lower = busPort
				}
			}
			l1, err := n.newCache(l1cfg, l1Lower, fmt.Sprintf("l1.%d", i))
			if err != nil {
				return nil, err
			}
			if busPort != nil {
				busPort.AttachCache(l1)
			}
			if dirPort != nil {
				dirPort.AttachCache(l1)
			}
			n.L1s = append(n.L1s, l1)
			lower = l1
		}
		cc := coreCfg
		cc.Name = fmt.Sprintf("cpu.%d", i)
		scope := n.Reg.Scope(cc.Name)
		var core cpu.Core
		switch cfg.Node.CPU.Kind {
		case "inorder":
			core, err = cpu.NewInOrder(engine, clock, cc, streams[i][0], lower, scope)
		case "superscalar":
			core, err = cpu.NewSuperscalar(engine, clock, cc, streams[i][0], lower, scope)
		case "ooo":
			core, err = cpu.NewOoO(engine, clock, cc, streams[i][0], lower, scope)
		case "threaded":
			core, err = cpu.NewThreaded(engine, clock, cc, streams[i], lower, scope)
		default:
			err = fmt.Errorf("core: unknown cpu kind %q", cfg.Node.CPU.Kind)
		}
		if err != nil {
			return nil, err
		}
		n.Cores = append(n.Cores, core)
		n.Sim.Add(core)
	}
	return n, nil
}

// newCache builds one cache level, drawing the backing array from the
// model's arena (when it has one) and scheduling the return at Close.
func (n *NodeModel) newCache(cfg mem.CacheConfig, lower mem.Device, scope string) (*mem.Cache, error) {
	var pool *mem.LinePool
	if n.arena != nil {
		pool = n.arena.Lines
	}
	c, err := mem.NewCachePool(n.Sim.Engine(), cfg, lower, n.Reg.Scope(scope), pool)
	if err != nil {
		return nil, err
	}
	if pool != nil {
		n.closer = append(n.closer, c.ReleaseLines)
	}
	return c, nil
}

// Close releases kernel-stream goroutines; safe to call repeatedly.
func (n *NodeModel) Close() {
	for _, c := range n.closer {
		c()
	}
	n.closer = nil
}

// Run executes the node to workload completion and gathers the result.
func (n *NodeModel) Run() (*NodeResult, error) {
	defer n.Close()
	engine := n.Sim.Engine()
	remaining := len(n.Cores)
	var endAt sim.Time
	for _, c := range n.Cores {
		c.Start(func() {
			remaining--
			if remaining == 0 {
				endAt = engine.Now()
			}
		})
	}
	hostStart := time.Now()
	engine.RunAll()
	hostSecs := time.Since(hostStart).Seconds()
	if remaining != 0 {
		if engine.Interrupted() {
			return nil, fmt.Errorf("core: %s interrupted: %d cores unfinished at %v: %w",
				n.Cfg.Name, remaining, engine.Now(), sim.ErrInterrupted)
		}
		return nil, fmt.Errorf("core: %s deadlocked: %d cores unfinished at %v",
			n.Cfg.Name, remaining, engine.Now())
	}
	n.Sim.Finish()

	res := &NodeResult{
		Name: n.Cfg.Name, Seconds: endAt.Seconds(),
		Events: engine.Handled(), PeakQueue: engine.PeakPending(),
		HostSeconds: hostSecs,
	}
	var cycles sim.Cycle
	for i, c := range n.Cores {
		res.Retired += c.Retired()
		if cy := c.Cycles(); cy > cycles {
			cycles = cy
		}
		if f := n.Reg.Counter(fmt.Sprintf("cpu.%d.flops", i)); f != nil {
			res.Flops += f.Count()
		}
	}
	if cycles > 0 {
		res.IPC = float64(res.Retired) / float64(cycles)
	}
	res.L1HitRate = n.avgHitRate(n.L1s)
	if n.L2 != nil {
		res.L2HitRate = n.L2.HitRate()
	}
	res.MemBytes = n.DRAM.BytesTransferred()
	res.MemBandwidth = n.DRAM.AchievedBandwidth()
	res.MemRowHitRate = n.DRAM.RowHitRate()

	// Power/cost roll-up.
	act := n.activity(res)
	width := n.Cfg.Node.CPU.Width
	if width <= 0 {
		width = 1
	}
	coreE := n.Power.CoreEnergyJ(width, act) * float64(len(n.Cores))
	res.AreaMM2 = n.dieAreaMM2(width)
	res.Budget = power.NodeBudget{
		CoreEnergyJ: coreE,
		MemEnergyJ:  n.DRAM.EnergyJ(),
		Seconds:     res.Seconds,
		ChipCostUSD: n.Cost.DieCostUSD(res.AreaMM2),
		MemCostUSD:  power.MemoryCostUSD(n.DRAM.Config().DollarsPerGB, n.Cfg.Node.Mem.Capacity()),
	}

	// Thermal and reliability: solve the die's leakage-coupled steady
	// state at the run's dynamic power, then convert temperature to a
	// failure rate.
	if res.Seconds > 0 {
		dynOnly := power.CoreActivity{
			IntOps: act.IntOps, FloatOps: act.FloatOps,
			MemOps: act.MemOps, Branches: act.Branches,
		}
		dynW := n.Power.CoreEnergyJ(width, dynOnly) * float64(len(n.Cores)) / res.Seconds
		leakRefW := n.Power.StaticPowerW(width) * float64(len(n.Cores))
		st := n.Thermal.SteadyState(dynW, leakRefW)
		res.TempC = st.TempC
		res.NodeFIT = n.Rel.FIT(res.AreaMM2, st.TempC, 5)
		res.MTBFHours = power.MTBFHours(res.NodeFIT)
	}
	return res, nil
}

func (n *NodeModel) avgHitRate(cs []*mem.Cache) float64 {
	if len(cs) == 0 {
		return 0
	}
	var hits, total uint64
	for _, c := range cs {
		hits += c.Hits()
		total += c.Hits() + c.Misses()
	}
	if total == 0 {
		return 0
	}
	return float64(hits) / float64(total)
}

// activity extracts a per-core-average operation census from statistics.
func (n *NodeModel) activity(res *NodeResult) power.CoreActivity {
	var loads, stores, branches uint64
	for i := range n.Cores {
		p := fmt.Sprintf("cpu.%d.", i)
		if c := n.Reg.Counter(p + "loads"); c != nil {
			loads += c.Count()
		}
		if c := n.Reg.Counter(p + "stores"); c != nil {
			stores += c.Count()
		}
		if c := n.Reg.Counter(p + "branches"); c != nil {
			branches += c.Count()
		}
	}
	memOps := loads + stores
	ints := res.Retired - res.Flops - memOps - branches
	if res.Retired < res.Flops+memOps+branches {
		ints = 0
	}
	k := float64(len(n.Cores))
	if k == 0 {
		k = 1
	}
	return power.CoreActivity{
		IntOps:   uint64(float64(ints) / k),
		FloatOps: uint64(float64(res.Flops) / k),
		MemOps:   uint64(float64(memOps) / k),
		Branches: uint64(float64(branches) / k),
		Seconds:  res.Seconds,
	}
}

// dieAreaMM2 sums core, cache and uncore area for the cost model.
func (n *NodeModel) dieAreaMM2(width int) float64 {
	area := n.Power.AreaMM2(width) * float64(len(n.Cores))
	var cacheKB int
	for _, c := range n.L1s {
		cacheKB += c.Config().SizeBytes >> 10
	}
	if n.L2 != nil {
		cacheKB += n.L2.Config().SizeBytes >> 10
	}
	return area + float64(cacheKB)*cacheAreaMM2PerKB + uncoreAreaMM2
}
