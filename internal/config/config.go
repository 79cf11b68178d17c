// Package config implements gosst's machine-description layer — the
// Abstract Machine Model (AMM) files that SST-style simulators are driven
// by. A MachineConfig names a node architecture (cores, caches, memory) and
// a workload; a SystemConfig names a multi-node machine (topology, network
// parameters) and a communication profile. Both load from JSON with full
// validation, and convert into the concrete component configurations of the
// cpu, mem, dram and noc packages.
package config

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"strconv"
	"strings"

	"sst/internal/cpu"
	"sst/internal/dram"
	"sst/internal/mem"
	"sst/internal/noc"
	"sst/internal/sim"
	"sst/internal/workload"
)

// ParseSize parses "32KB", "4MB", "64" (bytes), "2GB" into a byte count.
// Units are binary (KB = 1024).
func ParseSize(s string) (int, error) {
	s = strings.TrimSpace(s)
	i := len(s)
	for i > 0 {
		c := s[i-1]
		if c >= '0' && c <= '9' {
			break
		}
		i--
	}
	num, unit := s[:i], strings.ToUpper(strings.TrimSpace(s[i:]))
	v, err := strconv.Atoi(num)
	if err != nil || v < 0 {
		return 0, fmt.Errorf("config: bad size %q", s)
	}
	var shift uint
	switch unit {
	case "", "B":
		return v, nil
	case "KB", "K", "KIB":
		shift = 10
	case "MB", "M", "MIB":
		shift = 20
	case "GB", "G", "GIB":
		shift = 30
	default:
		return 0, fmt.Errorf("config: bad size unit in %q", s)
	}
	out := v << shift
	if out>>shift != v {
		return 0, fmt.Errorf("config: size %q overflows", s)
	}
	return out, nil
}

// CPUSpec describes a core in AMM form.
type CPUSpec struct {
	// Kind is "inorder", "superscalar", "ooo" or "threaded".
	Kind string `json:"kind"`
	// Freq is e.g. "2GHz".
	Freq string `json:"freq"`
	// Width is the issue width (superscalar).
	Width int `json:"width,omitempty"`
	// Threads is the hardware thread count (threaded).
	Threads int `json:"threads,omitempty"`
	// FloatLat, IntLat and BranchPenalty in cycles (0 = defaults).
	IntLat        uint64 `json:"int_lat,omitempty"`
	FloatLat      uint64 `json:"float_lat,omitempty"`
	BranchPenalty uint64 `json:"branch_penalty,omitempty"`
	LoadQ         int    `json:"loadq,omitempty"`
	StoreQ        int    `json:"storeq,omitempty"`
	// Predictor sizes the 2-bit table; 0 means a perfect predictor.
	Predictor int `json:"predictor,omitempty"`
	// ROB sizes the out-of-order window ("ooo" kind only).
	ROB int `json:"rob,omitempty"`
}

// ToCoreConfig converts to the cpu package's configuration.
func (s CPUSpec) ToCoreConfig(name string) (cpu.Config, error) {
	freq, err := sim.ParseHz(s.Freq)
	if err != nil {
		return cpu.Config{}, fmt.Errorf("config: cpu freq: %w", err)
	}
	cfg := cpu.Config{
		Name: name, Freq: freq, Width: s.Width, Threads: s.Threads,
		IntLat: sim.Cycle(s.IntLat), FloatLat: sim.Cycle(s.FloatLat),
		BranchPenalty:    sim.Cycle(s.BranchPenalty),
		LoadQ:            s.LoadQ,
		StoreQ:           s.StoreQ,
		PredictorEntries: s.Predictor,
		ROB:              s.ROB,
	}
	switch s.Kind {
	case "inorder", "superscalar", "ooo", "threaded":
	case "":
		return cpu.Config{}, fmt.Errorf("config: cpu kind missing")
	default:
		return cpu.Config{}, fmt.Errorf("config: unknown cpu kind %q", s.Kind)
	}
	if err := cfg.Validate(); err != nil {
		return cpu.Config{}, err
	}
	return cfg, nil
}

// CacheSpec describes one cache level in AMM form.
type CacheSpec struct {
	Size  string `json:"size"`
	Line  int    `json:"line,omitempty"` // default 64
	Assoc int    `json:"assoc"`
	// HitLat in core-clock cycles.
	HitLat uint64 `json:"hit_lat"`
	MSHRs  int    `json:"mshrs,omitempty"`
	// Policy is "writeback" (default) or "writethrough".
	Policy string `json:"policy,omitempty"`
	// Repl is "lru" (default), "fifo" or "random".
	Repl     string `json:"repl,omitempty"`
	Prefetch bool   `json:"prefetch,omitempty"`
	// PrefetchDeg is how many lines ahead the prefetcher runs (default 1).
	PrefetchDeg int `json:"prefetch_degree,omitempty"`
}

// ToCacheConfig converts to the mem package's configuration; hit latency is
// converted from cycles at the core frequency.
func (s CacheSpec) ToCacheConfig(name string, coreFreq sim.Hz) (mem.CacheConfig, error) {
	size, err := ParseSize(s.Size)
	if err != nil {
		return mem.CacheConfig{}, err
	}
	line := s.Line
	if line == 0 {
		line = 64
	}
	var repl mem.ReplKind
	switch s.Repl {
	case "", "lru":
		repl = mem.LRU
	case "fifo":
		repl = mem.FIFO
	case "random":
		repl = mem.RandomRepl
	default:
		return mem.CacheConfig{}, fmt.Errorf("config: cache %s: unknown replacement %q", name, s.Repl)
	}
	wb := true
	switch s.Policy {
	case "", "writeback":
	case "writethrough":
		wb = false
	default:
		return mem.CacheConfig{}, fmt.Errorf("config: cache %s: unknown policy %q", name, s.Policy)
	}
	cfg := mem.CacheConfig{
		Name:             name,
		SizeBytes:        size,
		LineBytes:        line,
		Assoc:            s.Assoc,
		HitLatency:       coreFreq.CycleTime(sim.Cycle(s.HitLat)),
		MSHRs:            s.MSHRs,
		WriteBack:        wb,
		Repl:             repl,
		PrefetchNextLine: s.Prefetch,
		PrefetchDegree:   s.PrefetchDeg,
	}
	if err := cfg.Validate(); err != nil {
		return mem.CacheConfig{}, err
	}
	return cfg, nil
}

// MemSpec selects a DRAM technology.
type MemSpec struct {
	// Preset names a dram technology ("ddr3-1333", "gddr5-4000", ...).
	Preset   string `json:"preset"`
	Channels int    `json:"channels,omitempty"`
	// Scheduler overrides: "fcfs" or "fr-fcfs".
	Scheduler string `json:"scheduler,omitempty"`
	// Mapping overrides: "interleave" or "sequential".
	Mapping string `json:"mapping,omitempty"`
	// CapacityGB prices the memory for cost studies (default 16).
	CapacityGB float64 `json:"capacity_gb,omitempty"`
}

// ToDRAMConfig converts to the dram package's configuration.
func (s MemSpec) ToDRAMConfig() (dram.Config, error) {
	cfg, err := dram.Preset(s.Preset)
	if err != nil {
		return dram.Config{}, err
	}
	if s.Channels > 0 {
		cfg = cfg.WithChannels(s.Channels)
	}
	switch s.Scheduler {
	case "":
	case "fcfs":
		cfg = cfg.WithScheduler(dram.FCFS)
	case "fr-fcfs", "frfcfs":
		cfg = cfg.WithScheduler(dram.FRFCFS)
	default:
		return dram.Config{}, fmt.Errorf("config: unknown scheduler %q", s.Scheduler)
	}
	switch s.Mapping {
	case "":
	case "interleave":
		cfg = cfg.WithMapping(dram.MapInterleave)
	case "sequential":
		cfg = cfg.WithMapping(dram.MapSequential)
	default:
		return dram.Config{}, fmt.Errorf("config: unknown mapping %q", s.Mapping)
	}
	return cfg, nil
}

// Capacity returns the priced capacity in GB.
func (s MemSpec) Capacity() float64 {
	if s.CapacityGB <= 0 {
		return 16
	}
	return s.CapacityGB
}

// WorkloadSpec names a node workload.
type WorkloadSpec struct {
	// Kind: "hpccg", "lulesh", "stencil", "stream", "gups", "fea",
	// "minimd", or "synthetic".
	Kind string `json:"kind"`
	// N is the problem dimension (grid size / element count / updates).
	N int `json:"n,omitempty"`
	// Iters is the iteration count.
	Iters int `json:"iters,omitempty"`
	// Profile names a synthetic mix ("stream", "compute", "irregular").
	Profile string `json:"profile,omitempty"`
	// Ops bounds synthetic streams.
	Ops  uint64 `json:"ops,omitempty"`
	Seed uint64 `json:"seed,omitempty"`
}

// Validate checks the workload shape and fills defaults.
func (s *WorkloadSpec) Validate() error {
	switch s.Kind {
	case "hpccg", "stencil":
		if s.N == 0 {
			s.N = 16
		}
	case "lulesh", "stream", "fea":
		if s.N == 0 {
			s.N = 4096
		}
	case "gups":
		if s.N == 0 {
			s.N = 100_000
		}
	case "minimd":
		if s.N == 0 {
			s.N = 2048
		}
	case "synthetic":
		if s.Profile == "" {
			return fmt.Errorf("config: synthetic workload needs a profile")
		}
		if s.Ops == 0 {
			s.Ops = 1_000_000
		}
	default:
		return fmt.Errorf("config: unknown workload kind %q", s.Kind)
	}
	if s.Iters == 0 {
		s.Iters = 1
	}
	return nil
}

// NodeSpec is one node's architecture.
type NodeSpec struct {
	Cores int        `json:"cores,omitempty"` // default 1
	CPU   CPUSpec    `json:"cpu"`
	L1    *CacheSpec `json:"l1,omitempty"`
	L2    *CacheSpec `json:"l2,omitempty"`
	Mem   MemSpec    `json:"memory"`
	// Coherence selects the multicore protocol fabric: "bus" (snooping,
	// default) or "directory" (point-to-point, scalable).
	Coherence string `json:"coherence,omitempty"`
}

// MachineConfig is a full single-node experiment description.
type MachineConfig struct {
	Name     string       `json:"name"`
	Node     NodeSpec     `json:"node"`
	Workload WorkloadSpec `json:"workload"`
	// MaxOps optionally truncates the workload stream.
	MaxOps uint64 `json:"max_ops,omitempty"`
}

// Validate checks the whole machine description.
func (m *MachineConfig) Validate() error {
	if m.Name == "" {
		return fmt.Errorf("config: machine needs a name")
	}
	if m.Node.Cores == 0 {
		m.Node.Cores = 1
	}
	if m.Node.Cores < 0 || m.Node.Cores > 1024 {
		return fmt.Errorf("config: core count %d out of range", m.Node.Cores)
	}
	switch m.Node.Coherence {
	case "", "bus", "directory":
	default:
		return fmt.Errorf("config: unknown coherence fabric %q", m.Node.Coherence)
	}
	if m.Node.Coherence == "directory" && m.Node.Cores > 64 {
		return fmt.Errorf("config: directory supports at most 64 cores")
	}
	if _, err := m.Node.CPU.ToCoreConfig("cpu"); err != nil {
		return err
	}
	freq, _ := sim.ParseHz(m.Node.CPU.Freq)
	if m.Node.L1 != nil {
		if _, err := m.Node.L1.ToCacheConfig("l1", freq); err != nil {
			return err
		}
	}
	if m.Node.L2 != nil {
		if m.Node.L1 == nil {
			return fmt.Errorf("config: L2 without L1")
		}
		if _, err := m.Node.L2.ToCacheConfig("l2", freq); err != nil {
			return err
		}
	}
	if _, err := m.Node.Mem.ToDRAMConfig(); err != nil {
		return err
	}
	if c := m.Node.Mem.CapacityGB; math.IsNaN(c) || math.IsInf(c, 0) || c < 0 {
		return fmt.Errorf("config: node.memory.capacity_gb: %v must be finite and non-negative", c)
	}
	return m.Workload.Validate()
}

// TopoSpec names a network topology.
type TopoSpec struct {
	// Kind: "mesh2d", "torus", "fattree", "crossbar", "hypercube",
	// "butterfly".
	Kind string `json:"kind"`
	X    int    `json:"x,omitempty"`
	Y    int    `json:"y,omitempty"`
	Z    int    `json:"z,omitempty"`
	// Fat tree shape.
	Edges        int `json:"edges,omitempty"`
	NodesPerEdge int `json:"nodes_per_edge,omitempty"`
	Cores        int `json:"cores,omitempty"`
	// Crossbar size / hypercube dimension.
	N int `json:"n,omitempty"`
	// Butterfly shape.
	Switches int `json:"switches,omitempty"`
	Radix    int `json:"radix,omitempty"`
}

// Build constructs the topology.
func (s TopoSpec) Build() (noc.Topology, error) {
	switch s.Kind {
	case "mesh2d":
		return noc.NewMesh2D(s.X, s.Y)
	case "torus":
		z := s.Z
		if z == 0 {
			z = 1
		}
		return noc.NewTorus3D(s.X, s.Y, z)
	case "fattree":
		return noc.NewFatTree(s.Edges, s.NodesPerEdge, s.Cores)
	case "crossbar":
		return noc.NewCrossbar(s.N)
	case "hypercube":
		return noc.NewHypercube(s.N)
	case "butterfly":
		return noc.NewButterfly(s.Switches, s.Radix)
	default:
		return nil, fmt.Errorf("config: unknown topology %q", s.Kind)
	}
}

// NetSpec is the physical network description.
type NetSpec struct {
	// LinkBW and InjectBW are bytes/s.
	LinkBW   float64 `json:"link_bw"`
	InjectBW float64 `json:"inject_bw"`
	// LinkLat and RouterLat are time strings ("100ns").
	LinkLat   string `json:"link_lat"`
	RouterLat string `json:"router_lat,omitempty"`
	PacketB   int    `json:"packet_bytes,omitempty"`
}

// ToNetConfig converts to the noc package's configuration. Latencies and
// bandwidths are validated here, with the offending JSON field named in
// the error: a zero or negative link latency in particular would silently
// destroy the parallel runtime's lookahead (cross-partition links
// synchronize at the minimum link latency), so it is rejected at load time
// rather than surfacing later as a deadlocked or crawling simulation.
func (s NetSpec) ToNetConfig() (noc.NetConfig, error) {
	ll, err := sim.ParseTime(s.LinkLat)
	if err != nil {
		return noc.NetConfig{}, fmt.Errorf("config: network.link_lat: %w", err)
	}
	if ll <= 0 {
		return noc.NetConfig{}, fmt.Errorf(
			"config: network.link_lat: %q must be positive (it is the cross-partition lookahead)", s.LinkLat)
	}
	var rl sim.Time
	if s.RouterLat != "" {
		if rl, err = sim.ParseTime(s.RouterLat); err != nil {
			return noc.NetConfig{}, fmt.Errorf("config: network.router_lat: %w", err)
		}
	}
	for _, bw := range []struct {
		field string
		v     float64
	}{{"network.link_bw", s.LinkBW}, {"network.inject_bw", s.InjectBW}} {
		if math.IsNaN(bw.v) || math.IsInf(bw.v, 0) || bw.v <= 0 {
			return noc.NetConfig{}, fmt.Errorf("config: %s: %v must be positive and finite", bw.field, bw.v)
		}
	}
	cfg := noc.NetConfig{
		LinkBandwidth:      s.LinkBW,
		InjectionBandwidth: s.InjectBW,
		LinkLatency:        ll,
		RouterLatency:      rl,
		MaxPacketBytes:     s.PacketB,
	}
	if err := cfg.Validate(); err != nil {
		return noc.NetConfig{}, err
	}
	return cfg, nil
}

// SystemConfig is a multi-node experiment description.
type SystemConfig struct {
	Name string   `json:"name"`
	Topo TopoSpec `json:"topology"`
	Net  NetSpec  `json:"network"`
	// App names a communication profile (workload.LookupProfile): "cth",
	// "sage", "charon", "xnobel".
	App string `json:"app"`
	// Ranks defaults to the node count.
	Ranks int `json:"ranks,omitempty"`
	Steps int `json:"steps,omitempty"`
}

// Validate checks the system description.
func (s *SystemConfig) Validate() error {
	if s.Name == "" {
		return fmt.Errorf("config: system needs a name")
	}
	topo, err := s.Topo.Build()
	if err != nil {
		return err
	}
	if _, err := s.Net.ToNetConfig(); err != nil {
		return err
	}
	if _, ok := workload.LookupProfile(s.App); !ok {
		return fmt.Errorf("config: unknown app profile %q", s.App)
	}
	if s.Ranks < 0 || s.Ranks > topo.NumNodes() {
		return fmt.Errorf("config: %d ranks for %d nodes", s.Ranks, topo.NumNodes())
	}
	return nil
}

// LoadMachine reads and validates a machine config from JSON.
func LoadMachine(r io.Reader) (*MachineConfig, error) {
	var m MachineConfig
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&m); err != nil {
		return nil, fmt.Errorf("config: %w", err)
	}
	if err := m.Validate(); err != nil {
		return nil, err
	}
	return &m, nil
}

// LoadMachineFile reads a machine config from a file path.
func LoadMachineFile(path string) (*MachineConfig, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return LoadMachine(f)
}

// LoadSystem reads and validates a system config from JSON.
func LoadSystem(r io.Reader) (*SystemConfig, error) {
	var s SystemConfig
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&s); err != nil {
		return nil, fmt.Errorf("config: %w", err)
	}
	if err := s.Validate(); err != nil {
		return nil, err
	}
	return &s, nil
}

// LoadSystemFile reads a system config from a file path.
func LoadSystemFile(path string) (*SystemConfig, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return LoadSystem(f)
}
