package config

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strings"
	"testing"

	"sst/internal/dram"
	"sst/internal/sim"
)

// canonicalHashFmt is the reference rendering of MachineConfig.CanonicalHash:
// the same stream written with fmt's reflective %#v. The production appender
// must match it byte for byte (TestCanonicalMatchesFmt, FuzzConfigHash), so a
// field added to a component config without a matching appender line fails
// here instead of silently dropping out of the key.
func canonicalHashFmt(m MachineConfig) (string, error) {
	cp := m
	if err := cp.Validate(); err != nil {
		return "", err
	}
	h := sha256.New()
	fmt.Fprintf(h, "%s\nname=%q\ncores=%d\n", canonVersionMachine, cp.Name, cp.Node.Cores)
	coherence := cp.Node.Coherence
	if coherence == "" {
		coherence = "bus"
	}
	fmt.Fprintf(h, "coherence=%s\nmax_ops=%d\n", coherence, cp.MaxOps)
	core, err := cp.Node.CPU.ToCoreConfig("cpu")
	if err != nil {
		return "", err
	}
	fmt.Fprintf(h, "cpu.kind=%s\ncpu=%#v\n", cp.Node.CPU.Kind, core)
	if err := hashCacheLevelFmt(h, "l1", cp.Node.L1, core.Freq); err != nil {
		return "", err
	}
	if err := hashCacheLevelFmt(h, "l2", cp.Node.L2, core.Freq); err != nil {
		return "", err
	}
	dcfg, err := cp.Node.Mem.ToDRAMConfig()
	if err != nil {
		return "", err
	}
	if err := dcfg.Validate(); err != nil {
		return "", err
	}
	fmt.Fprintf(h, "dram=%#v\ndram.capacity_gb=%v\n", dcfg, cp.Node.Mem.Capacity())
	fmt.Fprintf(h, "workload=%#v\n", cp.Workload)
	return fmt.Sprintf("m1:%x", h.Sum(nil)), nil
}

func hashCacheLevelFmt(w io.Writer, name string, spec *CacheSpec, freq sim.Hz) error {
	if spec == nil {
		fmt.Fprintf(w, "%s=none\n", name)
		return nil
	}
	cfg, err := spec.ToCacheConfig(name, freq)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "%s=%#v\n", name, cfg)
	return nil
}

// keyUniverse is every machine shape the studies content-address: the
// Fig. 10-12 sweep node (seven apps x six memory technologies x widths
// 1/2/4/8 at both problem scales), plus multicore bus and directory nodes,
// a node without L2, the cache-less near-memory node, the other core kinds
// and cache policies, truncated streams and synthetic workloads.
func keyUniverse() []MachineConfig {
	type size struct{ smallN, fullN, fullIters int }
	apps := map[string]size{
		"hpccg": {6, 18, 1}, "lulesh": {768, 16384, 1}, "stencil": {8, 16, 2},
		"stream": {1024, 8192, 2}, "fea": {1024, 8192, 2}, "gups": {4000, 30000, 1},
		"minimd": {512, 4096, 1},
	}
	var techs []string
	for name := range dram.Presets() {
		techs = append(techs, name)
	}
	sort.Strings(techs)
	sweep := func(app, tech string, width int, full bool) MachineConfig {
		sz := apps[app]
		wl := WorkloadSpec{Kind: app, N: sz.smallN, Iters: 1}
		if full {
			wl.N, wl.Iters = sz.fullN, sz.fullIters
		}
		return MachineConfig{
			Name: fmt.Sprintf("%s-%s-w%d", app, tech, width),
			Node: NodeSpec{
				Cores: 1,
				CPU: CPUSpec{Kind: "superscalar", Freq: "3.2GHz", Width: width,
					Predictor: 1024, LoadQ: 8 * width, StoreQ: 8 * width},
				L1:  &CacheSpec{Size: "32KB", Assoc: 4, HitLat: 2, MSHRs: 16, Prefetch: true, PrefetchDeg: 2},
				L2:  &CacheSpec{Size: "256KB", Assoc: 8, HitLat: 10, MSHRs: 32, Prefetch: true, PrefetchDeg: 8},
				Mem: MemSpec{Preset: tech, Channels: 1, CapacityGB: 4},
			},
			Workload: wl,
		}
	}
	var out []MachineConfig
	for app := range apps {
		for _, tech := range techs {
			for _, w := range []int{1, 2, 4, 8} {
				out = append(out, sweep(app, tech, w, false), sweep(app, tech, w, true))
			}
		}
	}
	variant := func(f func(m *MachineConfig)) {
		m := sweep("stream", "ddr3-1333", 4, false)
		l1, l2 := *m.Node.L1, *m.Node.L2 // no aliasing between variants
		m.Node.L1, m.Node.L2 = &l1, &l2
		f(&m)
		out = append(out, m)
	}
	variant(func(m *MachineConfig) { m.Node.Cores = 4 })
	variant(func(m *MachineConfig) { m.Node.Cores, m.Node.Coherence = 16, "directory" })
	variant(func(m *MachineConfig) { m.Node.L2 = nil })
	variant(func(m *MachineConfig) {
		m.Node.L1, m.Node.L2 = nil, nil
		m.Node.CPU = CPUSpec{Kind: "threaded", Freq: "1GHz", Threads: 16}
		m.Node.Mem = MemSpec{Preset: "ddr3-1333", Channels: 4}
	})
	variant(func(m *MachineConfig) { m.Node.CPU = CPUSpec{Kind: "inorder", Freq: "1GHz"} })
	variant(func(m *MachineConfig) { m.Node.CPU = CPUSpec{Kind: "ooo", Freq: "2GHz", Width: 4, ROB: 64} })
	variant(func(m *MachineConfig) { m.Node.L1.Policy, m.Node.L1.Repl = "writethrough", "random" })
	variant(func(m *MachineConfig) { m.Node.L2.Repl, m.Node.L2.Line = "fifo", 128 })
	variant(func(m *MachineConfig) { m.MaxOps, m.Workload.Seed = 12345, 7 })
	variant(func(m *MachineConfig) { m.Name = "quote\"<&>\u00e9\x00" })
	variant(func(m *MachineConfig) { m.Node.Mem.CapacityGB = 0.125 })
	for _, p := range []string{"stream", "compute", "irregular"} {
		variant(func(m *MachineConfig) { m.Workload = WorkloadSpec{Kind: "synthetic", Profile: p} })
		variant(func(m *MachineConfig) {
			m.Workload = WorkloadSpec{Kind: "synthetic", Profile: p, Ops: 1 << 40, Seed: ^uint64(0)}
		})
	}
	return out
}

// TestCanonicalMatchesFmt proves the strconv appender renders the same key
// as the fmt oracle for every registered shape, so caches and journals
// written before the appender existed stay valid.
func TestCanonicalMatchesFmt(t *testing.T) {
	seen := map[string]bool{}
	for _, m := range keyUniverse() {
		got, err := m.CanonicalHash()
		if err != nil {
			t.Fatalf("%s: %v", m.Name, err)
		}
		want, err := canonicalHashFmt(m)
		if err != nil {
			t.Fatalf("%s: oracle: %v", m.Name, err)
		}
		if got != want {
			t.Errorf("%s (%s/%d): appender %s, fmt oracle %s", m.Name, m.Workload.Kind, m.Workload.N, got, want)
		}
		seen[got] = true
	}
	if n := len(keyUniverse()); len(seen) != n {
		t.Errorf("%d configs produced only %d distinct keys", n, len(seen))
	}
}

func mustMachine(t *testing.T, js string) *MachineConfig {
	t.Helper()
	m, err := LoadMachine(strings.NewReader(js))
	if err != nil {
		t.Fatalf("LoadMachine: %v", err)
	}
	return m
}

func mustHash(t *testing.T, m *MachineConfig) string {
	t.Helper()
	h, err := m.CanonicalHash()
	if err != nil {
		t.Fatalf("CanonicalHash: %v", err)
	}
	return h
}

func TestCanonicalHashStable(t *testing.T) {
	m := mustMachine(t, fuzzMachineSeed)
	h1 := mustHash(t, m)
	h2 := mustHash(t, m)
	if h1 != h2 {
		t.Fatalf("hash not deterministic: %s vs %s", h1, h2)
	}
	if !strings.HasPrefix(h1, "m1:") || len(h1) != 3+64 {
		t.Errorf("unexpected hash shape %q", h1)
	}
}

func TestCanonicalHashFieldOrderInvariant(t *testing.T) {
	// Same machine with JSON keys in a different order.
	reordered := `{
  "workload": {"iters": 1, "n": 8192, "kind": "lulesh"},
  "node": {
    "memory": {"capacity_gb": 4, "channels": 1, "preset": "ddr3-1333"},
    "l2": {"prefetch_degree": 8, "prefetch": true, "mshrs": 32, "hit_lat": 10, "assoc": 8, "size": "256KB"},
    "l1": {"prefetch_degree": 2, "prefetch": true, "mshrs": 16, "hit_lat": 2, "assoc": 4, "size": "32KB"},
    "cpu": {"predictor": 1024, "storeq": 32, "loadq": 32, "width": 4, "freq": "3.2GHz", "kind": "superscalar"},
    "cores": 1
  },
  "name": "node-ddr3-w4"
}`
	a := mustHash(t, mustMachine(t, fuzzMachineSeed))
	b := mustHash(t, mustMachine(t, reordered))
	if a != b {
		t.Errorf("field order changed the hash: %s vs %s", a, b)
	}
}

func TestCanonicalHashDefaultedVsExplicit(t *testing.T) {
	// Defaults left implicit vs spelled out: cores=1, line=64, mshrs=8,
	// iters=1, coherence=bus, scheduler fr-fcfs is ddr3-1333's preset
	// default, capacity_gb=16.
	implicit := `{
  "name": "d",
  "node": {
    "cpu": {"kind": "inorder", "freq": "1GHz"},
    "l1": {"size": "32KB", "assoc": 4, "hit_lat": 2},
    "memory": {"preset": "ddr3-1333"}
  },
  "workload": {"kind": "stream"}
}`
	explicit := `{
  "name": "d",
  "node": {
    "cores": 1,
    "coherence": "bus",
    "cpu": {"kind": "inorder", "freq": "1GHz", "width": 1, "int_lat": 1, "float_lat": 4, "branch_penalty": 8, "loadq": 8, "storeq": 8, "threads": 1},
    "l1": {"size": "32KB", "line": 64, "assoc": 4, "hit_lat": 2, "mshrs": 8, "policy": "writeback", "repl": "lru"},
    "memory": {"preset": "ddr3-1333", "capacity_gb": 16}
  },
  "workload": {"kind": "stream", "n": 4096, "iters": 1}
}`
	a := mustHash(t, mustMachine(t, implicit))
	b := mustHash(t, mustMachine(t, explicit))
	if a != b {
		t.Errorf("defaulted vs explicit configs hash differently: %s vs %s", a, b)
	}
}

func TestCanonicalHashSensitivity(t *testing.T) {
	base := mustHash(t, mustMachine(t, fuzzMachineSeed))
	mutate := func(name string, f func(m *MachineConfig)) {
		m := mustMachine(t, fuzzMachineSeed)
		f(m)
		if got := mustHash(t, m); got == base {
			t.Errorf("%s: mutation did not change the hash", name)
		}
	}
	mutate("name", func(m *MachineConfig) { m.Name = "other" })
	mutate("cores", func(m *MachineConfig) { m.Node.Cores = 2 })
	mutate("cpu width", func(m *MachineConfig) { m.Node.CPU.Width = 2 })
	mutate("cpu kind", func(m *MachineConfig) { m.Node.CPU.Kind = "ooo" })
	mutate("freq", func(m *MachineConfig) { m.Node.CPU.Freq = "2GHz" })
	mutate("l1 size", func(m *MachineConfig) { m.Node.L1.Size = "64KB" })
	mutate("l1 dropped", func(m *MachineConfig) { m.Node.L1, m.Node.L2 = nil, nil })
	mutate("l2 dropped", func(m *MachineConfig) { m.Node.L2 = nil })
	mutate("mem preset", func(m *MachineConfig) { m.Node.Mem.Preset = "ddr3-1600" })
	mutate("mem channels", func(m *MachineConfig) { m.Node.Mem.Channels = 2 })
	mutate("workload kind", func(m *MachineConfig) { m.Workload.Kind = "stream" })
	mutate("workload n", func(m *MachineConfig) { m.Workload.N = 16384 })
	mutate("workload seed", func(m *MachineConfig) { m.Workload.Seed = 7 })
	mutate("max ops", func(m *MachineConfig) { m.MaxOps = 1000 })
	mutate("coherence", func(m *MachineConfig) {
		m.Node.Cores = 4
		m.Node.Coherence = "directory"
	})
}

func TestCanonicalHashInvalidConfig(t *testing.T) {
	var m MachineConfig // no name, no cpu kind
	if _, err := m.CanonicalHash(); err == nil {
		t.Error("want error hashing an invalid config")
	}
	// Hashing must not mutate the caller's config.
	m2 := *mustMachine(t, `{"name":"d","node":{"cpu":{"kind":"inorder","freq":"1GHz"},"memory":{"preset":"ddr3-1333"}},"workload":{"kind":"stream"}}`)
	m2.Node.Cores = 0 // pretend pre-validation state
	_, _ = m2.CanonicalHash()
	if m2.Node.Cores != 0 {
		t.Error("CanonicalHash mutated its receiver")
	}
}

// FuzzConfigHash asserts canonical-hash stability under re-serialization:
// any config that loads must (a) hash deterministically and byte-identically
// to the fmt oracle, (b) hash the same
// after a marshal→unmarshal round trip (which re-orders nothing
// semantically but rewrites all JSON syntax), and (c) hash differently
// when a load-bearing field is changed.
func FuzzConfigHash(f *testing.F) {
	f.Add(fuzzMachineSeed)
	f.Add(`{"name":"x","node":{"cpu":{"kind":"inorder","freq":"1GHz"},"memory":{"preset":"ddr3-1333"}},"workload":{"kind":"stream"}}`)
	f.Add(`{"name":"x","node":{"cores":4,"coherence":"directory","cpu":{"kind":"ooo","freq":"2GHz","rob":64},"l1":{"size":"16KB","assoc":2,"hit_lat":1},"memory":{"preset":"gddr5-4000"}},"workload":{"kind":"gups"}}`)
	f.Add(`{"name":"x","node":{"cpu":{"kind":"threaded","freq":"1GHz","threads":4},"memory":{"preset":"ddr3-1066"}},"workload":{"kind":"synthetic","profile":"stream"}}`)
	f.Fuzz(func(t *testing.T, data string) {
		m, err := LoadMachine(strings.NewReader(data))
		if err != nil {
			return
		}
		h1, err := m.CanonicalHash()
		if err != nil {
			t.Fatalf("validated config fails CanonicalHash: %v", err)
		}
		if want, err := canonicalHashFmt(*m); err != nil || h1 != want {
			t.Fatalf("appender %s, fmt oracle %s (err %v)", h1, want, err)
		}
		if h2, _ := m.CanonicalHash(); h2 != h1 {
			t.Fatalf("hash not deterministic: %s vs %s", h1, h2)
		}

		// Round trip through JSON: syntax normalizes, semantics identical.
		blob, err := json.Marshal(m)
		if err != nil {
			t.Fatalf("marshal: %v", err)
		}
		m2, err := LoadMachine(strings.NewReader(string(blob)))
		if err != nil {
			t.Fatalf("reload of marshaled config failed: %v", err)
		}
		if h2, err := m2.CanonicalHash(); err != nil || h2 != h1 {
			t.Fatalf("round-tripped config hashes %s (err %v), want %s", h2, err, h1)
		}

		// Changed fields change the hash.
		m3 := *m
		m3.Workload.Seed = m.Workload.Seed + 1
		if h3, err := m3.CanonicalHash(); err == nil && h3 == h1 {
			t.Fatal("seed change did not change the hash")
		}
		m4 := *m
		m4.Name = m.Name + "x"
		if h4, err := m4.CanonicalHash(); err == nil && h4 == h1 {
			t.Fatal("name change did not change the hash")
		}
	})
}

func BenchmarkCanonicalHash(b *testing.B) {
	m := keyUniverse()[0]
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := m.CanonicalHash(); err != nil {
			b.Fatal(err)
		}
	}
}
