package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"time"

	"sst/internal/cache"
	"sst/internal/core"
	"sst/internal/cpu"
	"sst/internal/dram"
	"sst/internal/frontend"
	"sst/internal/iofault"
	"sst/internal/mem"
	"sst/internal/noc"
	"sst/internal/sim"
)

// The layer probes. Each times one layer from outside, through its public
// API, at a fixed op count and with inputs derived from the seed, and
// reports host time per operation. They are the per-layer numbers a change
// to one layer should move; bench/README.md says which end-to-end metric
// each should move with it and which it should leave alone.

// probe runs fn, which performs n operations, three times and returns the
// median host nanoseconds per operation.
func probe(n int, fn func()) float64 {
	var ns []float64
	for i := 0; i < 3; i++ {
		t0 := time.Now()
		fn()
		ns = append(ns, float64(time.Since(t0))/float64(n))
	}
	return median(ns)
}

// runProbes returns every layer probe's metric. The smoke test runs them
// at a hundredth of the op counts and on an 8-point grid.
func runProbes(seed uint64, tiny bool) (map[string]float64, error) {
	out := make(map[string]float64)
	grid, scale := probeGrid, 1
	if tiny {
		scale = 100
		grid.Apps, grid.Techs, grid.Widths = grid.Apps[:2], grid.Techs[:2], grid.Widths[:2]
	}
	n := func(full int) int { return max(full/scale, 64) }

	out["sim.queue_ns_per_event"] = probeQueue(seed, n(1_000_000))
	out["sim.clock_ns_per_tick"] = probeClock(n(1_000_000))
	v, err := probeCPU(seed, n(300_000))
	if err != nil {
		return nil, err
	}
	out["cpu.ns_per_instr"] = v
	for name, stride := range map[string]uint64{"mem.hit_ns_per_access": 64, "mem.miss_ns_per_access": 32<<10 + 64} {
		if out[name], err = probeCache(n(300_000), stride); err != nil {
			return nil, err
		}
	}
	if out["dram.ns_per_access"], err = probeDRAM(seed, n(200_000)); err != nil {
		return nil, err
	}
	if out["noc.ns_per_msg"], err = probeNoC(seed, n(100_000)); err != nil {
		return nil, err
	}
	if out["core.executor_us_per_point"], err = probeExecutor(grid, max(40/scale, 2)); err != nil {
		return nil, err
	}
	if out["core.journal_us_per_record"], err = probeJournal(n(20_000)); err != nil {
		return nil, err
	}
	get, put, err := probeResultCache(n(200_000))
	if err != nil {
		return nil, err
	}
	out["cache.get_ns"], out["cache.put_ns"] = get, put
	if out["config.hash_us"], err = probeHash(grid, n(20_000)); err != nil {
		return nil, err
	}
	return out, nil
}

// probeQueue: aperiodic events at a steady pending depth of 1024, each
// handler scheduling its successor a seeded delay ahead.
func probeQueue(seed uint64, n int) float64 {
	rng := rand.New(rand.NewSource(int64(seed)))
	delays := make([]sim.Time, 4096)
	for i := range delays {
		delays[i] = sim.Time(1 + rng.Intn(10_000))
	}
	return probe(n, func() {
		e := sim.NewEngine()
		left := n - 1024
		var h sim.Handler
		h = func(any) {
			if left > 0 {
				left--
				e.ScheduleAt(e.Now()+delays[left&4095], sim.PrioClock+1, h, nil)
			}
		}
		for i := 0; i < 1024; i++ {
			e.ScheduleAt(delays[i], sim.PrioClock+1, h, nil)
		}
		e.RunAll()
	})
}

// probeClock: one clock, four named handlers that stay registered.
func probeClock(n int) float64 {
	return probe(n, func() {
		e := sim.NewEngine()
		c := sim.NewClock(e, sim.GHz)
		for i := 0; i < 4; i++ {
			c.RegisterNamed(fmt.Sprintf("h%d", i), func(cy sim.Cycle) bool { return cy < sim.Cycle(n) })
		}
		e.RunAll()
	})
}

// probeCPU: a 4-wide superscalar core over a fixed-latency memory, fed a
// compute-profile synthetic stream generated before the clock starts, so
// the front-end's random-number work is not billed to the core.
func probeCPU(seed uint64, n int) (float64, error) {
	cfg, err := frontend.Profile("compute", uint64(n), seed)
	if err != nil {
		return 0, err
	}
	gen, err := frontend.NewSynthetic(cfg)
	if err != nil {
		return 0, err
	}
	ops := make([]frontend.Op, 0, n)
	for op := (frontend.Op{}); gen.Next(&op); {
		ops = append(ops, op)
	}
	ns := probe(n, func() {
		e := sim.NewEngine()
		cc := cpu.DefaultConfig("core", 4)
		core, cerr := cpu.NewSuperscalar(e, sim.NewClock(e, cc.Freq), cc, &frontend.SliceStream{Ops: ops},
			mem.NewSimpleMemory(e, "mem", 2*sim.Nanosecond, 0, nil), nil)
		if cerr != nil {
			err = cerr
			return
		}
		core.Start(nil)
		e.RunAll()
		if !core.Done() {
			err = fmt.Errorf("cpu probe: core never finished")
		}
	})
	return ns, err
}

// probeCache: a 32 KiB 4-way cache accessed from inside scheduled events,
// one access in flight. Stride 64 over a resident 16 KiB stream hits;
// a stride past the capacity misses every time.
func probeCache(n int, stride uint64) (float64, error) {
	var err error
	ns := probe(n, func() {
		e := sim.NewEngine()
		c, cerr := mem.NewCache(e, mem.CacheConfig{
			Name: "l1", SizeBytes: 32 << 10, LineBytes: 64, Assoc: 4,
			HitLatency: sim.Nanosecond, MSHRs: 16, WriteBack: true,
		}, mem.NewSimpleMemory(e, "mem", 50*sim.Nanosecond, 0, nil), nil)
		if cerr != nil {
			err = cerr
			return
		}
		span := uint64(16 << 10)
		if stride > 64 {
			span = stride * uint64(n)
		}
		i := 0
		var next func()
		next = func() {
			if i < n {
				addr := (uint64(i) * stride) % span
				i++
				c.Access(mem.Read, addr, 8, next)
			}
		}
		e.Schedule(0, func(any) { next() }, nil)
		e.RunAll()
		if i != n {
			err = fmt.Errorf("cache probe: %d of %d accesses issued", i, n)
		}
	})
	return ns, err
}

// probeDRAM: ddr3-1333, seeded random addresses, eight accesses in flight.
func probeDRAM(seed uint64, n int) (float64, error) {
	cfg, err := dram.Preset("ddr3-1333")
	if err != nil {
		return 0, err
	}
	rng := rand.New(rand.NewSource(int64(seed)))
	addrs := make([]uint64, 4096)
	for i := range addrs {
		addrs[i] = uint64(rng.Int63n(1<<30)) &^ 63
	}
	ns := probe(n, func() {
		e := sim.NewEngine()
		m, merr := dram.New(e, "dram", cfg, nil)
		if merr != nil {
			err = merr
			return
		}
		i := 0
		var next func()
		next = func() {
			if i < n {
				i++
				m.Access(addrs[i&4095], i&7 == 0, next)
			}
		}
		e.Schedule(0, func(any) {
			for k := 0; k < 8; k++ {
				next()
			}
		}, nil)
		e.RunAll()
	})
	return ns, err
}

// probeNoC: 1 KiB messages between seeded pairs on the 32-node torus of
// the network study, sixteen in flight.
func probeNoC(seed uint64, n int) (float64, error) {
	topo, err := noc.NewTorus3D(4, 4, 2)
	if err != nil {
		return 0, err
	}
	rng := rand.New(rand.NewSource(int64(seed)))
	pairs := make([][2]int, 4096)
	for i := range pairs {
		src := rng.Intn(32)
		pairs[i] = [2]int{src, (src + 1 + rng.Intn(31)) % 32}
	}
	ns := probe(n, func() {
		e := sim.NewEngine()
		nw, nerr := noc.NewNetwork(e, "net", topo, noc.DefaultConfig(), nil)
		if nerr != nil {
			err = nerr
			return
		}
		i := 0
		var next func()
		next = func() {
			if i < n {
				p := pairs[i&4095]
				i++
				nw.NIC(p[0]).Send(p[1], 1024, nil, nil)
			}
		}
		for node := 0; node < 32; node++ {
			nw.NIC(node).SetReceiver(func(int, int, any) { next() })
		}
		e.Schedule(0, func(any) {
			for k := 0; k < 16; k++ {
				next()
			}
		}, nil)
		e.RunAll()
	})
	return ns, err
}

// probeGrid is the 96-point smoke-scale grid the executor and hash probes
// share: one of serve.hot's six.
var probeGrid = core.JobSpec{Kind: "dse", Apps: allApps[:4], Techs: allTechs, Widths: widths, Scale: "small"}

// probeExecutor: the point pipeline minus simulation — an all-hit sweep
// (cache warmed by one untimed run), journal off, one worker.
func probeExecutor(grid core.JobSpec, reps int) (float64, error) {
	c, err := core.NewSweepCache(4096, cache.LRU, nil, "")
	if err != nil {
		return 0, err
	}
	defer c.Close()
	opts := core.SweepOptions{Workers: 1, Cache: c, Arena: core.NewArenaPool()}
	if _, err := grid.Run(opts); err != nil {
		return 0, err
	}
	ns := probe(reps*grid.Points(), func() {
		for i := 0; i < reps; i++ {
			if _, rerr := grid.Run(opts); rerr != nil {
				err = rerr
			}
		}
	})
	return ns / 1e3, err
}

// probeJournal: OpenJournalFS + one Record per append, through the same
// in-memory, fsync-counting seam the serve workloads use.
func probeJournal(n int) (float64, error) {
	res, err := core.RunMachine(core.SweepMachine("stencil", "ddr3-1333", 4, core.Small))
	if err != nil {
		return 0, err
	}
	raw, err := json.Marshal(res)
	if err != nil {
		return 0, err
	}
	ns := probe(n, func() {
		j, jerr := core.OpenJournalFS(&countFS{inner: iofault.NewMemFS(0)}, "journal.jsonl", false)
		if jerr != nil {
			err = jerr
			return
		}
		for i := 0; i < n; i++ {
			if rerr := j.Record(fmt.Sprintf("p%d", i), raw, nil, nil); rerr != nil {
				err = rerr
			}
		}
		if cerr := j.Close(); cerr != nil {
			err = cerr
		}
	})
	return ns / 1e3, err
}

// probeResultCache: Get over a resident working set, and Put of fresh keys
// into a full cache (so each Put also evicts), on the values sweeps store.
func probeResultCache(n int) (get, put float64, err error) {
	c, err := core.NewSweepCache(4096, cache.LRU, nil, "")
	if err != nil {
		return 0, 0, err
	}
	defer c.Close()
	val := &core.NodeResult{Name: "probe", Seconds: 1e-3, Retired: 1 << 20, IPC: 1.5, Events: 1 << 20}
	keys := make([]string, n+4096)
	for i := range keys {
		keys[i] = fmt.Sprintf("%064x", i)
	}
	for _, k := range keys[:4096] {
		if err := c.Put(k, val, 0); err != nil {
			return 0, 0, err
		}
	}
	get = probe(n, func() {
		for i := 0; i < n; i++ {
			if _, ok := c.Get(keys[i&4095]); !ok {
				err = fmt.Errorf("cache probe: resident key missed")
			}
		}
	})
	put = probe(n, func() {
		for i := 0; i < n; i++ {
			if perr := c.Put(keys[4096+i], val, 0); perr != nil {
				err = perr
			}
		}
	})
	return get, put, err
}

// probeHash: MachineConfig.CanonicalHash over the probe grid's configs.
func probeHash(grid core.JobSpec, n int) (float64, error) {
	var err error
	cfgs := specConfigs(grid)
	ns := probe(n, func() {
		for i := 0; i < n; i++ {
			if _, herr := cfgs[i%len(cfgs)].CanonicalHash(); herr != nil {
				err = herr
			}
		}
	})
	return ns / 1e3, err
}
