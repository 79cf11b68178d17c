// Command sst-trace records and replays instruction traces — the
// trace-driven leg of the front-end/back-end split. A slow execution-driven
// run (or any workload kernel) is captured once into a compact binary
// trace; the trace then replays through any timing configuration at full
// simulator speed.
//
// Usage:
//
//	sst-trace record -workload daxpy -o trace.bin
//	sst-trace info   -i trace.bin [-format table|json|csv]
//	sst-trace replay -i trace.bin [-width 4] [-memlat 60ns]
//	          [-format table|json|csv] [-trace-out t.json] [-trace-cap N]
//	          [-metrics-out m.json]
//
// replay's -trace-out records per-event timing spans into a Chrome
// trace_event file (CSV when the path ends in .csv); -metrics-out writes
// run metrics JSON.
//
// Workloads: the SR1 program library (daxpy, dot, chase, fib) and the
// kernel proxies (hpccg, lulesh, stencil, stream, gups, fea).
//
// Exit codes: 0 success, 1 failure, 2 configuration error (bad usage,
// subcommand, workload, format or unit).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"

	"sst/internal/cli"
	"sst/internal/core"
	"sst/internal/cpu"
	"sst/internal/frontend"
	"sst/internal/mem"
	"sst/internal/obs"
	"sst/internal/sim"
	"sst/internal/stats"
	"sst/internal/workload"
)

func main() {
	if len(os.Args) < 2 {
		usage()
	}
	var err error
	switch os.Args[1] {
	case "record":
		err = record(os.Args[2:])
	case "info":
		err = info(os.Args[2:])
	case "replay":
		err = replay(os.Args[2:])
	default:
		usage()
	}
	cli.Exit("sst-trace", err)
}

func usage() {
	fmt.Fprintln(os.Stderr, "usage: sst-trace record|info|replay [flags]")
	os.Exit(cli.ExitConfig)
}

// openWorkload builds a stream for a named workload.
func openWorkload(name string, n int) (frontend.Stream, func(), error) {
	switch name {
	case "daxpy":
		s, err := workload.DAXPYProgram(n).Stream(0)
		return s, nil, err
	case "dot":
		s, err := workload.DotProductProgram(n).Stream(0)
		return s, nil, err
	case "chase":
		s, err := workload.PointerChaseProgram(n, 4*n).Stream(0)
		return s, nil, err
	case "fib":
		s, err := workload.FibonacciProgram(n).Stream(0)
		return s, nil, err
	case "hpccg":
		k := workload.HPCCG(minInt(n, 32), 1).Stream()
		return k, k.Close, nil
	case "lulesh":
		k := workload.Lulesh(n, 1).Stream()
		return k, k.Close, nil
	case "stencil":
		k := workload.Stencil(minInt(n, 48), 1).Stream()
		return k, k.Close, nil
	case "stream":
		k := workload.STREAMTriad(n, 1).Stream()
		return k, k.Close, nil
	case "gups":
		k := workload.GUPS(64<<20, n, 1).Stream()
		return k, k.Close, nil
	case "fea":
		k := workload.FEA(n, 1).Stream()
		return k, k.Close, nil
	case "minimd":
		k := workload.MiniMD(n, 16, 1, 1).Stream()
		return k, k.Close, nil
	default:
		return nil, nil, cli.Configf("unknown workload %q", name)
	}
}

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}

func record(args []string) error {
	fs := flag.NewFlagSet("record", flag.ExitOnError)
	wl := fs.String("workload", "daxpy", "workload to record")
	n := fs.Int("n", 1024, "workload size parameter")
	out := fs.String("o", "trace.bin", "output trace file")
	maxOps := fs.Uint64("max", 0, "truncate after N operations (0 = all)")
	fs.Parse(args)

	stream, closer, err := openWorkload(*wl, *n)
	if err != nil {
		return err
	}
	if closer != nil {
		defer closer()
	}
	if *maxOps > 0 {
		stream = &frontend.LimitStream{Inner: stream, N: *maxOps}
	}
	f, err := os.Create(*out)
	if err != nil {
		return err
	}
	defer f.Close()
	w := frontend.NewTraceWriter(f)
	var op frontend.Op
	for stream.Next(&op) {
		if err := w.Write(&op); err != nil {
			return err
		}
	}
	if err := w.Flush(); err != nil {
		return err
	}
	fmt.Printf("recorded %d operations from %s into %s\n", w.N(), *wl, *out)
	return nil
}

func info(args []string) error {
	fs := flag.NewFlagSet("info", flag.ExitOnError)
	in := fs.String("i", "trace.bin", "input trace file")
	formatFlag := fs.String("format", "table", "output format: table, json or csv")
	fs.Parse(args)
	format, err := core.ParseFormat(*formatFlag)
	if err != nil {
		return cli.Configf("%v", err)
	}

	f, err := os.Open(*in)
	if err != nil {
		return err
	}
	defer f.Close()
	r := frontend.NewTraceStream(f)
	cs := &frontend.CountingStream{Inner: r}
	var op frontend.Op
	for cs.Next(&op) {
	}
	if r.Err() != nil {
		return r.Err()
	}
	if format == core.FormatTable {
		fmt.Printf("%s: %d operations\n", *in, cs.Total())
		for c := frontend.Class(0); int(c) < frontend.NumClasses(); c++ {
			if n := cs.Counts[c]; n > 0 {
				fmt.Printf("  %-7s %10d (%.1f%%)\n", c, n, 100*float64(n)/float64(cs.Total()))
			}
		}
		return nil
	}
	t := stats.NewTable(fmt.Sprintf("Trace census: %s", *in), "class", "count", "percent")
	for c := frontend.Class(0); int(c) < frontend.NumClasses(); c++ {
		if n := cs.Counts[c]; n > 0 {
			t.AddRow(fmt.Sprintf("%v", c), n, 100*float64(n)/float64(cs.Total()))
		}
	}
	return core.WriteResults(os.Stdout, format, core.TableResult{Tab: t})
}

func replay(args []string) error {
	fs := flag.NewFlagSet("replay", flag.ExitOnError)
	in := fs.String("i", "trace.bin", "input trace file")
	width := fs.Int("width", 4, "core issue width")
	freqStr := fs.String("freq", "2GHz", "core frequency")
	memLat := fs.String("memlat", "60ns", "memory latency")
	l1Size := fs.String("l1", "32KB", "L1 size (\"0\" disables)")
	formatFlag := fs.String("format", "table", "output format: table, json or csv")
	traceOut := fs.String("trace-out", "", "write an event trace (Chrome JSON; CSV if path ends in .csv)")
	traceCap := fs.Int("trace-cap", 0, "trace ring capacity in spans (0 = default)")
	metricsOut := fs.String("metrics-out", "", "write run metrics JSON to this file")
	fs.Parse(args)
	format, err := core.ParseFormat(*formatFlag)
	if err != nil {
		return cli.Configf("%v", err)
	}

	f, err := os.Open(*in)
	if err != nil {
		return err
	}
	defer f.Close()
	stream := frontend.NewTraceStream(f)

	freq, err := sim.ParseHz(*freqStr)
	if err != nil {
		return cli.Configf("bad freq: %v", err)
	}
	lat, err := sim.ParseTime(*memLat)
	if err != nil {
		return cli.Configf("bad memlat: %v", err)
	}
	engine := sim.NewEngine()
	clock := sim.NewClock(engine, freq)
	var lower mem.Device = mem.NewSimpleMemory(engine, "mem", lat, 20e9, nil)
	if *l1Size != "0" {
		sz := 32 << 10
		if _, err := fmt.Sscanf(strings.ToUpper(*l1Size), "%dKB", &sz); err == nil {
			sz <<= 10
		}
		l1, err := mem.NewCache(engine, mem.CacheConfig{
			Name: "l1", SizeBytes: sz, LineBytes: 64, Assoc: 4,
			HitLatency: freq.CycleTime(2), MSHRs: 16, WriteBack: true,
			PrefetchNextLine: true, PrefetchDegree: 2,
		}, lower, nil)
		if err != nil {
			return err
		}
		lower = l1
	}
	var tracer *obs.Tracer
	if *traceOut != "" {
		tracer = obs.NewTracer(*traceCap)
		engine.SetTracer(tracer)
	}
	col := obs.NewCollector()
	col.Attach(engine)
	cfg := cpu.DefaultConfig("cpu", *width)
	cfg.Freq = freq
	c, err := cpu.NewSuperscalar(engine, clock, cfg, stream, lower, nil)
	if err != nil {
		return err
	}
	c.Start(func() {})
	engine.RunAll()
	if stream.Err() != nil {
		return stream.Err()
	}
	rep := col.Report()
	if tracer != nil {
		write := tracer.WriteChromeJSON
		if strings.HasSuffix(*traceOut, ".csv") {
			write = tracer.WriteCSV
		}
		if err := cli.WriteFile(*traceOut, write); err != nil {
			return err
		}
	}
	if *metricsOut != "" {
		if err := cli.WriteFile(*metricsOut, rep.WriteJSON); err != nil {
			return err
		}
	}
	switch format {
	case core.FormatJSON:
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		return enc.Encode(struct {
			Operations uint64         `json:"operations"`
			SimPs      uint64         `json:"sim_ps"`
			Cycles     uint64         `json:"cycles"`
			IPC        float64        `json:"ipc"`
			Metrics    *obs.RunReport `json:"metrics"`
		}{c.Retired(), uint64(engine.Now()), uint64(c.Cycles()), c.IPC(), rep})
	case core.FormatCSV:
		t := stats.NewTable("Trace replay", "metric", "value")
		t.AddRow("operations", c.Retired())
		t.AddRow("sim_ps", uint64(engine.Now()))
		t.AddRow("cycles", uint64(c.Cycles()))
		t.AddRow("ipc", c.IPC())
		return t.WriteCSV(os.Stdout)
	default:
		fmt.Printf("replayed %d operations in %v simulated (%d cycles, IPC %.3f)\n",
			c.Retired(), engine.Now(), c.Cycles(), c.IPC())
	}
	return nil
}
