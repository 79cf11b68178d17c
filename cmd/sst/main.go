// Command sst runs a simulation described by an Abstract Machine Model
// (AMM) JSON file and reports results. Machine files (a node architecture
// plus a workload) and system files (a topology, network parameters and a
// communication profile) are both accepted; the file's shape selects the
// mode.
//
// Usage:
//
//	sst -config machine.json [-stats] [-format table|json|csv]
//	    [-trace-out run.json] [-trace-cap N] [-metrics-out m.json]
//	sst -system system.json [-par N]
//	    [-snapshot-every 100us] [-snapshot-out run.snap] [-restore run.snap]
//	    [-trace-out run.json] [-metrics-out m.json]
//	sst ... [-cpuprofile cpu.pprof] [-memprofile mem.pprof]
//
// -trace-out records per-event spans (simulated time, component label,
// host handler time) into a bounded ring and writes a Chrome trace_event
// file loadable in Perfetto (or CSV when the path ends in .csv).
// -metrics-out writes the run's engine/link metrics as JSON. -format json
// emits the result and metrics as one JSON object instead of the human
// summary. -cpuprofile and -memprofile write host CPU and allocation
// profiles of the run for `go tool pprof`.
//
// A -system run always partitions the network over -par N parallel ranks
// (default 1, a plain sequential loop) and prints one summary at every N.
// The ranks synchronize conservatively: each advances to a horizon derived
// from the other ranks' next events and the pairwise link lookahead, so
// every N above 1 produces bit-identical results. Against -par 1, simulated time, message and byte
// counts, utilization and energy agree, but packets reaching one link at
// the same picosecond from two ranks are served in canonical cross-rank
// order instead of one engine's insertion order, which can move
// individual latencies (see DESIGN.md §4). With -par above 1, -trace-out
// writes one file per rank: the path gains a ".rankN" suffix before its
// extension (run.json -> run.rank0.json ...).
//
// -snapshot-every T writes a consistent snapshot of the whole -system
// simulation to -snapshot-out every T of simulated time (atomic
// write-then-rename, so a crash never leaves a torn file); -restore
// resumes a run from such a snapshot and produces results bit-identical
// to the uninterrupted run, at any -par count.
//
// Exit codes: 0 success, 1 failure, 2 configuration error, 130
// interrupted (Ctrl-C).
//
// See configs/ for examples of both formats and internal/config for the
// full schema.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"

	"sst/internal/cli"
	"sst/internal/config"
	"sst/internal/core"
	"sst/internal/noc"
	"sst/internal/obs"
	"sst/internal/sim"
	"sst/internal/stats"
	"sst/internal/workload"
)

// obsFlags bundles the observability options shared by both modes.
type obsFlags struct {
	traceOut   string
	traceCap   int
	metricsOut string
	format     core.Format
}

func main() {
	var (
		cfgPath    = flag.String("config", "", "machine config JSON")
		sysPath    = flag.String("system", "", "system config JSON")
		dumpStats  = flag.Bool("stats", false, "dump every component statistic")
		formatFlag = flag.String("format", "table", "output format: table, json or csv")
		timeline   = flag.String("timeline", "", "write a DRAM-traffic time series CSV to this file")
		samplePd   = flag.String("sample-period", "10us", "timeline sampling period")
		traceOut   = flag.String("trace-out", "", "write an event trace to this file (Chrome JSON; CSV if path ends in .csv)")
		traceCap   = flag.Int("trace-cap", 0, "trace ring capacity in spans (0 = default 65536; keeps the run's tail)")
		metricsOut = flag.String("metrics-out", "", "write run metrics JSON to this file")
		parFlag    = flag.Int("par", 1, "partition a -system run over N parallel ranks")
		snapEvery  = flag.String("snapshot-every", "", "write a snapshot every this much simulated time (e.g. 100us; -system only)")
		snapOut    = flag.String("snapshot-out", "sst.snap", "snapshot file for -snapshot-every")
		restore    = flag.String("restore", "", "resume a -system run from this snapshot file")
		profile    = cli.RegisterProfileFlags(flag.CommandLine)
	)
	flag.Parse()
	format, err := core.ParseFormat(*formatFlag)
	if err != nil {
		cli.Exit("sst", cli.Configf("%v", err))
	}
	snap := core.Snapshots{Out: *snapOut, Restore: *restore}
	if *snapEvery != "" {
		if snap.Every, err = sim.ParseTime(*snapEvery); err != nil || snap.Every <= 0 {
			cli.Exit("sst", cli.Configf("bad -snapshot-every %q", *snapEvery))
		}
	}
	ob := obsFlags{traceOut: *traceOut, traceCap: *traceCap, metricsOut: *metricsOut, format: format}
	if err := profile.Start(); err != nil {
		cli.Exit("sst", err)
	}
	switch {
	case *cfgPath != "":
		if snap.Every > 0 || snap.Restore != "" {
			cli.Exit("sst", cli.Configf("-snapshot-every/-restore apply to -system runs"))
		}
		err = run(*cfgPath, *dumpStats, ob, *timeline, *samplePd)
	case *sysPath != "":
		err = runSystem(*sysPath, ob, *parFlag, snap)
	default:
		flag.Usage()
		os.Exit(cli.ExitConfig)
	}
	if perr := profile.Stop(); err == nil {
		err = perr
	}
	cli.Exit("sst", err)
}

// attachTracer installs a ring tracer on the engine when requested.
func (ob obsFlags) attachTracer(engine *sim.Engine) *obs.Tracer {
	if ob.traceOut == "" {
		return nil
	}
	t := obs.NewTracer(ob.traceCap)
	engine.SetTracer(t)
	return t
}

// flush writes the trace and metrics files.
func (ob obsFlags) flush(tracer *obs.Tracer, rep *obs.RunReport) error {
	if tracer != nil {
		write := tracer.WriteChromeJSON
		if strings.HasSuffix(ob.traceOut, ".csv") {
			write = tracer.WriteCSV
		}
		if err := cli.WriteFile(ob.traceOut, write); err != nil {
			return err
		}
	}
	if ob.metricsOut != "" && rep != nil {
		if err := cli.WriteFile(ob.metricsOut, rep.WriteJSON); err != nil {
			return err
		}
	}
	return nil
}

// runSystem executes a multi-node communication-profile simulation as a
// core.System over nranks parallel ranks (at one rank, a plain sequential
// loop), sliced into snapshots and/or resumed from one as snap says. With
// tracing on, each rank's engine gets its own tracer and file.
func runSystem(path string, ob obsFlags, nranks int, snap core.Snapshots) error {
	cfg, err := config.LoadSystemFile(path)
	if err != nil {
		return cli.Configf("%v", err)
	}
	topo, err := cfg.Topo.Build()
	if err != nil {
		return cli.Configf("%v", err)
	}
	netCfg, err := cfg.Net.ToNetConfig()
	if err != nil {
		return cli.Configf("%v", err)
	}
	profile, _ := workload.LookupProfile(cfg.App) // LoadSystemFile checked the name
	if cfg.Steps > 0 {
		profile.Steps = cfg.Steps
	}
	ranks := cfg.Ranks
	if ranks == 0 {
		ranks = topo.NumNodes()
	}
	sys, err := core.NewSystem(profile.Name, topo, netCfg, profile.Scripts(ranks), nranks,
		snap.Every > 0 || snap.Restore != "")
	if err != nil {
		return cli.Configf("%v", err)
	}
	runner, net := sys.Runner, sys.Net
	// One tracer per rank engine; with several ranks each flushes to its
	// own ".rankN" file.
	tracers := make([]*obs.Tracer, nranks)
	for i := range tracers {
		tracers[i] = ob.attachTracer(runner.Rank(i).Engine())
	}
	col := obs.NewCollector()
	col.AttachRunner(runner)
	col.AttachTracer(tracers...)
	ctx, stop := cli.SignalContext(context.Background())
	defer stop()
	elapsed, maxWait, err := sys.Run(ctx, snap)
	if err != nil {
		return err
	}
	for i, tr := range tracers {
		out := obsFlags{traceOut: ob.traceOut}
		if nranks > 1 {
			out.traceOut = rankPath(ob.traceOut, i)
		}
		if err := out.flush(tr, nil); err != nil {
			return err
		}
	}
	if err := ob.flush(nil, col.Report()); err != nil {
		return err
	}
	m := runner.Metrics()
	meanUtil, hotUtil := net.LinkUtilization(elapsed)
	energy := net.Energy(noc.DefaultPowerParams(), elapsed)
	fmt.Printf("system:          %s (%s, %d ranks over %d partitions)\n",
		cfg.Name, topo.Name(), ranks, nranks)
	fmt.Printf("app:             %s, %d steps\n", profile.Name, profile.Steps)
	fmt.Printf("simulated time:  %.3f ms\n", elapsed.Seconds()*1e3)
	fmt.Printf("messages:        %d (%.2f MB)\n", net.Messages(), float64(net.BytesDelivered())/1e6)
	fmt.Printf("mean msg latency: %.2f us\n", net.MessageLatencyMean()/1e6)
	fmt.Printf("max recv wait:   %.3f ms\n", maxWait.Seconds()*1e3)
	fmt.Printf("link utilization: mean %.3f, hottest %.3f\n", meanUtil, hotUtil)
	fmt.Printf("network energy:  %.3f J (%.2f W provisioned static)\n", energy.TotalJ(), energy.StaticW)
	fmt.Printf("sync windows:    %d (lookahead %v, imbalance %.2f)\n",
		m.Windows, m.Lookahead, m.Imbalance)
	return nil
}

// rankPath inserts a ".rankN" tag before path's extension, so a parallel
// run's per-rank trace files sit next to the name the user asked for:
// run.json -> run.rank0.json, run -> run.rank0.
func rankPath(path string, rank int) string {
	ext := ""
	if i := strings.LastIndexByte(path, '.'); i > strings.LastIndexByte(path, '/') {
		path, ext = path[:i], path[i:]
	}
	return fmt.Sprintf("%s.rank%d%s", path, rank, ext)
}

// resultTable renders a NodeResult as a metric/value table (the csv/table
// machine-readable form of the human summary).
func resultTable(res *core.NodeResult) *stats.Table {
	t := stats.NewTable("Run result: "+res.Name, "metric", "value")
	t.AddRow("machine", res.Name)
	t.AddRow("sim_seconds", res.Seconds)
	t.AddRow("retired", res.Retired)
	t.AddRow("flops", res.Flops)
	t.AddRow("ipc", res.IPC)
	t.AddRow("l1_hit_rate", res.L1HitRate)
	t.AddRow("l2_hit_rate", res.L2HitRate)
	t.AddRow("mem_bytes", res.MemBytes)
	t.AddRow("mem_gbs", res.MemBandwidth/1e9)
	t.AddRow("mem_row_hit_rate", res.MemRowHitRate)
	t.AddRow("node_watts", res.Budget.AvgPowerW())
	t.AddRow("node_cost_usd", res.Budget.TotalCostUSD())
	t.AddRow("area_mm2", res.AreaMM2)
	t.AddRow("temp_c", res.TempC)
	t.AddRow("mtbf_hours", res.MTBFHours)
	t.AddRow("events", res.Events)
	t.AddRow("peak_queue", res.PeakQueue)
	t.AddRow("host_seconds", res.HostSeconds)
	return t
}

func run(cfgPath string, dumpStats bool, ob obsFlags, timeline, samplePd string) error {
	cfg, err := config.LoadMachineFile(cfgPath)
	if err != nil {
		return cli.Configf("%v", err)
	}
	node, err := core.BuildNode(cfg)
	if err != nil {
		return cli.Configf("%v", err)
	}
	engine := node.Sim.Engine()
	defer cli.OnInterrupt(engine.Interrupt)()
	var sampler *stats.Sampler
	if timeline != "" {
		period, err := sim.ParseTime(samplePd)
		if err != nil {
			return err
		}
		sampler = stats.NewSampler(node.Reg, "dram.bytes", "dram.row_hits", "cpu.0.retired")
		sampler.Every(engine, period, 100_000)
	}
	tracer := ob.attachTracer(engine)
	col := obs.NewCollector()
	col.Attach(engine, node.Sim.Links()...)
	col.AttachTracer(tracer)
	res, err := node.Run()
	if err != nil {
		return err
	}
	rep := col.Report()
	if err := ob.flush(tracer, rep); err != nil {
		return err
	}
	if sampler != nil {
		f, err := os.Create(timeline)
		if err != nil {
			return err
		}
		sampler.WriteCSV(f)
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Printf("timeline:       %d samples -> %s\n", sampler.N(), timeline)
	}
	switch ob.format {
	case core.FormatJSON:
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(struct {
			Result  *core.NodeResult `json:"result"`
			Metrics *obs.RunReport   `json:"metrics"`
		}{res, rep}); err != nil {
			return err
		}
	case core.FormatCSV:
		if err := resultTable(res).WriteCSV(os.Stdout); err != nil {
			return err
		}
	default:
		fmt.Printf("machine:        %s\n", res.Name)
		fmt.Printf("simulated time: %.6f ms\n", res.Seconds*1e3)
		fmt.Printf("retired ops:    %d (%d flops)\n", res.Retired, res.Flops)
		fmt.Printf("aggregate IPC:  %.3f\n", res.IPC)
		if res.L1HitRate > 0 {
			fmt.Printf("L1 hit rate:    %.4f\n", res.L1HitRate)
		}
		if res.L2HitRate > 0 {
			fmt.Printf("L2 hit rate:    %.4f\n", res.L2HitRate)
		}
		fmt.Printf("DRAM traffic:   %.2f MB at %.2f GB/s (row hit %.3f)\n",
			float64(res.MemBytes)/1e6, res.MemBandwidth/1e9, res.MemRowHitRate)
		fmt.Printf("node power:     %.2f W (core %.3f J, mem %.3f J)\n",
			res.Budget.AvgPowerW(), res.Budget.CoreEnergyJ, res.Budget.MemEnergyJ)
		fmt.Printf("node cost:      $%.0f (die %.1f mm²)\n", res.Budget.TotalCostUSD(), res.AreaMM2)
		if res.TempC > 0 {
			fmt.Printf("die temperature: %.1f C (node MTBF %.2g h)\n", res.TempC, res.MTBFHours)
		}
		fmt.Printf("events:         %d (peak queue %d, %.3fs host, %.3g ev/s)\n",
			res.Events, res.PeakQueue, res.HostSeconds, rep.Engine.EventsPerSec)
	}
	if dumpStats {
		fmt.Println()
		if ob.format == core.FormatCSV {
			node.Reg.WriteCSV(os.Stdout)
		} else {
			node.Reg.Dump(os.Stdout)
		}
	}
	return nil
}
