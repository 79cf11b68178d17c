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
//	sst -system system.json [-par N] [-sync pairwise|speculative]
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
// (default 1, a plain sequential loop) and prints one summary at every N;
// -sync selects the synchronization mode: conservative pairwise
// (topology-aware lookahead, the default) or optimistic speculative (ranks
// run past their conservative horizon, checkpoint through the snapshot
// codec, and roll back and replay when a straggler arrives, with a
// governor that falls back to conservative windows per rank while its
// rollback rate spikes). Both modes produce bit-identical results, and so
// do all N above 1. Against -par 1, simulated time, message and byte
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
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"sst/internal/cli"
	"sst/internal/config"
	"sst/internal/core"
	"sst/internal/iofault"
	"sst/internal/noc"
	"sst/internal/obs"
	"sst/internal/par"
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
		asCSV      = flag.Bool("csv", false, "deprecated: same as -format csv")
		formatFlag = flag.String("format", "table", "output format: table, json or csv")
		timeline   = flag.String("timeline", "", "write a DRAM-traffic time series CSV to this file")
		samplePd   = flag.String("sample-period", "10us", "timeline sampling period")
		traceOut   = flag.String("trace-out", "", "write an event trace to this file (Chrome JSON; CSV if path ends in .csv)")
		traceCap   = flag.Int("trace-cap", 0, "trace ring capacity in spans (0 = default 65536; keeps the run's tail)")
		metricsOut = flag.String("metrics-out", "", "write run metrics JSON to this file")
		parFlag    = flag.Int("par", 1, "partition a -system run over N parallel ranks")
		syncFlag   = flag.String("sync", "pairwise", "parallel sync mode: "+strings.Join(par.SyncModeNames(), ", "))
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
	if *asCSV {
		format = core.FormatCSV
	}
	syncMode, err := par.ParseSyncMode(*syncFlag)
	if err != nil {
		cli.Exit("sst", cli.Configf("%v", err))
	}
	snap := snapCfg{out: *snapOut, restore: *restore}
	if *snapEvery != "" {
		if snap.every, err = sim.ParseTime(*snapEvery); err != nil || snap.every <= 0 {
			cli.Exit("sst", cli.Configf("bad -snapshot-every %q", *snapEvery))
		}
	}
	ob := obsFlags{traceOut: *traceOut, traceCap: *traceCap, metricsOut: *metricsOut, format: format}
	if err := profile.Start(); err != nil {
		cli.Exit("sst", err)
	}
	switch {
	case *cfgPath != "":
		if snap.active() {
			cli.Exit("sst", cli.Configf("-snapshot-every/-restore apply to -system runs"))
		}
		err = run(*cfgPath, *dumpStats, ob, *timeline, *samplePd)
	case *sysPath != "":
		err = runSystem(*sysPath, ob, *parFlag, syncMode, snap)
	default:
		flag.Usage()
		os.Exit(cli.ExitConfig)
	}
	if perr := profile.Stop(); err == nil {
		err = perr
	}
	cli.Exit("sst", err)
}

// snapCfg carries the crash-safety options of a -system run.
type snapCfg struct {
	every   sim.Time   // snapshot interval in simulated time (0 = off)
	out     string     // snapshot file written at each interval
	restore string     // snapshot file to resume from ("" = fresh run)
	fs      iofault.FS // host-storage seam; nil = the real disk
}

// active reports whether the run writes or restores snapshots.
func (s snapCfg) active() bool { return s.every > 0 || s.restore != "" }

// fsys resolves the snapshot storage seam: the crash-point harness
// substitutes an iofault.MemFS, production runs use the disk.
func (s snapCfg) fsys() iofault.FS {
	if s.fs != nil {
		return s.fs
	}
	return iofault.Disk
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

// runSystem executes a multi-node communication-profile simulation over
// nranks parallel ranks: the network is partitioned over the runner, and
// the application's rank scripts are grouped by home rank into one
// workload.App per partition. At one rank the runner runs a plain
// sequential loop. With tracing on, each rank's engine gets its own tracer
// and file; with snap active, the run is sliced into snapshot intervals
// and/or resumed from a prior snapshot.
func runSystem(path string, ob obsFlags, nranks int, mode par.SyncMode, snap snapCfg) error {
	if nranks < 1 {
		return cli.Configf("-par %d: need at least one rank", nranks)
	}
	sys, err := config.LoadSystemFile(path)
	if err != nil {
		return cli.Configf("%v", err)
	}
	topo, err := sys.Topo.Build()
	if err != nil {
		return cli.Configf("%v", err)
	}
	netCfg, err := sys.Net.ToNetConfig()
	if err != nil {
		return cli.Configf("%v", err)
	}
	var profile workload.CommProfile
	switch sys.App {
	case "cth":
		profile = workload.CTHProfile
	case "sage":
		profile = workload.SAGEProfile
	case "charon":
		profile = workload.CharonProfile
	case "xnobel":
		profile = workload.XNOBELProfile
	default:
		return cli.Configf("unknown app %q", sys.App)
	}
	if sys.Steps > 0 {
		profile.Steps = sys.Steps
	}
	ranks := sys.Ranks
	if ranks == 0 {
		ranks = topo.NumNodes()
	}
	if ranks < 0 || ranks > topo.NumNodes() {
		return cli.Configf("%d ranks for %d nodes", ranks, topo.NumNodes())
	}
	runner, _ := par.NewRunner(nranks) // nranks >= 1 cannot fail
	runner.SetSyncMode(mode)
	if snap.active() || mode == par.SyncSpeculative {
		// Must precede model construction: components register their
		// checkpoint state as they are built. Speculative sync needs it
		// even without -snapshot-every: rollback restores engine
		// checkpoints taken through the same codec.
		runner.EnableSnapshots()
	}
	net, err := noc.NewPartitionedNetwork(runner, topo, netCfg, nil)
	if err != nil {
		return err
	}
	// Group the app ranks by the partition that owns their node: one
	// workload.App per par-rank, each driving only its local NICs.
	// Script send/recv peers are global node ids, so the grouping is
	// invisible to the protocol.
	ports := make([][]workload.MessagePort, nranks)
	local := make([][]*workload.Script, nranks)
	for i, s := range profile.Scripts(ranks) {
		home := net.RankOfNode(i)
		ports[home] = append(ports[home], net.NIC(i))
		local[home] = append(local[home], s)
	}
	apps := make([]*workload.App, 0, nranks)
	for p := 0; p < nranks; p++ {
		if len(local[p]) == 0 {
			continue
		}
		app, err := workload.NewAppOnPorts(runner.Rank(p).Engine(), fmt.Sprintf("%s.rank%d", profile.Name, p), ports[p], local[p])
		if err != nil {
			return err
		}
		apps = append(apps, app)
	}
	// One tracer per rank engine; with several ranks each flushes to its
	// own ".rankN" file.
	tracers := make([]*obs.Tracer, nranks)
	for i := range tracers {
		tracers[i] = ob.attachTracer(runner.Rank(i).Engine())
	}
	col := obs.NewCollector()
	col.Attach(runner.Rank(0).Engine())
	col.AttachRunner(runner)
	if tracers[0] != nil {
		// The report's trace counters follow rank 0, like the engine row.
		col.AttachTracer(tracers[0])
	}
	if snap.restore != "" {
		raw, err := snap.fsys().ReadFile(snap.restore)
		if err != nil {
			return err
		}
		if err := runner.LoadFrom(bytes.NewReader(raw)); err != nil {
			return fmt.Errorf("restoring %s: %w", snap.restore, err)
		}
		// Restored apps resume mid-script; Start would re-launch them.
	} else {
		for _, app := range apps {
			app.Start(nil)
		}
	}
	defer cli.OnInterrupt(runner.Interrupt)()
	if snap.every > 0 {
		err = runSliced(runner, snap)
	} else {
		_, err = runner.RunAll()
	}
	if err != nil {
		return err
	}
	var elapsed, maxWait sim.Time
	for _, app := range apps {
		if !app.Done() {
			return fmt.Errorf("application deadlocked (rank group %s)", app.Name())
		}
		elapsed = max(elapsed, app.Elapsed())
		maxWait = max(maxWait, app.MaxWaitTime())
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
	fmt.Printf("system:          %s (%s, %d ranks over %d partitions, %s sync)\n",
		sys.Name, topo.Name(), ranks, nranks, m.Mode)
	fmt.Printf("app:             %s, %d steps\n", profile.Name, profile.Steps)
	fmt.Printf("simulated time:  %.3f ms\n", elapsed.Seconds()*1e3)
	fmt.Printf("messages:        %d (%.2f MB)\n", net.Messages(), float64(net.BytesDelivered())/1e6)
	fmt.Printf("mean msg latency: %.2f us\n", net.MessageLatencyMean()/1e6)
	fmt.Printf("max recv wait:   %.3f ms\n", maxWait.Seconds()*1e3)
	fmt.Printf("link utilization: mean %.3f, hottest %.3f\n", meanUtil, hotUtil)
	fmt.Printf("network energy:  %.3f J (%.2f W provisioned static)\n", energy.TotalJ(), energy.StaticW)
	fmt.Printf("sync windows:    %d (%d fast-forwards, lookahead %v, imbalance %.2f)\n",
		m.Windows, m.FastForwards, m.Lookahead, m.Imbalance)
	if mode == par.SyncSpeculative {
		fmt.Printf("rollbacks:       %d (%d events replayed, %d fallbacks, %d promotions)\n",
			m.Rollbacks, m.Replayed, m.Fallbacks, m.Promotions)
	}
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

// runSliced advances the run one snapshot interval at a time, writing a
// consistent snapshot at each barrier. The write is atomic and durable
// (temp file, fsync, rename, parent-dir fsync — the shared iofault
// discipline), so a kill at any instant leaves either the previous
// complete snapshot or the new one, never a torn file and never a
// snapshot that evaporates with the page cache.
func runSliced(runner *par.Runner, snap snapCfg) error {
	for runner.NextEventTime() != sim.TimeInfinity {
		if _, err := runner.Run(runner.Now() + snap.every); err != nil {
			return err
		}
		if err := writeSnapshot(runner, snap); err != nil {
			return err
		}
	}
	return nil
}

// writeSnapshot saves the runner's state to snap.out via the shared
// atomic-replace helper. The encoder's many small writes are batched
// through one buffer so the storage sees a handful of large writes —
// which is also what keeps the crash-point count of a snapshot save
// independent of model size.
func writeSnapshot(runner *par.Runner, snap snapCfg) error {
	return iofault.WriteFileAtomicFunc(snap.fsys(), snap.out, func(w io.Writer) error {
		bw := bufio.NewWriterSize(w, 1<<20)
		if err := runner.SaveTo(bw); err != nil {
			return err
		}
		return bw.Flush()
	})
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
	if tracer != nil {
		col.AttachTracer(tracer)
	}
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
