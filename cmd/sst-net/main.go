// Command sst-net runs the network injection-bandwidth degradation study
// (the Fig. 9 experiment): application communication proxies on a simulated
// 3D torus at a series of injection-bandwidth operating points.
//
// Usage:
//
//	sst-net [-nodes 32] [-steps 6] [-fractions 1,0.5,0.25,0.125]
//	        [-format table|json|csv] [-j N] [-metrics-out m.json] [-trace-out t.json]
//	        [-journal net.jsonl] [-resume]
//	        [-cache] [-cache-size 4096] [-cache-file results.jsonl]
//	sst-net -scaling [-nodes 16] [-ranks 1,2,4,8] [-horizon 2ms]
//	        [-sync all|global,pairwise,speculative,adaptive] [-format ...]
//
// The study's (proxy app, bandwidth fraction) cells are independent
// simulations; -j sets how many run concurrently (default: GOMAXPROCS).
// Tables are identical at any -j. -metrics-out writes both studies'
// per-point host timings as a JSON array; -trace-out writes the
// degradation study's host timeline as a Chrome trace. Ctrl-C drains the
// cells already running, prints whatever completed, and exits 130.
//
// -journal appends every completed cell to an fsync'd JSONL file;
// -resume restores the journal's completed cells instead of re-running
// them, so a killed study continues where it stopped.
//
// -cache memoizes study cells content-addressed by their configuration;
// the degradation and power studies share one cache (and run the same
// grid), so the power study's cells hit instead of simulating twice.
// -cache-file persists results to an fsync'd JSONL file so a later
// invocation warm-starts from them (implies -cache). A one-line summary
// prints to stderr ("sst-net: cache entries=16 hits=16 misses=16
// hit_rate=0.500 evictions=0 bytes=… warm_starts=0"); -metrics-out
// includes the full cache counters.
//
// Exit codes: 0 success, 1 failure, 2 configuration error, 3 study
// completed with failed cells, 130 interrupted (Ctrl-C).
//
// -scaling instead runs the parallel-simulator scaling study (E6): the
// heterogeneous-latency lattice partitioned over each rank count, under
// the sync modes selected by -sync (default all four: the conservative
// global window and topology-aware pairwise horizons, plus the optimistic
// speculative and adaptive modes with their rollback counts), reporting
// wall time and dispatched synchronization windows side by side. It is
// sequential by design (each point times the host), so -j is ignored
// there.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"sst/internal/cli"
	"sst/internal/core"
	"sst/internal/par"
	"sst/internal/sim"
)

func main() {
	var (
		nodesFlag   = flag.Int("nodes", 32, "system size (torus nodes)")
		stepsFlag   = flag.Int("steps", 6, "application timesteps")
		fracFlag    = flag.String("fractions", "1,0.5,0.25,0.125", "injection bandwidth fractions")
		formatFlag  = flag.String("format", "table", "output format: table, json or csv")
		csvFlag     = flag.Bool("csv", false, "deprecated: same as -format csv")
		scalingFlag = flag.Bool("scaling", false, "run the parallel-simulator scaling study instead (E6)")
		ranksFlag   = flag.String("ranks", "1,2,4,8", "rank counts for -scaling")
		horizonFlag = flag.String("horizon", "2ms", "simulated horizon for -scaling")
		syncFlag    = flag.String("sync", "all", "sync modes for -scaling: all, or comma-separated from "+strings.Join(par.SyncModeNames(), ", "))

		sweepFlags = cli.RegisterSweepFlags(flag.CommandLine,
			"memoize study cells by config hash (the power study hits on the degradation study's cells)", "study cells", "degradation sweep")
	)
	flag.Parse()
	format, err := core.ParseFormat(*formatFlag)
	if err != nil {
		cli.Exit("sst-net", cli.Configf("%v", err))
	}
	if *csvFlag {
		format = core.FormatCSV
	}
	if err := sweepFlags.Check(); err != nil {
		cli.Exit("sst-net", err)
	}
	// Either SIGINT or SIGTERM drains the sweep and flushes journals.
	ctx, stop := cli.SignalContext(context.Background())
	defer stop()
	if *scalingFlag {
		cli.Exit("sst-net", runScaling(*nodesFlag, *ranksFlag, *horizonFlag, *syncFlag, format, ctx))
	}
	opts, err := sweepFlags.Options(ctx)
	if err != nil {
		cli.Exit("sst-net", err)
	}
	err = run(*nodesFlag, *stepsFlag, *fracFlag, format, opts, sweepFlags)
	cli.Exit("sst-net", sweepFlags.Finish("sst-net", err))
}

// runScaling drives the E6 parallel-scaling study: the heterogeneous
// lattice over each rank count, with the -sync flag choosing which sync
// modes run side by side (default: all four, conservative and optimistic).
func runScaling(nodes int, ranksFlag, horizonFlag, syncFlag string, format core.Format, ctx context.Context) error {
	var ranks []int
	for _, s := range strings.Split(ranksFlag, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(s))
		if err != nil || n < 1 {
			return cli.Configf("bad rank count %q", s)
		}
		ranks = append(ranks, n)
	}
	horizon, err := sim.ParseTime(horizonFlag)
	if err != nil {
		return cli.Configf("bad horizon: %w", err)
	}
	var modes []par.SyncMode
	if syncFlag == "all" || syncFlag == "" {
		for _, name := range par.SyncModeNames() {
			m, _ := par.ParseSyncMode(name)
			modes = append(modes, m)
		}
	} else {
		for _, s := range strings.Split(syncFlag, ",") {
			m, err := par.ParseSyncMode(strings.TrimSpace(s))
			if err != nil {
				return cli.Configf("%v", err)
			}
			modes = append(modes, m)
		}
	}
	res, err := core.ParallelScalingStudyModes(ranks, nodes, horizon, core.SweepOptions{Context: ctx}, modes)
	if err != nil {
		return err
	}
	return core.WriteResults(os.Stdout, format, res)
}

func run(nodes, steps int, fracFlag string, format core.Format, opts core.SweepOptions, sf *cli.SweepFlags) error {
	spec := core.JobSpec{Kind: "net", Nodes: nodes, Steps: steps}
	for _, f := range strings.Split(fracFlag, ",") {
		v, err := strconv.ParseFloat(strings.TrimSpace(f), 64)
		if err != nil || v <= 0 || v > 1 {
			return cli.Configf("bad fraction %q", f)
		}
		spec.Fractions = append(spec.Fractions, v)
	}
	// Dispatch both studies through the study registry — the same JobSpec
	// surface the sweep service admits, so the CLI and the service cannot
	// drift on what the net studies mean or accept.
	degStudy, err := core.NewStudy(spec)
	if err != nil {
		return cli.Configf("%v", err)
	}
	spec.Kind = "net-power"
	powStudy, err := core.NewStudy(spec)
	if err != nil {
		return cli.Configf("%v", err)
	}
	// Each study is one sweep, so each is observed by its own collector.
	// The journal — and the result cache, which rides in opts.Cache — are
	// shared: both studies run the same grid, so the power study resumes
	// (or hits) off the degradation study's completed cells instead of
	// simulating them twice.
	popts := opts
	if opts.Journal != "" {
		popts.Resume = true
	}
	opts, popts = sf.Observe(opts), sf.Observe(popts)
	// Both studies render whatever cells completed even when some failed
	// or the sweep was interrupted; the error still propagates so the
	// exit code reflects the incomplete run.
	deg, derr := degStudy.Run(opts)
	pow, perr := powStudy.Run(popts)
	var show []core.Result
	for _, r := range []core.Result{deg, pow} {
		if r != nil {
			show = append(show, r)
		}
	}
	if err := core.WriteResults(os.Stdout, format, show...); err != nil {
		return err
	}
	if derr != nil {
		return fmt.Errorf("study incomplete (tables above show completed cells): %w", derr)
	}
	return perr
}
