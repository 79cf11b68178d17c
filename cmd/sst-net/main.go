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
//	sst-net -scaling [-nodes 16] [-ranks 1,2,4,8] [-horizon 2ms] [-format ...]
//
// The study's (proxy app, bandwidth fraction) cells are independent
// simulations, each run once: the degradation table and the power table
// are two views of one sweep of the grid. -j sets how many cells run
// concurrently (default: GOMAXPROCS). Tables are identical at any -j.
// -metrics-out writes the sweep's per-point host timings as one JSON
// object, followed by the cache counters when -cache is on; -trace-out
// writes the sweep's host timeline as a Chrome trace. Ctrl-C drains the
// cells already running, prints whatever completed, and exits 130.
//
// -journal appends every completed cell to an fsync'd JSONL file;
// -resume restores the journal's completed cells instead of re-running
// them, so a killed study continues where it stopped.
//
// -cache memoizes study cells content-addressed by their configuration.
// -cache-file persists results to an fsync'd JSONL file so a later
// invocation warm-starts from them (implies -cache): a cold run prints
// "sst-net: cache entries=16 hits=0 misses=16 hit_rate=0.000
// evictions=0 bytes=… warm_starts=0" to stderr, and a warm one
// "hits=16 misses=0".
//
// Exit codes: 0 success, 1 failure, 2 configuration error, 3 study
// completed with failed cells, 130 interrupted (Ctrl-C).
//
// -scaling instead runs the parallel-simulator scaling study (E6): the
// heterogeneous-latency lattice partitioned over each rank count,
// reporting wall time and dispatched synchronization windows. It is
// sequential by design (each point times the host), so -j is ignored
// there. -horizon must be positive. Ctrl-C interrupts the running point
// and exits 130.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"sst/internal/cli"
	"sst/internal/core"
	"sst/internal/sim"
)

func main() {
	var (
		nodesFlag   = flag.Int("nodes", 32, "system size (torus nodes)")
		stepsFlag   = flag.Int("steps", 6, "application timesteps")
		fracFlag    = flag.String("fractions", "1,0.5,0.25,0.125", "injection bandwidth fractions")
		formatFlag  = flag.String("format", "table", "output format: table, json or csv")
		scalingFlag = flag.Bool("scaling", false, "run the parallel-simulator scaling study instead (E6)")
		ranksFlag   = flag.String("ranks", "1,2,4,8", "rank counts for -scaling")
		horizonFlag = flag.String("horizon", "2ms", "simulated horizon for -scaling")

		sweepFlags = cli.RegisterSweepFlags(flag.CommandLine,
			"memoize study cells by config hash (with -cache-file, a later run re-simulates only new cells)", "study cells", "degradation sweep")
	)
	flag.Parse()
	format, err := core.ParseFormat(*formatFlag)
	if err != nil {
		cli.Exit("sst-net", cli.Configf("%v", err))
	}
	if err := sweepFlags.Check(); err != nil {
		cli.Exit("sst-net", err)
	}
	// Either SIGINT or SIGTERM drains the sweep and flushes journals.
	ctx, stop := cli.SignalContext(context.Background())
	defer stop()
	if *scalingFlag {
		if err := sweepFlags.Start(); err != nil {
			cli.Exit("sst-net", err)
		}
		err := runScaling(*nodesFlag, *ranksFlag, *horizonFlag, format, ctx)
		if perr := sweepFlags.Stop(); err == nil {
			err = perr
		}
		cli.Exit("sst-net", err)
	}
	opts, err := sweepFlags.Options(ctx)
	if err != nil {
		cli.Exit("sst-net", err)
	}
	err = run(*nodesFlag, *stepsFlag, *fracFlag, format, opts)
	cli.Exit("sst-net", sweepFlags.Finish("sst-net", err))
}

// runScaling drives the E6 parallel-scaling study: the heterogeneous
// lattice over each rank count.
func runScaling(nodes int, ranksFlag, horizonFlag string, format core.Format, ctx context.Context) error {
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
	if horizon == 0 {
		return cli.Configf("bad horizon %q: must be positive", horizonFlag)
	}
	res, err := core.ParallelScalingStudy(ranks, nodes, horizon, core.SweepOptions{Context: ctx})
	if errors.Is(err, core.ErrLatticeSize) {
		return cli.Configf("%w", err)
	}
	if err != nil {
		return err
	}
	return core.WriteResults(os.Stdout, format, res)
}

func run(nodes, steps int, fracFlag string, format core.Format, opts core.SweepOptions) error {
	spec := core.JobSpec{Kind: "net", Nodes: nodes, Steps: steps}
	for _, f := range strings.Split(fracFlag, ",") {
		v, err := strconv.ParseFloat(strings.TrimSpace(f), 64)
		if err != nil || v <= 0 || v > 1 {
			return cli.Configf("bad fraction %q", f)
		}
		spec.Fractions = append(spec.Fractions, v)
	}
	// Dispatch through the study registry — the same JobSpec surface the
	// sweep service admits, so the CLI and the service cannot drift on
	// what the net studies mean or accept.
	if err := spec.Validate(); err != nil {
		return cli.Configf("%v", err)
	}
	// One sweep of the grid yields both tables: the power study is a view
	// of the degradation study's cells. Both render whatever cells
	// completed even when some failed or the sweep was interrupted; the
	// error still propagates so the exit code reflects the incomplete run.
	res, err := spec.Run(opts)
	deg, ok := res.(*core.NetDegradationResult)
	if !ok {
		return err
	}
	if werr := core.WriteResults(os.Stdout, format, deg, deg.Power()); werr != nil {
		return werr
	}
	if err != nil {
		return fmt.Errorf("study incomplete (tables above show completed cells): %w", err)
	}
	return nil
}
