// Command sst-serve is the crash-tolerant sweep service: an HTTP/JSON
// daemon that accepts sweep jobs (the dse and net studies as data), runs
// them on a bounded worker pool with per-tenant fair queuing, and keeps
// every completed design point durable in a per-job fsync'd journal.
//
// Usage:
//
//	sst-serve -state DIR [-addr 127.0.0.1:8080] [-jobs 2] [-j N] [-queue 16]
//	          [-point-timeout 0] [-retries 1] [-retry-base 100ms]
//	          [-retry-max 5s] [-retry-jitter 0.5] [-retry-seed 1]
//	          [-retry-timeouts] [-drain 30s]
//	          [-cache] [-cache-size 4096] [-cache-file results.jsonl]
//
// API (see DESIGN.md §10 and the README quick-start):
//
//	POST   /v1/jobs              submit {tenant, spec, deadline_ms} → 202
//	GET    /v1/jobs[/{id}]       job status; /result for the CSV
//	GET    /v1/jobs/{id}/events  journal lines streamed as NDJSON
//	GET    /v1/jobs/{id}/metrics per-point host timings (capped ring)
//	DELETE /v1/jobs/{id}         cancel
//	GET    /v1/metrics           service metrics (?format=json|csv|table)
//	GET    /healthz, /readyz     liveness; readiness (503 while draining)
//
// A full queue sheds submissions with 429 + Retry-After. SIGINT/SIGTERM
// start a graceful drain: admission stops, in-flight points finish and
// are journaled, queued jobs stay durably queued, and the process exits
// 0 within -drain (130 if the budget expires first). After kill -9, a
// restart over the same -state directory resumes every incomplete job
// from its journal; at most the points in flight are re-run, and the
// final results are byte-identical to an uninterrupted run.
//
// The actual listen address is written to $state/addr once the socket is
// bound, so harnesses can use -addr 127.0.0.1:0.
//
// Exit codes: 0 clean shutdown, 1 failure, 2 configuration error, 130
// drain budget exceeded.
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"time"

	"sst/internal/cli"
	"sst/internal/core"
	"sst/internal/serve"
)

func main() {
	var (
		addr    = flag.String("addr", "127.0.0.1:8080", "listen address (host:port; port 0 picks a free port)")
		state   = flag.String("state", "", "state directory for specs, journals and results (required)")
		jobs    = flag.Int("jobs", 2, "jobs running concurrently")
		jFlag   = flag.Int("j", 0, "sweep workers per job (0 = GOMAXPROCS)")
		queue   = flag.Int("queue", 16, "admission queue capacity across all tenants")
		ptimo   = flag.Duration("point-timeout", 0, "per-point wall-clock budget (0 = none)")
		retries = flag.Int("retries", 1, "attempt budget per point (1 = no retry of panics)")
		rbase   = flag.Duration("retry-base", 100*time.Millisecond, "backoff before the first retry")
		rmax    = flag.Duration("retry-max", 5*time.Second, "backoff cap")
		rjit    = flag.Float64("retry-jitter", 0.5, "backoff jitter spread (0..1)")
		rseed   = flag.Uint64("retry-seed", 1, "root seed of the deterministic backoff streams")
		rtimo   = flag.Bool("retry-timeouts", false, "retry a timed-out point once at a stretched deadline")
		drain   = flag.Duration("drain", 30*time.Second, "graceful-drain budget on SIGINT/SIGTERM")

		cacheFlags = cli.RegisterCacheFlags(flag.CommandLine,
			"share a result cache across jobs (overlapping grids hit)", "design points")
	)
	flag.Parse()
	if *state == "" {
		cli.Exit("sst-serve", cli.Configf("-state is required"))
	}
	sc, err := cacheFlags.Open()
	if err != nil {
		cli.Exit("sst-serve", err)
	}
	cfg := serve.Config{
		StateDir: *state, JobWorkers: *jobs, PointWorkers: *jFlag,
		QueueCapacity: *queue, PointTimeout: *ptimo,
		Retry: core.RetryPolicy{
			MaxAttempts: *retries, BaseBackoff: *rbase, MaxBackoff: *rmax,
			Jitter: *rjit, Seed: *rseed, RetryTimeouts: *rtimo,
		},
		Cache: sc,
	}
	ctx, stop := cli.SignalContext(context.Background())
	defer stop()
	err = run(ctx, *addr, cfg, *drain)
	if sc != nil {
		if cerr := sc.Close(); cerr != nil && err == nil {
			err = cerr
		}
	}
	cli.Exit("sst-serve", err)
}

// run serves until ctx is cancelled (SIGINT/SIGTERM), then drains: the
// listener closes, in-flight jobs finish their running points and
// journal them, queued jobs stay durably queued. A nil return is the
// clean-exit contract supervisors rely on; exceeding the drain budget
// returns an error mapping to exit 130.
func run(ctx context.Context, addr string, cfg serve.Config, drainBudget time.Duration) error {
	srv, err := serve.New(cfg)
	if err != nil {
		return cli.Configf("%v", err)
	}
	return serveUntil(ctx, srv, addr, cfg.StateDir, drainBudget)
}

// serveUntil is run on an already constructed server. On a drain-budget
// overrun it returns with srv's workers still finishing their running
// points: the process is about to exit, and a caller that is not (a test)
// can wait for them with srv.Drain(0).
func serveUntil(ctx context.Context, srv *serve.Server, addr, stateDir string, drainBudget time.Duration) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return cli.Configf("listen %s: %v", addr, err)
	}
	// Publish the bound address for harnesses that passed port 0.
	if err := os.WriteFile(filepath.Join(stateDir, "addr"), []byte(ln.Addr().String()+"\n"), 0o644); err != nil {
		ln.Close()
		return err
	}
	srv.Start()
	hs := serve.NewHTTPServer(srv.Handler(), 0)
	errc := make(chan error, 1)
	go func() { errc <- hs.Serve(ln) }()
	fmt.Fprintf(os.Stderr, "sst-serve: listening on %s (state %s)\n", ln.Addr(), stateDir)

	select {
	case err := <-errc:
		srv.Drain(drainBudget)
		return err
	case <-ctx.Done():
	}
	fmt.Fprintf(os.Stderr, "sst-serve: draining (budget %v)\n", drainBudget)
	// Drain jobs first: that closes every job's done channel, which ends
	// the long-lived /events streams Shutdown would otherwise wait on.
	derr := srv.Drain(drainBudget)
	shutCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if serr := hs.Shutdown(shutCtx); serr != nil {
		hs.Close()
	}
	<-errc // Serve has returned http.ErrServerClosed
	return derr
}
