package main

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"

	"sst/internal/cli"
	"sst/internal/leakcheck"
	"sst/internal/serve"
)

func TestConfigErrors(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	// Missing state dir parent that cannot be created, and a bad listen
	// address, are config mistakes: exit 2, not a crash.
	err := run(ctx, "256.256.256.256:0", serve.Config{StateDir: t.TempDir()}, time.Second)
	if cli.Code(err) != cli.ExitConfig {
		t.Fatalf("bad addr maps to exit %d, want %d (err: %v)", cli.Code(err), cli.ExitConfig, err)
	}
}

// startRun boots run() on a free port and returns the base URL plus the
// channel run's error lands on.
func startRun(t *testing.T, ctx context.Context, cfg serve.Config, drain time.Duration) (string, chan error) {
	t.Helper()
	errc := make(chan error, 1)
	go func() { errc <- run(ctx, "127.0.0.1:0", cfg, drain) }()
	return awaitAddr(t, cfg.StateDir, errc), errc
}

// awaitAddr waits for the server whose exit lands on errc to publish its
// listen address under stateDir and returns the base URL.
func awaitAddr(t *testing.T, stateDir string, errc chan error) string {
	t.Helper()
	addrPath := filepath.Join(stateDir, "addr")
	deadline := time.Now().Add(10 * time.Second)
	for {
		raw, err := os.ReadFile(addrPath)
		if err == nil && len(raw) > 0 {
			return "http://" + strings.TrimSpace(string(raw))
		}
		select {
		case rerr := <-errc:
			t.Fatalf("run exited during startup: %v", rerr)
		default:
		}
		if time.Now().After(deadline) {
			t.Fatal("server never published its address")
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestSIGTERMDrainsCleanly is the satellite contract end to end: a
// SIGTERM-cancelled context makes run() finish the submitted job's
// journaled state, shut the listener, and return nil — exit 0.
func TestSIGTERMDrainsCleanly(t *testing.T) {
	leakcheck.Check(t)
	t.Cleanup(http.DefaultClient.CloseIdleConnections)
	ctx, stop := cli.SignalContext(context.Background())
	defer stop()
	state := t.TempDir()
	url, errc := startRun(t, ctx, serve.Config{StateDir: state, JobWorkers: 1}, 30*time.Second)

	body := `{"tenant":"t","spec":{"kind":"dse","apps":["stream"],"techs":["ddr3-1333"],"widths":[1]}}`
	resp, err := http.Post(url+"/v1/jobs", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var st serve.JobStatus
	json.NewDecoder(resp.Body).Decode(&st)
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit = %d", resp.StatusCode)
	}

	// Let the tiny job complete so the drain has a done job to report.
	deadline := time.Now().Add(30 * time.Second)
	for {
		resp, err := http.Get(url + "/v1/jobs/" + st.ID)
		if err != nil {
			t.Fatal(err)
		}
		var cur serve.JobStatus
		json.NewDecoder(resp.Body).Decode(&cur)
		resp.Body.Close()
		if cur.State == serve.StateDone {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("job stuck in %s", cur.State)
		}
		time.Sleep(20 * time.Millisecond)
	}

	if err := syscall.Kill(os.Getpid(), syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	select {
	case rerr := <-errc:
		if rerr != nil {
			t.Fatalf("drained run returned %v, want nil (exit 0), code %d", rerr, cli.Code(rerr))
		}
	case <-time.After(30 * time.Second):
		t.Fatal("run did not return after SIGTERM")
	}
	// The job's result survived the shutdown.
	if _, err := os.Stat(filepath.Join(state, "jobs", st.ID, "result.csv")); err != nil {
		t.Fatalf("result.csv missing after drain: %v", err)
	}
}

// TestDrainBudgetMapsTo130: when ctx dies while a job wedges past the
// budget, run returns the interrupted contract.
func TestDrainBudgetMapsTo130(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	state := t.TempDir()
	srv, err := serve.New(serve.Config{
		StateDir: state, JobWorkers: 1,
		// A net job big enough to still be mid-sweep when we cancel.
		PointWorkers: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	// The overrun leaves the job worker finishing its running point and
	// journaling it under state; wait for it, or TempDir's cleanup races
	// those writes and fails with "directory not empty".
	defer srv.Drain(0)
	errc := make(chan error, 1)
	// A budget nobody can meet while a job runs.
	go func() { errc <- serveUntil(ctx, srv, "127.0.0.1:0", state, time.Nanosecond) }()
	url := awaitAddr(t, state, errc)
	body := `{"tenant":"t","spec":{"kind":"net","nodes":16,"steps":4}}`
	resp, err := http.Post(url+"/v1/jobs", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	time.Sleep(50 * time.Millisecond) // let the worker enter the sweep
	cancel()
	select {
	case rerr := <-errc:
		// Either the drain beat the nanosecond budget (impossible while a
		// point runs) or we get the 130 contract.
		if rerr != nil && cli.Code(rerr) != cli.ExitInterrupted {
			t.Fatalf("overrun drain maps to exit %d (err: %v)", cli.Code(rerr), rerr)
		}
		if rerr == nil {
			t.Log("job finished inside the budget; drain stayed clean")
		}
	case <-time.After(60 * time.Second):
		t.Fatal("run never returned")
	}
	http.DefaultClient.CloseIdleConnections()
}

func TestStateFlagRequiredIsConfigError(t *testing.T) {
	// The -state check lives in main, but the underlying constructor
	// enforces it too; the CLI maps it to exit 2.
	_, err := serve.New(serve.Config{})
	if err == nil {
		t.Fatal("empty state dir accepted")
	}
	if cli.Code(cli.Configf("%v", err)) != cli.ExitConfig {
		t.Fatal("config wrap lost")
	}
}
