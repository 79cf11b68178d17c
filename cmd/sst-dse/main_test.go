package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"

	"sst/internal/cache"
	"sst/internal/cli"
	"sst/internal/core"
)

// sweepOptions parses args through the command's shared sweep flag group
// and returns it with the observed options it describes; the cache it
// opened is closed with the test.
func sweepOptions(t *testing.T, args ...string) (*cli.SweepFlags, core.SweepOptions) {
	t.Helper()
	fs := flag.NewFlagSet("sst-dse", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	sf := cli.RegisterSweepFlags(fs, "memoize", "design points", "sweep")
	if err := fs.Parse(args); err != nil {
		t.Fatalf("parsing %v: %v", args, err)
	}
	opts, err := sf.Options(context.Background())
	if err != nil {
		t.Fatalf("options for %v: %v", args, err)
	}
	if opts.Cache != nil {
		t.Cleanup(func() { opts.Cache.Close() })
	}
	return sf, sf.Observe(opts)
}

func TestDSESmallSweep(t *testing.T) {
	if err := run("stream", "ddr3-1333,gddr5-4000", "1,2", "small", "all", core.FormatTable, core.SweepOptions{}); err != nil {
		t.Fatal(err)
	}
	if err := run("stream", "ddr3-1333", "1", "small", "fig10", core.FormatCSV, core.SweepOptions{Workers: 1}); err != nil {
		t.Fatal(err)
	}
	// Explicit parallel sweep: more workers than points is fine.
	if err := run("stream", "ddr3-1333", "1,2", "small", "fig12", core.FormatCSV, core.SweepOptions{Workers: 4}); err != nil {
		t.Fatal(err)
	}
	// The flat grid view is a Result too.
	if err := run("stream", "ddr3-1333", "1", "small", "grid", core.FormatJSON, core.SweepOptions{}); err != nil {
		t.Fatal(err)
	}
}

func TestDSESweepObs(t *testing.T) {
	dir := t.TempDir()
	metrics := filepath.Join(dir, "m.json")
	trace := filepath.Join(dir, "t.json")
	sf, opts := sweepOptions(t, "-j", "2", "-metrics-out", metrics, "-trace-out", trace)
	if err := sf.Finish("sst-dse", run("stream", "ddr3-1333", "1,2", "small", "fig10", core.FormatTable, opts)); err != nil {
		t.Fatal(err)
	}
	for _, path := range []string{metrics, trace} {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		var v any
		if err := json.Unmarshal(data, &v); err != nil {
			t.Fatalf("%s: invalid JSON: %v", path, err)
		}
		if path == metrics {
			if rows, _ := v.(map[string]any)["rows"].([]any); len(rows) != 2 {
				t.Fatalf("metrics carry %d points, want 2:\n%s", len(rows), data)
			}
		}
	}
}

func TestDSEResilienceMode(t *testing.T) {
	if err := runResilience("1,4", 60, 120, 2, 3, 7, core.FormatTable, core.SweepOptions{Workers: 2}); err != nil {
		t.Fatal(err)
	}
	if err := runResilience("zero", 60, 120, 2, 3, 7, core.FormatTable, core.SweepOptions{}); err == nil {
		t.Error("bad mtbf accepted")
	}
	if err := runResilience("1", 60, 120, -2, 3, 7, core.FormatCSV, core.SweepOptions{}); err == nil {
		t.Error("negative work accepted")
	}
}

func TestDSEBadArgs(t *testing.T) {
	err := run("stream", "ddr3-1333", "zero", "small", "all", core.FormatTable, core.SweepOptions{})
	if err == nil {
		t.Error("bad width accepted")
	} else if cli.Code(err) != cli.ExitConfig {
		t.Errorf("bad width maps to exit %d, want %d", cli.Code(err), cli.ExitConfig)
	}
	err = run("stream", "ddr3-1333", "1", "jumbo", "all", core.FormatTable, core.SweepOptions{})
	if err == nil {
		t.Error("bad scale accepted")
	} else if cli.Code(err) != cli.ExitConfig {
		t.Errorf("bad scale maps to exit %d, want %d", cli.Code(err), cli.ExitConfig)
	}
	err = run("stream", "ddr3-1333", "1", "small", "fig99", core.FormatTable, core.SweepOptions{})
	if err == nil {
		t.Error("bad table accepted")
	} else if cli.Code(err) != cli.ExitConfig {
		t.Errorf("bad table maps to exit %d, want %d", cli.Code(err), cli.ExitConfig)
	}
	if err := run("stream", "sdram", "1", "small", "all", core.FormatTable, core.SweepOptions{}); err == nil {
		t.Error("bad tech accepted")
	}
}

// TestDSEExitCodes pins the sweep outcomes callers script against: a
// timed-out point means "completed with failures" (3), a Ctrl-C cancel
// means "interrupted" (130).
func TestDSEExitCodes(t *testing.T) {
	// An unsatisfiable per-point deadline fails every point.
	err := run("stream", "ddr3-1333", "1", "small", "grid", core.FormatCSV,
		core.SweepOptions{Workers: 1, PointTimeout: time.Nanosecond})
	if err == nil {
		t.Fatal("timed-out sweep reported success")
	}
	if cli.Code(err) != cli.ExitPointFailed {
		t.Errorf("timed-out sweep maps to exit %d, want %d (err: %v)", cli.Code(err), cli.ExitPointFailed, err)
	}
	// A pre-cancelled context is an interrupted sweep, not a failed one.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	err = run("stream", "ddr3-1333", "1", "small", "grid", core.FormatCSV,
		core.SweepOptions{Workers: 1, Context: ctx})
	if err == nil {
		t.Fatal("cancelled sweep reported success")
	}
	if cli.Code(err) != cli.ExitInterrupted {
		t.Errorf("cancelled sweep maps to exit %d, want %d (err: %v)", cli.Code(err), cli.ExitInterrupted, err)
	}
}

// TestDSEJournalResume: a sweep interrupted after journaling some points
// resumes to the same grid an uninterrupted sweep produces.
func TestDSEJournalResume(t *testing.T) {
	journal := filepath.Join(t.TempDir(), "sweep.jsonl")
	opts := core.SweepOptions{Workers: 2, Journal: journal}
	if err := run("stream", "ddr3-1333", "1,2", "small", "grid", core.FormatCSV, opts); err != nil {
		t.Fatal(err)
	}
	opts.Resume = true
	if err := run("stream", "ddr3-1333", "1,2", "small", "grid", core.FormatCSV, opts); err != nil {
		t.Fatalf("resume: %v", err)
	}
}

// TestDSECachedSweep runs the same grid twice through one cache and
// requires the second pass to be all hits; the cache stats also land in
// the -metrics-out JSON.
func TestDSECachedSweep(t *testing.T) {
	metrics := filepath.Join(t.TempDir(), "m.json")
	sf, opts := sweepOptions(t, "-j", "2", "-cache", "-cache-size", "64", "-metrics-out", metrics)
	sc := opts.Cache
	if err := run("stream", "ddr3-1333", "1,2", "small", "grid", core.FormatCSV, opts); err != nil {
		t.Fatal(err)
	}
	if st := sc.Stats(); st.Misses != 2 || st.Hits != 0 {
		t.Fatalf("cold pass stats %+v", st)
	}
	if err := run("stream", "ddr3-1333", "1,2", "small", "grid", core.FormatCSV, opts); err != nil {
		t.Fatal(err)
	}
	st := sc.Stats()
	if st.Hits != 2 || st.Misses != 2 {
		t.Fatalf("warm pass stats %+v, want 2 hits 2 misses", st)
	}

	if err := sf.Finish("sst-dse", nil); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(metrics)
	if err != nil {
		t.Fatal(err)
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	var points any
	if err := dec.Decode(&points); err != nil {
		t.Fatalf("metrics JSON: %v", err)
	}
	var rep struct {
		Cache map[string]any `json:"cache"`
	}
	if err := dec.Decode(&rep); err != nil {
		t.Fatalf("metrics JSON cache report: %v", err)
	}
	if rep.Cache["capacity"] != 64.0 || rep.Cache["entries"] != 2.0 || rep.Cache["hits"] != 2.0 ||
		rep.Cache["misses"] != 2.0 || rep.Cache["evictions"] != 0.0 {
		t.Fatalf("cache report in metrics JSON = %+v", rep.Cache)
	}
	for _, gone := range []string{"policy", "rejected", "shadows"} {
		if _, ok := rep.Cache[gone]; ok {
			t.Errorf("cache report still carries %q: %+v", gone, rep.Cache)
		}
	}
}

// TestDSERemovedCacheFlags: the policy and shadow-sensor flags are gone —
// the command rejects them as unknown flags with the configuration exit
// code. The test re-executes its own binary as sst-dse.
func TestDSERemovedCacheFlags(t *testing.T) {
	if args := os.Getenv("SST_DSE_MAIN_ARGS"); args != "" {
		os.Args = append([]string{"sst-dse"}, strings.Fields(args)...)
		main()
		return
	}
	for _, args := range []string{"-cache-policy lru", "-cache-shadow lfu"} {
		cmd := exec.Command(os.Args[0], "-test.run=^TestDSERemovedCacheFlags$")
		cmd.Env = append(os.Environ(), "SST_DSE_MAIN_ARGS="+args)
		out, err := cmd.CombinedOutput()
		var ee *exec.ExitError
		if !errors.As(err, &ee) || ee.ExitCode() != cli.ExitConfig {
			t.Errorf("sst-dse %s: %v, want exit %d\n%s", args, err, cli.ExitConfig, out)
		}
		if !strings.Contains(string(out), "flag provided but not defined") {
			t.Errorf("sst-dse %s: not rejected as an unknown flag:\n%s", args, out)
		}
	}
}

// TestDSECacheFileWarmStart simulates two separate CLI invocations sharing
// a -cache-file: the second builds a fresh cache from the file and serves
// every point without re-simulating.
func TestDSECacheFileWarmStart(t *testing.T) {
	file := filepath.Join(t.TempDir(), "results.jsonl")
	sc1, err := core.NewSweepCache(64, cache.LRU, nil, file)
	if err != nil {
		t.Fatal(err)
	}
	if err := run("stream", "ddr3-1333", "1,2", "small", "grid", core.FormatCSV,
		core.SweepOptions{Workers: 2, Cache: sc1}); err != nil {
		t.Fatal(err)
	}
	if st := sc1.Stats(); st.Misses != 2 {
		t.Fatalf("first invocation stats %+v", st)
	}
	if err := sc1.Close(); err != nil {
		t.Fatal(err)
	}

	sc2, err := core.NewSweepCache(64, cache.LRU, nil, file)
	if err != nil {
		t.Fatal(err)
	}
	defer sc2.Close()
	if st := sc2.Stats(); st.WarmStarts != 2 {
		t.Fatalf("second invocation warm-started %d points, want 2", st.WarmStarts)
	}
	if err := run("stream", "ddr3-1333", "1,2", "small", "grid", core.FormatCSV,
		core.SweepOptions{Workers: 2, Cache: sc2}); err != nil {
		t.Fatal(err)
	}
	st := sc2.Stats()
	if st.Hits != 2 || st.Misses != 0 {
		t.Fatalf("second invocation stats %+v, want 2 hits 0 misses (no re-simulation)", st)
	}
}

// TestDSESIGTERMDrains: a supervisor's SIGTERM behaves exactly like
// Ctrl-C — the signal context cancels, the sweep drains, and the error
// maps to the interrupted exit code.
func TestDSESIGTERMDrains(t *testing.T) {
	ctx, stop := cli.SignalContext(context.Background())
	defer stop()
	if err := syscall.Kill(os.Getpid(), syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	select {
	case <-ctx.Done():
	case <-time.After(5 * time.Second):
		t.Fatal("SIGTERM did not cancel the signal context")
	}
	err := run("stream", "ddr3-1333", "1,2", "small", "grid", core.FormatCSV,
		core.SweepOptions{Workers: 1, Context: ctx})
	if err == nil {
		t.Fatal("sweep under SIGTERM reported success")
	}
	if cli.Code(err) != cli.ExitInterrupted {
		t.Fatalf("SIGTERM maps to exit %d, want %d (err: %v)", cli.Code(err), cli.ExitInterrupted, err)
	}
}
