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

	"sst/internal/cli"
	"sst/internal/core"
)

// sweepFlags parses args through the command's shared sweep flag group.
func sweepFlags(t *testing.T, args ...string) *cli.SweepFlags {
	t.Helper()
	fs := flag.NewFlagSet("sst-net", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	sf := cli.RegisterSweepFlags(fs, "memoize", "study cells", "degradation sweep")
	if err := fs.Parse(args); err != nil {
		t.Fatalf("parsing %v: %v", args, err)
	}
	return sf
}

// sweepOptions is sweepFlags plus the options they describe; the cache
// they opened is closed with the test.
func sweepOptions(t *testing.T, args ...string) (*cli.SweepFlags, core.SweepOptions) {
	t.Helper()
	sf := sweepFlags(t, args...)
	opts, err := sf.Options(context.Background())
	if err != nil {
		t.Fatalf("options for %v: %v", args, err)
	}
	if opts.Cache != nil {
		t.Cleanup(func() { opts.Cache.Close() })
	}
	return sf, opts
}

func TestNetStudySmall(t *testing.T) {
	if err := run(8, 2, "1,0.5", core.FormatTable, core.SweepOptions{}); err != nil {
		t.Fatal(err)
	}
	if err := run(8, 2, "1", core.FormatCSV, core.SweepOptions{Workers: 2}); err != nil {
		t.Fatal(err)
	}
}

func TestNetStudyObsFiles(t *testing.T) {
	dir := t.TempDir()
	metrics := filepath.Join(dir, "m.json")
	trace := filepath.Join(dir, "t.json")
	sf, opts := sweepOptions(t, "-j", "2", "-metrics-out", metrics, "-trace-out", trace)
	if err := sf.Finish("sst-net", run(8, 2, "1,0.5", core.FormatJSON, opts)); err != nil {
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
	}
}

func TestNetScalingStudy(t *testing.T) {
	if err := runScaling(8, "1,2", "100us", core.FormatTable, context.Background()); err != nil {
		t.Fatal(err)
	}
	err := runScaling(8, "1,x", "100us", core.FormatTable, context.Background())
	if err == nil {
		t.Error("bad rank count accepted")
	} else if cli.Code(err) != cli.ExitConfig {
		t.Errorf("bad rank count maps to exit %d, want %d", cli.Code(err), cli.ExitConfig)
	}
	err = runScaling(8, "1", "soon", core.FormatTable, context.Background())
	if err == nil {
		t.Error("bad horizon accepted")
	} else if cli.Code(err) != cli.ExitConfig {
		t.Errorf("bad horizon maps to exit %d, want %d", cli.Code(err), cli.ExitConfig)
	}
	for _, h := range []string{"0", "0s", "-1ms"} {
		if err := runScaling(8, "1", h, core.FormatTable, context.Background()); cli.Code(err) != cli.ExitConfig {
			t.Errorf("horizon %s: %v, want exit %d", h, err, cli.ExitConfig)
		}
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := runScaling(8, "1", "1s", core.FormatTable, ctx); cli.Code(err) != cli.ExitInterrupted {
		t.Errorf("cancelled study: %v, want exit %d", err, cli.ExitInterrupted)
	}
}

// TestNetScalingTooFewNodes: a lattice too small for the study is a bad
// -nodes value, exit 2, not a failed run.
func TestNetScalingTooFewNodes(t *testing.T) {
	for _, nodes := range []int{0, 3} {
		err := runScaling(nodes, "1", "100us", core.FormatTable, context.Background())
		if !errors.Is(err, core.ErrLatticeSize) || cli.Code(err) != cli.ExitConfig {
			t.Errorf("-nodes %d: %v, want exit %d", nodes, err, cli.ExitConfig)
		}
	}
}

func TestNetStudyBadFractions(t *testing.T) {
	err := run(8, 2, "1,zero", core.FormatTable, core.SweepOptions{})
	if err == nil {
		t.Error("bad fraction accepted")
	} else if cli.Code(err) != cli.ExitConfig {
		t.Errorf("bad fraction maps to exit %d, want %d", cli.Code(err), cli.ExitConfig)
	}
	if err := run(8, 2, "2.5", core.FormatTable, core.SweepOptions{}); err == nil {
		t.Error("fraction > 1 accepted")
	}
}

// TestNetStudyJournalResume: a journaled study writes one record per cell;
// a resumed run restores them and reproduces the same tables.
func TestNetStudyJournalResume(t *testing.T) {
	dir := t.TempDir()
	journal := filepath.Join(dir, "net.jsonl")
	if err := run(8, 2, "1,0.5", core.FormatCSV, core.SweepOptions{Workers: 2, Journal: journal}); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(journal)
	if err != nil {
		t.Fatal(err)
	}
	if len(data) == 0 {
		t.Fatal("journal empty after journaled study")
	}
	// Resume against the complete journal: every cell restores, no
	// simulation re-runs, and the study still succeeds.
	if err := run(8, 2, "1,0.5", core.FormatCSV, core.SweepOptions{Workers: 2, Journal: journal, Resume: true}); err != nil {
		t.Fatalf("resume: %v", err)
	}
}

// TestNetStudyInterruptedExitCode: a pre-cancelled context maps to the
// interrupted exit code, not a generic failure.
func TestNetStudyInterruptedExitCode(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	err := run(8, 2, "1,0.5", core.FormatTable, core.SweepOptions{Workers: 1, Context: ctx})
	if err == nil {
		t.Fatal("cancelled study reported success")
	}
	if cli.Code(err) != cli.ExitInterrupted {
		t.Fatalf("cancelled study maps to exit %d, want %d (err: %v)", cli.Code(err), cli.ExitInterrupted, err)
	}
}

// TestNetStudyCacheSharedAcrossStudies: the degradation and power tables
// are two views of one sweep, so with -cache the first run misses every
// cell once and hits none, and a rerun over the same cache is all hits.
func TestNetStudyCacheSharedAcrossStudies(t *testing.T) {
	_, opts := sweepOptions(t, "-j", "2", "-cache", "-cache-size", "64")
	sc := opts.Cache
	if err := run(8, 2, "1,0.5", core.FormatCSV, opts); err != nil {
		t.Fatal(err)
	}
	const cells = 8 // 4 proxies × 2 fractions
	if st := sc.Stats(); st.Misses != cells || st.Hits != 0 {
		t.Fatalf("first run stats %+v, want %d misses and no hits (each cell simulated once)", st, cells)
	}
	if err := run(8, 2, "1,0.5", core.FormatCSV, opts); err != nil {
		t.Fatal(err)
	}
	if st := sc.Stats(); st.Misses != cells || st.Hits != cells {
		t.Fatalf("second run stats %+v, want %d hits %d misses (no re-simulation)", st, cells, cells)
	}
}

// TestNetStudyCacheMetricsOut: the -metrics-out JSON is one sweep's
// per-point table, one row per cell, followed by the cache report, whose
// counters show every cell missed once.
func TestNetStudyCacheMetricsOut(t *testing.T) {
	metrics := filepath.Join(t.TempDir(), "m.json")
	sf, opts := sweepOptions(t, "-j", "2", "-cache", "-cache-size", "64", "-metrics-out", metrics)
	if err := sf.Finish("sst-net", run(8, 2, "1", core.FormatCSV, opts)); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(metrics)
	if err != nil {
		t.Fatal(err)
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	var points struct {
		Rows []any `json:"rows"`
	}
	if err := dec.Decode(&points); err != nil {
		t.Fatalf("metrics JSON is not one sweep's table: %v", err)
	}
	if len(points.Rows) != 4 {
		t.Errorf("sweep table has %d point rows, want 4 (one per cell)", len(points.Rows))
	}
	var rep struct {
		Cache map[string]any `json:"cache"`
	}
	if err := dec.Decode(&rep); err != nil {
		t.Fatalf("metrics JSON cache report: %v", err)
	}
	if rep.Cache["capacity"] != 64.0 || rep.Cache["hits"] != 0.0 || rep.Cache["misses"] != 4.0 || rep.Cache["evictions"] != 0.0 {
		t.Fatalf("cache report in metrics JSON = %+v", rep.Cache)
	}
	for _, gone := range []string{"policy", "rejected", "shadows"} {
		if _, ok := rep.Cache[gone]; ok {
			t.Errorf("cache report still carries %q: %+v", gone, rep.Cache)
		}
	}
}

// TestNetSimulatesEachCellOnce: one sst-net process observes one sweep of
// the grid — the -metrics-out table holds one report per cell — and a cold
// -cache run prints a summary with every cell missed once and none hit.
// The test re-executes its own binary as sst-net.
func TestNetSimulatesEachCellOnce(t *testing.T) {
	if args := os.Getenv("SST_NET_MAIN_ARGS"); args != "" {
		os.Args = append([]string{"sst-net"}, strings.Fields(args)...)
		main()
		return
	}
	metrics := filepath.Join(t.TempDir(), "m.json")
	cmd := exec.Command(os.Args[0], "-test.run=^TestNetSimulatesEachCellOnce$")
	cmd.Env = append(os.Environ(), "SST_NET_MAIN_ARGS=-nodes 8 -steps 2 -fractions 1,0.5,0.25 -j 2 -cache -metrics-out "+metrics)
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	if err := cmd.Run(); err != nil {
		t.Fatalf("sst-net: %v\n%s", err, stderr.Bytes())
	}
	if !strings.Contains(stderr.String(), "cache entries=12 hits=0 misses=12 ") {
		t.Errorf("cold -cache summary does not show 12 cells simulated once:\n%s", stderr.Bytes())
	}
	data, err := os.ReadFile(metrics)
	if err != nil {
		t.Fatal(err)
	}
	var points struct {
		Rows []any `json:"rows"`
	}
	if err := json.NewDecoder(bytes.NewReader(data)).Decode(&points); err != nil {
		t.Fatalf("metrics JSON is not one sweep's table: %v\n%s", err, data)
	}
	if len(points.Rows) != 12 {
		t.Errorf("sweep table has %d point rows, want 12", len(points.Rows))
	}
}

// TestNetRemovedCacheFlags: the policy and shadow-sensor flags are gone —
// the command rejects them as unknown flags with the configuration exit
// code. The test re-executes its own binary as sst-net.
func TestNetRemovedCacheFlags(t *testing.T) {
	if args := os.Getenv("SST_NET_MAIN_ARGS"); args != "" {
		os.Args = append([]string{"sst-net"}, strings.Fields(args)...)
		main()
		return
	}
	for _, args := range []string{"-cache-policy lru", "-cache-shadow lfu"} {
		cmd := exec.Command(os.Args[0], "-test.run=^TestNetRemovedCacheFlags$")
		cmd.Env = append(os.Environ(), "SST_NET_MAIN_ARGS="+args)
		out, err := cmd.CombinedOutput()
		var ee *exec.ExitError
		if !errors.As(err, &ee) || ee.ExitCode() != cli.ExitConfig {
			t.Errorf("sst-net %s: %v, want exit %d\n%s", args, err, cli.ExitConfig, out)
		}
		if !strings.Contains(string(out), "flag provided but not defined") {
			t.Errorf("sst-net %s: not rejected as an unknown flag:\n%s", args, out)
		}
	}
}

// TestNetRemovedSyncModes: -sync is gone with the modes it chose between,
// so every spelling is an unknown flag and a configuration error (exit 2).
// The test re-executes its own binary as sst-net.
func TestNetRemovedSyncModes(t *testing.T) {
	if args := os.Getenv("SST_NET_MAIN_ARGS"); args != "" {
		os.Args = append([]string{"sst-net"}, strings.Fields(args)...)
		main()
		return
	}
	for _, args := range []string{"-scaling -sync adaptive", "-scaling -sync pairwise,global",
		"-scaling -sync speculative", "-scaling -sync all"} {
		cmd := exec.Command(os.Args[0], "-test.run=^TestNetRemovedSyncModes$")
		cmd.Env = append(os.Environ(), "SST_NET_MAIN_ARGS="+args)
		out, err := cmd.CombinedOutput()
		var ee *exec.ExitError
		if !errors.As(err, &ee) || ee.ExitCode() != cli.ExitConfig {
			t.Errorf("sst-net %s: %v, want exit %d\n%s", args, err, cli.ExitConfig, out)
		}
		if !strings.Contains(string(out), "flag provided but not defined: -sync") {
			t.Errorf("sst-net %s: not rejected as an unknown flag:\n%s", args, out)
		}
	}
}

// TestNetSIGTERMDrains: SIGTERM lands on the same 130 contract as
// SIGINT — the study drains instead of dying mid-cell.
func TestNetSIGTERMDrains(t *testing.T) {
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
	err := run(8, 2, "1,0.5", core.FormatTable, core.SweepOptions{Workers: 1, Context: ctx})
	if err == nil {
		t.Fatal("study under SIGTERM reported success")
	}
	if cli.Code(err) != cli.ExitInterrupted {
		t.Fatalf("SIGTERM maps to exit %d, want %d (err: %v)", cli.Code(err), cli.ExitInterrupted, err)
	}
}
