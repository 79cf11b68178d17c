package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"sst/internal/cli"
	"sst/internal/core"
	"sst/internal/sim"
	"syscall"
	"time"
)

const testMachine = `{
  "name": "cli-test",
  "node": {
    "cpu": {"kind": "superscalar", "freq": "2GHz", "width": 2},
    "l1": {"size": "32KB", "assoc": 4, "hit_lat": 2},
    "memory": {"preset": "ddr3-1333"}
  },
  "workload": {"kind": "stream", "n": 512, "iters": 1}
}`

func TestRunMachineFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "m.json")
	if err := os.WriteFile(path, []byte(testMachine), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run(path, true, obsFlags{}, "", "10us"); err != nil {
		t.Fatal(err)
	}
	tl := filepath.Join(dir, "timeline.csv")
	if err := run(path, true, obsFlags{format: core.FormatCSV}, tl, "1us"); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(tl)
	if err != nil {
		t.Fatal(err)
	}
	if len(data) == 0 {
		t.Fatal("timeline empty")
	}
}

func TestRunMachineObsOutputs(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "m.json")
	if err := os.WriteFile(path, []byte(testMachine), 0o644); err != nil {
		t.Fatal(err)
	}
	trace := filepath.Join(dir, "trace.json")
	metrics := filepath.Join(dir, "metrics.json")
	ob := obsFlags{traceOut: trace, metricsOut: metrics, format: core.FormatJSON}
	if err := run(path, false, ob, "", "10us"); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(trace)
	if err != nil {
		t.Fatal(err)
	}
	var tr struct {
		TraceEvents []struct {
			Name string `json:"name"`
			Ph   string `json:"ph"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(data, &tr); err != nil {
		t.Fatalf("trace not valid JSON: %v", err)
	}
	labels := map[string]bool{}
	for _, ev := range tr.TraceEvents {
		if ev.Ph == "X" {
			labels[ev.Name] = true
		}
	}
	// The acceptance bar: spans attributed to the cpu, the memory system
	// and at least one link must all appear.
	for _, want := range []string{"cpu", "dram", "dram.chan"} {
		found := false
		for l := range labels {
			if l == want || len(l) > len(want) && l[:len(want)] == want {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("no trace span labeled %q (have %v)", want, labels)
		}
	}
	data, err = os.ReadFile(metrics)
	if err != nil {
		t.Fatal(err)
	}
	var rep struct {
		Engine struct {
			Events uint64 `json:"events"`
		} `json:"engine"`
		Links []struct {
			Name string `json:"name"`
			Msgs uint64 `json:"msgs"`
		} `json:"links"`
	}
	if err := json.Unmarshal(data, &rep); err != nil {
		t.Fatalf("metrics not valid JSON: %v", err)
	}
	if rep.Engine.Events == 0 {
		t.Error("metrics recorded zero events")
	}
	if len(rep.Links) == 0 {
		t.Error("metrics recorded no links")
	}
}

func TestRunMissingFile(t *testing.T) {
	if err := run("/nonexistent.json", false, obsFlags{}, "", "1us"); err == nil {
		t.Fatal("missing file accepted")
	}
}

func TestRunBadConfig(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "bad.json")
	os.WriteFile(path, []byte(`{"name":"x"}`), 0o644)
	if err := run(path, false, obsFlags{}, "", "1us"); err == nil {
		t.Fatal("invalid config accepted")
	}
}

const testSystem = `{
  "name": "cli-sys",
  "topology": {"kind": "torus", "x": 2, "y": 2, "z": 2},
  "network": {"link_bw": 3.2e9, "inject_bw": 3.2e9, "link_lat": "100ns", "router_lat": "50ns"},
  "app": "charon",
  "steps": 2
}`

func TestRunSystemFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "s.json")
	if err := os.WriteFile(path, []byte(testSystem), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := runSystem(path, obsFlags{}, 1, core.Snapshots{}); err != nil {
		t.Fatal(err)
	}
	metrics := filepath.Join(dir, "m.json")
	if err := runSystem(path, obsFlags{metricsOut: metrics}, 1, core.Snapshots{}); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(metrics); err != nil {
		t.Fatal(err)
	}
}

// systemSummary runs a -system file and returns its summary lines by
// label.
func systemSummary(t *testing.T, path string, nranks int) map[string]string {
	t.Helper()
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	stdout := os.Stdout
	os.Stdout = w
	err = runSystem(path, obsFlags{}, nranks, core.Snapshots{})
	os.Stdout = stdout
	w.Close()
	if err != nil {
		t.Fatalf("-par %d: %v", nranks, err)
	}
	out, err := io.ReadAll(r)
	if err != nil {
		t.Fatal(err)
	}
	lines := map[string]string{}
	for _, l := range strings.Split(strings.TrimSpace(string(out)), "\n") {
		label, value, _ := strings.Cut(l, ":")
		lines[label] = strings.TrimSpace(value)
	}
	return lines
}

// TestSystemSummaryAcrossPar: every -par prints the network's own message
// count (576 on this 8-node Charon run, not ranks x steps), and -par 1 and
// -par 2 agree on messages, bytes, simulated time, utilization and energy.
func TestSystemSummaryAcrossPar(t *testing.T) {
	path := filepath.Join(t.TempDir(), "s.json")
	if err := os.WriteFile(path, []byte(testSystem), 0o644); err != nil {
		t.Fatal(err)
	}
	one, two := systemSummary(t, path, 1), systemSummary(t, path, 2)
	if !strings.HasPrefix(one["messages"], "576 ") {
		t.Errorf("-par 1 messages: %q, want 576", one["messages"])
	}
	for _, label := range []string{"simulated time", "messages", "link utilization", "network energy"} {
		if one[label] == "" || one[label] != two[label] {
			t.Errorf("%s: -par 1 %q, -par 2 %q", label, one[label], two[label])
		}
	}
}

// TestRunSystemBadShape: -par below 1 and more app ranks than nodes are
// configuration errors, not panics.
func TestRunSystemBadShape(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "s.json")
	if err := os.WriteFile(path, []byte(testSystem), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := runSystem(path, obsFlags{}, 0, core.Snapshots{}); cli.Code(err) != cli.ExitConfig {
		t.Errorf("-par 0: %v, want a configuration error", err)
	}
	wide := filepath.Join(dir, "wide.json")
	if err := os.WriteFile(wide, []byte(strings.Replace(testSystem, `"steps": 2`, `"steps": 2, "ranks": 9`, 1)), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := runSystem(wide, obsFlags{}, 2, core.Snapshots{}); cli.Code(err) != cli.ExitConfig {
		t.Errorf("9 ranks on 8 nodes: %v, want a configuration error", err)
	}
}

func TestRunSystemParallel(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "s.json")
	if err := os.WriteFile(path, []byte(testSystem), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := runSystem(path, obsFlags{}, 4, core.Snapshots{}); err != nil {
		t.Fatal(err)
	}
	// The parallel run's metrics JSON must carry the runner section.
	metrics := filepath.Join(dir, "mp.json")
	if err := runSystem(path, obsFlags{metricsOut: metrics}, 2, core.Snapshots{}); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(metrics)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{`"par"`, `"lookahead_ps"`} {
		if !strings.Contains(string(data), want) {
			t.Fatalf("parallel metrics missing %s:\n%s", want, data)
		}
	}
}

// TestSystemMetricsSumRanks: -metrics-out counts every rank's events and
// every rank's trace spans, so engine.events reads the same at any -par and
// trace.spans (one span per dispatched event) equals it.
func TestSystemMetricsSumRanks(t *testing.T) {
	dir := t.TempDir()
	var events []uint64
	for _, nranks := range []int{1, 2, 4} {
		metrics := filepath.Join(dir, fmt.Sprintf("m%d.json", nranks))
		trace := filepath.Join(dir, fmt.Sprintf("t%d.json", nranks))
		captureStdout(t, func() error {
			return runSystem("../../configs/system-torus-small.json", obsFlags{metricsOut: metrics, traceOut: trace}, nranks,
				core.Snapshots{})
		})
		data, err := os.ReadFile(metrics)
		if err != nil {
			t.Fatal(err)
		}
		var rep struct {
			Engine struct {
				Events uint64 `json:"events"`
			} `json:"engine"`
			Trace struct {
				Spans uint64 `json:"spans"`
			} `json:"trace"`
		}
		if err := json.Unmarshal(data, &rep); err != nil {
			t.Fatal(err)
		}
		if rep.Trace.Spans != rep.Engine.Events {
			t.Errorf("-par %d: trace.spans %d, engine.events %d", nranks, rep.Trace.Spans, rep.Engine.Events)
		}
		events = append(events, rep.Engine.Events)
	}
	if events[0] == 0 || events[1] != events[0] || events[2] != events[0] {
		t.Errorf("engine.events at -par 1/2/4: %v, want all equal", events)
	}
}

// TestRunSystemParallelTrace: -trace-out with -par writes one trace file
// per rank, tagged ".rankN" before the extension.
func TestRunSystemParallelTrace(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "s.json")
	if err := os.WriteFile(path, []byte(testSystem), 0o644); err != nil {
		t.Fatal(err)
	}
	trace := filepath.Join(dir, "t.json")
	if err := runSystem(path, obsFlags{traceOut: trace}, 2, core.Snapshots{}); err != nil {
		t.Fatal(err)
	}
	for rank := 0; rank < 2; rank++ {
		p := filepath.Join(dir, fmt.Sprintf("t.rank%d.json", rank))
		data, err := os.ReadFile(p)
		if err != nil {
			t.Fatalf("rank %d trace: %v", rank, err)
		}
		var tr struct {
			TraceEvents []json.RawMessage `json:"traceEvents"`
		}
		if err := json.Unmarshal(data, &tr); err != nil {
			t.Fatalf("rank %d trace not valid JSON: %v", rank, err)
		}
		if len(tr.TraceEvents) == 0 {
			t.Errorf("rank %d trace recorded no spans", rank)
		}
	}
	// At -par 1 the trace goes to exactly the path given.
	single := filepath.Join(dir, "one.json")
	if err := runSystem(path, obsFlags{traceOut: single}, 1, core.Snapshots{}); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(single); err != nil {
		t.Errorf("-par 1 trace: %v", err)
	}
	if _, err := os.Stat(rankPath(single, 0)); err == nil {
		t.Error("-par 1 trace written under a rank suffix")
	}
}

func TestRankPath(t *testing.T) {
	cases := [][2]string{
		{"t.json", "t.rank3.json"},
		{"out/run.csv", "out/run.rank3.csv"},
		{"plain", "plain.rank3"},
		{"a.b/noext", "a.b/noext.rank3"},
	}
	for _, c := range cases {
		if got := rankPath(c[0], 3); got != c[1] {
			t.Errorf("rankPath(%q) = %q, want %q", c[0], got, c[1])
		}
	}
}

// TestRunSystemSnapshotRestore: slicing a run into snapshot intervals must
// leave a loadable snapshot, and restoring from a mid-run snapshot must
// reproduce the uninterrupted run's summary (asserted in detail by
// internal/noc's tests; here we assert the CLI plumbing completes and the
// snapshot file round-trips).
func TestRunSystemSnapshotRestore(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "s.json")
	if err := os.WriteFile(path, []byte(testSystem), 0o644); err != nil {
		t.Fatal(err)
	}
	snapFile := filepath.Join(dir, "run.snap")
	for _, nranks := range []int{1, 2} {
		snap := core.Snapshots{Every: 200 * sim.Microsecond, Out: snapFile}
		if err := runSystem(path, obsFlags{}, nranks, snap); err != nil {
			t.Fatalf("nranks=%d sliced run: %v", nranks, err)
		}
		if _, err := os.Stat(snapFile); err != nil {
			t.Fatalf("nranks=%d: no snapshot written: %v", nranks, err)
		}
		// The final snapshot is the completed state; restoring it and
		// running to completion must succeed and change nothing.
		if err := runSystem(path, obsFlags{}, nranks, core.Snapshots{Restore: snapFile}); err != nil {
			t.Fatalf("nranks=%d restore: %v", nranks, err)
		}
	}
}

func TestRunSystemMissing(t *testing.T) {
	err := runSystem("/nonexistent.json", obsFlags{}, 1, core.Snapshots{})
	if err == nil {
		t.Fatal("missing system accepted")
	}
	if cli.Code(err) != cli.ExitConfig {
		t.Fatalf("missing system file maps to exit %d, want %d", cli.Code(err), cli.ExitConfig)
	}
}

// TestExitCodes pins the command's exit-code contract: config errors,
// interruption and generic failures are distinguishable to callers.
func TestExitCodes(t *testing.T) {
	if got := cli.Code(nil); got != cli.ExitOK {
		t.Errorf("clean run maps to exit %d", got)
	}
	if got := cli.Code(cli.Configf("bad flag")); got != cli.ExitConfig {
		t.Errorf("config error maps to exit %d, want %d", got, cli.ExitConfig)
	}
	if got := cli.Code(fmt.Errorf("run: %w", sim.ErrInterrupted)); got != cli.ExitInterrupted {
		t.Errorf("interrupted run maps to exit %d, want %d", got, cli.ExitInterrupted)
	}
	if got := cli.Code(fmt.Errorf("deadlocked")); got != cli.ExitFailure {
		t.Errorf("generic failure maps to exit %d, want %d", got, cli.ExitFailure)
	}
}

// TestSIGTERMTriggersInterrupt: cli.OnInterrupt fires on SIGTERM as
// well as SIGINT, so a supervisor's termination signal lands the
// simulation at its next poll point instead of killing the process.
func TestSIGTERMTriggersInterrupt(t *testing.T) {
	fired := make(chan struct{})
	detach := cli.OnInterrupt(func() { close(fired) })
	defer detach()
	if err := syscall.Kill(os.Getpid(), syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	select {
	case <-fired:
	case <-time.After(5 * time.Second):
		t.Fatal("OnInterrupt did not fire on SIGTERM")
	}
}

// TestRemovedSyncModes: -sync is gone with the modes it chose between, so
// every spelling, retired long ago or recently, is an unknown flag and a
// configuration error (exit 2). The test re-executes its own binary as sst.
func TestRemovedSyncModes(t *testing.T) {
	if args := os.Getenv("SST_MAIN_ARGS"); args != "" {
		os.Args = append([]string{"sst"}, strings.Fields(args)...)
		main()
		return
	}
	for _, args := range []string{"-sync global", "-sync adaptive", "-sync speculative", "-sync pairwise"} {
		cmd := exec.Command(os.Args[0], "-test.run=^TestRemovedSyncModes$")
		cmd.Env = append(os.Environ(), "SST_MAIN_ARGS="+args)
		out, err := cmd.CombinedOutput()
		var ee *exec.ExitError
		if !errors.As(err, &ee) || ee.ExitCode() != cli.ExitConfig {
			t.Errorf("sst %s: %v, want exit %d\n%s", args, err, cli.ExitConfig, out)
		}
		if !strings.Contains(string(out), "flag provided but not defined: -sync") {
			t.Errorf("sst %s: not rejected as an unknown flag:\n%s", args, out)
		}
	}
}
