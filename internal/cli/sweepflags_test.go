package cli

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"io"
	"os"
	"path/filepath"
	"testing"

	"sst/internal/core"
)

func sweepFlags(t *testing.T, args ...string) *SweepFlags {
	t.Helper()
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	sf := RegisterSweepFlags(fs, "memoize", "study cells", "degradation sweep")
	if err := fs.Parse(args); err != nil {
		t.Fatalf("parsing %v: %v", args, err)
	}
	return sf
}

// TestSweepFlags pins the shared sweep group: the unit-derived help
// strings, -resume needing -journal, the options built, the one collector
// they attach, and the -metrics-out layout (the sweep's table, then the
// cache report).
func TestSweepFlags(t *testing.T) {
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	RegisterSweepFlags(fs, "memoize", "study cells", "degradation sweep")
	for name, want := range map[string]string{
		"journal":   "journal completed study cells to this JSONL file (fsync'd per cell)",
		"resume":    "with -journal: restore completed cells instead of re-running them",
		"trace-out": "write a host-timeline Chrome trace of the degradation sweep to this file",
	} {
		if got := fs.Lookup(name).Usage; got != want {
			t.Errorf("-%s usage = %q, want %q", name, got, want)
		}
	}

	if err := sweepFlags(t, "-resume").Check(); Code(err) != ExitConfig {
		t.Errorf("-resume without -journal: exit code %d (%v), want the config-error code", Code(err), err)
	}
	if _, err := sweepFlags(t, "-resume").Options(context.Background()); Code(err) != ExitConfig {
		t.Errorf("Options skipped the -resume check: %v", err)
	}

	sf := sweepFlags(t, "-j", "3", "-journal", "j.jsonl", "-resume")
	opts, err := sf.Options(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if opts.Workers != 3 || opts.Journal != "j.jsonl" || !opts.Resume || opts.Cache != nil || opts.Context == nil {
		t.Errorf("options = %+v", opts)
	}
	if opts.Metrics != nil {
		t.Error("collector attached without -metrics-out or -trace-out")
	}
	if err := sf.Finish("test", os.ErrClosed); err != os.ErrClosed {
		t.Errorf("Finish = %v, want the sweep's own error first", err)
	}

	dir := t.TempDir()
	metrics, trace := filepath.Join(dir, "m.json"), filepath.Join(dir, "t.json")
	sf = sweepFlags(t, "-cache", "-metrics-out", metrics, "-trace-out", trace)
	opts, err = sf.Options(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		opts.Metrics.PointDone(core.PointReport{Index: i})
	}
	if err := sf.Finish("test", nil); err != nil {
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
	if err := dec.Decode(&points); err != nil || len(points.Rows) != 2 {
		t.Errorf("per-point metrics = %+v, %v; want one table of 2 rows", points, err)
	}
	var rep struct {
		Cache map[string]any `json:"cache"`
	}
	if err := dec.Decode(&rep); err != nil || rep.Cache["capacity"] != 4096.0 {
		t.Errorf("cache report after the metrics = %+v, %v", rep.Cache, err)
	}
	if data, err := os.ReadFile(trace); err != nil || !json.Valid(data) {
		t.Errorf("trace file: %v", err)
	}
}
