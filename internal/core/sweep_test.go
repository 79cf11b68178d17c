package core

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"sst/internal/config"
)

func TestSweepOptionsDefaults(t *testing.T) {
	// The zero value is the documented default: GOMAXPROCS workers over
	// the background context, with explicit options taking precedence.
	if got := (SweepOptions{}).workers(); got < 1 {
		t.Fatalf("zero-options workers = %d, want >= 1 (GOMAXPROCS)", got)
	}
	if got := (SweepOptions{Workers: 5}).workers(); got != 5 {
		t.Fatalf("option workers = %d, want 5", got)
	}
	if got := (SweepOptions{Workers: -2}).workers(); got < 1 {
		t.Fatalf("negative workers = %d, want GOMAXPROCS fallback", got)
	}
	if got := (SweepOptions{}).context(); got != context.Background() {
		t.Fatal("zero-options context is not background")
	}
	own, cancel := context.WithCancel(context.Background())
	defer cancel()
	if got := (SweepOptions{Context: own}).context(); got != own {
		t.Fatal("explicit context not honoured")
	}
}

// runFn drives the point executor with a bare per-index function and no
// values — the shape the pool, retry and cancellation tests need.
func runFn(opts SweepOptions, n int, fn func(ctx context.Context, i int) error) ([]error, error) {
	_, errs, err := runGrid(opts, grid[struct{}]{n: n, run: func(ctx context.Context, i int) (struct{}, error) {
		return struct{}{}, fn(ctx, i)
	}})
	return errs, err
}

func TestRunPointsCoversEveryIndexOnce(t *testing.T) {
	for _, workers := range []int{1, 2, 7} {
		const n = 100
		var hits [n]atomic.Int64
		if _, err := runFn(SweepOptions{Workers: workers}, n, func(_ context.Context, i int) error {
			hits[i].Add(1)
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		for i := range hits {
			if got := hits[i].Load(); got != 1 {
				t.Fatalf("workers=%d: point %d ran %d times", workers, i, got)
			}
		}
	}
	if _, err := runFn(SweepOptions{}, 0, func(_ context.Context, _ int) error { t.Error("fn called for n=0"); return nil }); err != nil {
		t.Fatal(err)
	}
}

func TestRunPointsAggregatesErrorsInOrder(t *testing.T) {
	for _, workers := range []int{1, 4} {
		var ran atomic.Int64
		_, err := runFn(SweepOptions{Workers: workers}, 10, func(_ context.Context, i int) error {
			ran.Add(1)
			if i == 3 || i == 7 {
				return fmt.Errorf("point %d failed", i)
			}
			return nil
		})
		if err == nil {
			t.Fatalf("workers=%d: errors swallowed", workers)
		}
		// Failures must not stop the remaining points.
		if ran.Load() != 10 {
			t.Fatalf("workers=%d: only %d points ran after a failure", workers, ran.Load())
		}
		// Aggregated in point order, so the message is deterministic.
		want := "point 3 failed\npoint 7 failed"
		if err.Error() != want {
			t.Fatalf("workers=%d: error = %q, want %q", workers, err.Error(), want)
		}
	}
}

// pointRecorder is a minimal SweepMetrics sink for tests.
type pointRecorder struct {
	mu      sync.Mutex
	reports []PointReport
}

func (r *pointRecorder) PointDone(p PointReport) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.reports = append(r.reports, p)
}

func TestRunPointsReportsMetrics(t *testing.T) {
	rec := &pointRecorder{}
	_, err := runFn(SweepOptions{Workers: 3, Metrics: rec}, 20, func(_ context.Context, i int) error {
		if i == 5 {
			return fmt.Errorf("point 5 failed")
		}
		return nil
	})
	if err == nil {
		t.Fatal("error swallowed")
	}
	if len(rec.reports) != 20 {
		t.Fatalf("got %d reports, want 20", len(rec.reports))
	}
	seen := map[int]bool{}
	for _, p := range rec.reports {
		if seen[p.Index] {
			t.Fatalf("point %d reported twice", p.Index)
		}
		seen[p.Index] = true
		if p.Worker < 0 || p.Worker >= 3 {
			t.Fatalf("point %d reported worker %d", p.Index, p.Worker)
		}
		if p.Wall < 0 || p.Start.IsZero() {
			t.Fatalf("point %d has bogus timing: %+v", p.Index, p)
		}
		if (p.Err != nil) != (p.Index == 5) {
			t.Fatalf("point %d err = %v", p.Index, p.Err)
		}
	}
}

// TestConcurrentSweepDeterminism asserts the headline safety property of
// the concurrent scheduler: a sweep run on several workers — with or
// without per-worker arenas — produces a grid identical — every
// NodeResult field of every point — to the same sweep on one worker, so
// the Fig. 10/11/12 tables are byte-identical at any -j.
func TestConcurrentSweepDeterminism(t *testing.T) {
	apps := []string{"stream", "gups"}
	techs := []string{"ddr3-1333", "gddr5-4000"}
	widths := []int{1, 2}

	// HostSeconds is host wall-clock — the one field allowed to differ
	// between runs.
	normalize := func(r NodeResult) NodeResult {
		r.HostSeconds = 0
		return r
	}
	seq, err := MemTechWidthSweep(apps, techs, widths, Small, SweepOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	// One pool across all the arena runs: arenas warmed by one sweep are
	// handed to the next, exactly how the sweep service reuses them.
	pool := NewArenaPool()
	for _, workers := range []int{2, 4} {
		for _, arenas := range []*ArenaPool{nil, pool} {
			conc, err := MemTechWidthSweep(apps, techs, widths, Small,
				SweepOptions{Workers: workers, Arena: arenas})
			if err != nil {
				t.Fatal(err)
			}
			label := fmt.Sprintf("workers=%d arena=%v", workers, arenas != nil)
			if len(conc.Points) != len(seq.Points) {
				t.Fatalf("%s: %d points, want %d", label, len(conc.Points), len(seq.Points))
			}
			for i := range seq.Points {
				a, b := &seq.Points[i], &conc.Points[i]
				if a.App != b.App || a.Tech != b.Tech || a.Width != b.Width {
					t.Fatalf("%s: point %d is (%s,%s,%d), want (%s,%s,%d)",
						label, i, b.App, b.Tech, b.Width, a.App, a.Tech, a.Width)
				}
				if !reflect.DeepEqual(normalize(*a.Result), normalize(*b.Result)) {
					t.Errorf("%s: point %d (%s/%s/w%d) diverged:\nseq:  %+v\nconc: %+v",
						label, i, a.App, a.Tech, a.Width, *a.Result, *b.Result)
				}
			}
			// The rendered tables must match byte for byte.
			seqTab := Fig10Table(seq, apps, techs, widths, "ddr3-1333").String()
			concTab := Fig10Table(conc, apps, techs, widths, "ddr3-1333").String()
			if seqTab != concTab {
				t.Errorf("%s: Fig10 table differs from sequential render", label)
			}
		}
	}
}

// TestConcurrentSweepsDifferentOptions runs two sweeps with different
// worker counts, contexts and metrics sinks at the same time — the property
// the SweepOptions redesign exists to provide (run with -race).
func TestConcurrentSweepsDifferentOptions(t *testing.T) {
	type out struct {
		grid *DSEGrid
		err  error
	}
	ctxA, cancelA := context.WithCancel(context.Background())
	defer cancelA()
	recA, recB := &pointRecorder{}, &pointRecorder{}
	var wg sync.WaitGroup
	var a, b out
	wg.Add(2)
	go func() {
		defer wg.Done()
		a.grid, a.err = MemTechWidthSweep([]string{"stream"}, []string{"ddr3-1333"}, []int{1, 2}, Small,
			SweepOptions{Workers: 1, Context: ctxA, Metrics: recA})
	}()
	go func() {
		defer wg.Done()
		b.grid, b.err = MemTechWidthSweep([]string{"gups"}, []string{"gddr5-4000"}, []int{1, 2}, Small,
			SweepOptions{Workers: 4, Metrics: recB})
	}()
	wg.Wait()
	if a.err != nil || b.err != nil {
		t.Fatalf("sweep errors: %v / %v", a.err, b.err)
	}
	if len(recA.reports) != 2 || len(recB.reports) != 2 {
		t.Fatalf("metrics crossed sweeps: A saw %d, B saw %d (want 2 each)",
			len(recA.reports), len(recB.reports))
	}
	for _, p := range a.grid.Points {
		if p.App != "stream" {
			t.Fatalf("sweep A got point %q", p.App)
		}
	}
	for _, p := range b.grid.Points {
		if p.App != "gups" {
			t.Fatalf("sweep B got point %q", p.App)
		}
	}
}

// TestDSEGridJSONRoundTrip pins the acceptance criterion for -format json:
// the grid's JSON re-parses and its cells match the rendered table.
func TestDSEGridJSONRoundTrip(t *testing.T) {
	grid, err := MemTechWidthSweep([]string{"stream"}, []string{"ddr3-1333"}, []int{1, 2}, Small, SweepOptions{})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := grid.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var decoded struct {
		Title   string     `json:"title"`
		Columns []string   `json:"columns"`
		Rows    [][]string `json:"rows"`
	}
	if err := json.Unmarshal(buf.Bytes(), &decoded); err != nil {
		t.Fatalf("grid JSON does not re-parse: %v", err)
	}
	tab := grid.Table()
	if len(decoded.Rows) != tab.NumRows() {
		t.Fatalf("JSON has %d rows, table has %d", len(decoded.Rows), tab.NumRows())
	}
	if len(decoded.Columns) == 0 || decoded.Columns[0] != "app" {
		t.Fatalf("columns = %v", decoded.Columns)
	}
	// Every JSON cell must appear verbatim in the rendered table.
	rendered := tab.String()
	for _, row := range decoded.Rows {
		for _, cell := range row {
			if cell == "" {
				continue
			}
			if !bytes.Contains([]byte(rendered), []byte(cell)) {
				t.Errorf("JSON cell %q missing from rendered table", cell)
			}
		}
	}
}

func TestGridFindIndexed(t *testing.T) {
	g := &DSEGrid{}
	for _, app := range []string{"a", "b"} {
		for w := 1; w <= 3; w++ {
			g.Points = append(g.Points, DSEPoint{App: app, Tech: "t", Width: w})
		}
	}
	if p := g.Find("b", "t", 2); p == nil || p.App != "b" || p.Width != 2 {
		t.Fatalf("Find returned %+v", p)
	}
	if g.Find("c", "t", 1) != nil || g.Find("a", "t", 9) != nil {
		t.Fatal("Find fabricated a point")
	}
	// The index must follow appends made after the first lookup.
	g.Points = append(g.Points, DSEPoint{App: "c", Tech: "t", Width: 1})
	if p := g.Find("c", "t", 1); p == nil {
		t.Fatal("Find missed a point appended after indexing")
	}
	// Pointers returned must alias the grid's own points.
	if p := g.Find("a", "t", 1); p != &g.Points[0] {
		t.Fatal("Find returned a copy, not the grid point")
	}
}

func TestRunMachinesBatch(t *testing.T) {
	opts := SweepOptions{Workers: 2}
	cfgA := SweepMachine("stream", "ddr3-1333", 1, Small)
	cfgB := SweepMachine("stream", "gddr5-4000", 1, Small)
	results, err := RunMachines([]*config.MachineConfig{cfgA, cfgB}, opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 2 || results[0] == nil || results[1] == nil {
		t.Fatalf("batch incomplete: %v", results)
	}
	if results[0].Name != cfgA.Name || results[1].Name != cfgB.Name {
		t.Fatalf("batch order broken: %s, %s", results[0].Name, results[1].Name)
	}
	bad := SweepMachine("stream", "ddr3-1333", 1, Small)
	bad.Workload.Kind = "quantum"
	if _, err := RunMachines([]*config.MachineConfig{cfgA, bad}, opts); err == nil {
		t.Fatal("batch error swallowed")
	}
}

// TestPointStackDepth pins the executor's shape: a design point's run
// function sits directly under attempt, which sits directly under the
// pool worker — so a panic stack from inside a DSE point shows three
// internal/core frames above RunMachineCtx (the machine grid's run
// closure, attempt, the worker), not a tower of forwarding layers.
func TestPointStackDepth(t *testing.T) {
	_, err := runFn(SweepOptions{Workers: 1}, 1, func(context.Context, int) error { panic("where am I") })
	if !errors.Is(err, ErrPanicked) {
		t.Fatalf("want a recovered panic, got %v", err)
	}
	var under []string
	for _, line := range strings.Split(err.Error(), "\n") {
		if strings.HasPrefix(line, "sst/internal/core.") && !strings.Contains(line, "TestPointStackDepth") {
			under = append(under, line)
		}
	}
	// runFn's adapter closure stands where machineGrid's run closure does;
	// below it come the deferred recover (where debug.Stack runs) and the
	// two executor frames.
	if len(under) != 4 || !strings.Contains(under[0], "attempt") || !strings.Contains(under[3], "runGrid") {
		t.Fatalf("executor frames under a point = %q, want [attempt's recover, run closure, attempt, worker]", under)
	}
}
