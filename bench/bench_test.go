package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"

	"sst/internal/leakcheck"
)

// benchmarkJSON is BENCHMARK.json as the driver reads it.
type benchmarkJSON struct {
	Workloads []struct{ Name, Why string }
	EndToEnd  []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
}

func readBenchmark(t *testing.T) benchmarkJSON {
	t.Helper()
	var bm benchmarkJSON
	if err := readJSON(filepath.Join("..", "BENCHMARK.json"), &bm); err != nil {
		t.Fatal(err)
	}
	return bm
}

// runTiny runs one workload in-process at smoke-test sizes and returns its
// result line and detail.
func runTiny(t *testing.T, args ...string) (resultLine, runDetail) {
	t.Helper()
	dir := t.TempDir()
	detail := filepath.Join(dir, "detail.json")
	var stdout, stderr bytes.Buffer
	args = append([]string{"-tiny", "-seconds", "0.05", "-detail", detail, "-out", dir}, args...)
	if code := run(args, &stdout, &stderr); code != 0 {
		t.Fatalf("bench %v: exit %d\n%s%s", args, code, stdout.String(), stderr.String())
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var line resultLine
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &line); err != nil {
		t.Fatalf("last line of stdout is not the result: %v\n%s", err, stdout.String())
	}
	var d runDetail
	if err := readJSON(detail, &d); err != nil {
		t.Fatal(err)
	}
	return line, d
}

// checkMetrics requires line to hold exactly the named metrics, each with
// its unit from BENCHMARK.json.
func checkMetrics(t *testing.T, line resultLine, want map[string]string) {
	t.Helper()
	got := map[string]string{}
	for name, m := range line.Metrics {
		got[name] = m.Unit
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("metrics emitted: %v\nBENCHMARK.json names: %v", got, want)
	}
	if !line.Correct || line.Failed != 0 || line.Attempted < 1 {
		t.Errorf("correct=%v attempted=%d failed=%d", line.Correct, line.Attempted, line.Failed)
	}
}

// TestSmoke runs every workload, untraced and traced, at tiny sizes, and
// holds the program and BENCHMARK.json together: the same workloads, the
// same metric names and units, nothing unnamed.
func TestSmoke(t *testing.T) {
	leakcheck.Check(t)
	bm := readBenchmark(t)
	e2e, layers := map[string]string{}, map[string]string{}
	for _, m := range bm.EndToEnd {
		e2e[m.Name] = m.Unit
	}
	for _, m := range bm.PerLayer {
		layers[m.Name] = m.Unit
	}
	var names []string
	for _, wl := range workloads(false) {
		names = append(names, wl.name)
	}
	var declared []string
	for _, wl := range bm.Workloads {
		declared = append(declared, wl.Name)
	}
	if !reflect.DeepEqual(names, declared) {
		t.Fatalf("workloads %v, BENCHMARK.json declares %v", names, declared)
	}

	for _, name := range names {
		line, d := runTiny(t, "-workload", name, "-trace", "0")
		checkMetrics(t, line, e2e)
		for metric, m := range line.Metrics {
			if m.Value <= 0 {
				t.Errorf("%s: %s = %v, want > 0", name, metric, m.Value)
			}
		}
		hits, misses := d.Extra["cache_hits"], d.Extra["cache_misses"]
		switch name {
		case "serve.hot":
			if misses != 0 || hits == 0 {
				t.Errorf("serve.hot after warm-up: %v hits, %v misses; want all hits", hits, misses)
			}
		case "serve.cold":
			if hits != 0 || misses == 0 {
				t.Errorf("serve.cold: %v hits, %v misses; want all misses", hits, misses)
			}
		}
		if d.Host.NProc < 1 || d.Host.GoVersion == "" || d.Host.W < 1 {
			t.Errorf("%s: host facts missing: %+v", name, d.Host)
		}

		line, d = runTiny(t, "-workload", name, "-trace", "1")
		checkMetrics(t, line, layers)
		for _, row := range d.Layers {
			if row.SelfMS < 0 || row.SelfMS > row.BusyMS+1e-9 {
				t.Errorf("%s: span %q self %v ms outside [0, busy %v ms]", name, row.Name, row.SelfMS, row.BusyMS)
			}
		}
	}
}

// TestTraceNests loads a written Chrome trace and checks every span lies
// inside its parent.
func TestTraceNests(t *testing.T) {
	leakcheck.Check(t)
	dir := t.TempDir()
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-tiny", "-seconds", "0.05", "-workload", "serve.hot", "-trace", "1", "-out", dir}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d\n%s", code, stderr.String())
	}
	var trace struct {
		TraceEvents []struct {
			Name    string
			Ts, Dur float64
			Args    struct {
				Span, Parent int
				ID           string
			}
		}
	}
	if err := readJSON(filepath.Join(dir, "trace-serve.hot.json"), &trace); err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	for i, e := range trace.TraceEvents {
		seen[e.Name] = true
		if e.Args.Span != i {
			t.Fatalf("event %d carries span id %d", i, e.Args.Span)
		}
		if e.Args.Parent < 0 {
			continue
		}
		p := trace.TraceEvents[e.Args.Parent]
		const slack = 0.002 // µs: timestamps are printed to the nanosecond
		if e.Ts < p.Ts-slack || e.Ts+e.Dur > p.Ts+p.Dur+slack {
			t.Errorf("%s [%v+%v] leaves its parent %s [%v+%v]", e.Name, e.Ts, e.Dur, p.Name, p.Ts, p.Dur)
		}
		if strings.HasPrefix(e.Name, "fs.") && p.Name == "job" && e.Args.ID != p.Args.ID {
			t.Errorf("%s of job %s filed under job %s", e.Name, e.Args.ID, p.Args.ID)
		}
	}
	for _, want := range []string{"workload", "round", "setup", "rep", "job", "submit", "exec", "fetch", "fs.write", "point.run"} {
		if !seen[want] {
			t.Errorf("trace has no %q span", want)
		}
	}
}

// TestSelfTime: parallel children are unioned, not summed, and children
// are clipped to their parent.
func TestSelfTime(t *testing.T) {
	r := newRecorder()
	at := func(ms int) time.Time { return r.t0.Add(time.Duration(ms) * time.Millisecond) }
	ms := func(n int) time.Duration { return time.Duration(n) * time.Millisecond }
	root := r.add(noParent, "root", "", 0, at(0), ms(100))
	r.add(root, "a", "", 1, at(10), ms(30)) // 10–40
	r.add(root, "b", "", 2, at(20), ms(40)) // 20–60, overlaps a
	r.add(root, "c", "", 1, at(90), ms(20)) // 90–110, clipped at 100
	late := r.add(byGroup, "fs", "job-1", 0, at(12), ms(3))
	r.bindJob("job-1", 1)
	spans, self := r.finish(root)
	if got := self[root]; got != ms(40) {
		t.Errorf("root self = %v, want 40ms (100 − [10,60] − [90,100])", got)
	}
	if spans[late].parent != 1 || self[1] != ms(27) {
		t.Errorf("deferred span: parent %d, job self %v; want parent 1, 27ms", spans[late].parent, self[1])
	}
}

// TestSeedReordersOnly: the seed permutes serve.cold's jobs and nothing
// else — same set, and every digest still matches the goldens.
func TestSeedReordersOnly(t *testing.T) {
	leakcheck.Check(t)
	a, b := shuffled(84, 84, 1, 0), shuffled(84, 84, 2, 0)
	if reflect.DeepEqual(a, b) {
		t.Error("seeds 1 and 2 give the same job order")
	}
	sort.Ints(a)
	sort.Ints(b)
	if !reflect.DeepEqual(a, b) {
		t.Error("seeds 1 and 2 give different job sets")
	}
	for _, seed := range []string{"1", "2"} {
		line, _ := runTiny(t, "-workload", "serve.cold", "-trace", "0", "-seed", seed)
		if !line.Correct || line.Failed != 0 {
			t.Errorf("seed %s: correct=%v failed=%d", seed, line.Correct, line.Failed)
		}
	}
}

func TestQuartiles(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q3, ok := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if !ok || q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles = %v, %v, %v; want 2.75, 8.25", q1, q3, ok)
	}
}

// TestCompare: a median worse than the bound regresses, a spread wider
// than the bound is unresolved, another host is not gated, and a changed
// count regresses on any host.
func TestCompare(t *testing.T) {
	dir := t.TempDir()
	doc := func(name string, mutate func(*document)) string {
		d := document{Host: hostFacts{CPUModel: "cpu", NProc: 2}, Workloads: map[string]*workloadDoc{}}
		for _, wl := range workloads(false) {
			wd := &workloadDoc{Traced: &runDetail{}}
			for i := 0; i < 3; i++ {
				r := runDetail{Extra: map[string]float64{"ops": 100, "reps": 4}}
				r.Correct = true
				for _, m := range endToEnd {
					r.set(m, 100+float64(i))
				}
				wd.Runs = append(wd.Runs, r)
			}
			for _, c := range countMetrics {
				wd.Traced.set(c, 7)
			}
			wd.summarize()
			d.Workloads[wl.name] = wd
		}
		mutate(&d)
		b, err := json.Marshal(d)
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, b, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	base := doc("a.json", func(*document) {})
	for _, tc := range []struct {
		name   string
		mutate func(*document)
		code   int
		want   string
	}{
		{"same", func(*document) {}, 0, "ok"},
		{"slower", func(d *document) { d.Workloads["dse.gups"].Median["points_per_s"] = 50 }, 1, "regressed"},
		{"noisy", func(d *document) {
			d.Workloads["dse.gups"].Median["points_per_s"] = 50
			d.Workloads["dse.gups"].Spread["points_per_s"] = 0.9
		}, 0, "unresolved"},
		{"other host", func(d *document) {
			d.Host.NProc = 64
			d.Workloads["dse.gups"].Median["points_per_s"] = 50
		}, 0, "other-host"},
		{"count changed", func(d *document) {
			d.Host.NProc = 64
			d.Workloads["serve.hot"].Traced.set("iofault.fsyncs_per_job", 8)
		}, 1, "count differs"},
	} {
		var stdout, stderr bytes.Buffer
		code := run([]string{"-benchmark", filepath.Join("..", "BENCHMARK.json"), "-compare", base, doc("b.json", tc.mutate)}, &stdout, &stderr)
		if code != tc.code || !strings.Contains(stdout.String(), tc.want) {
			t.Errorf("%s: exit %d, want %d and %q in:\n%s%s", tc.name, code, tc.code, tc.want, stdout.String(), stderr.String())
		}
	}
}
