package main

// The perf gate's own contract: benchmark lines parse (and echo through),
// a baseline benchmark missing from the run fails, alloc and byte growth
// beyond 1% fails, ns/op noise inside tolerance passes, benchmarks not yet
// in the baseline are a note, never a failure, and ns/op only fails on the
// host the baseline was recorded on.

import (
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
)

// here is the host of every test run below unless it says otherwise.
var here = host{GOOS: "linux", GOARCH: "amd64", CPU: "Test CPU @ 2.10GHz", GOMAXPROCS: 8, GoVersion: "go1.24.0"}

func ceiling(v float64) *float64 { return &v }

func TestParseBenchLines(t *testing.T) {
	in := strings.Join([]string{
		"goos: linux",
		"goarch: amd64",
		"pkg: sst/internal/sim",
		"cpu: Test CPU @ 2.10GHz",
		"BenchmarkEngineHotLoop-8   \t12345678\t  85.3 ns/op\t  0 B/op\t  0 allocs/op",
		"BenchmarkSweepWorkers/workers=1-8 \t5\t 200000000 ns/op\t 88568526 B/op\t 1869492 allocs/op",
		"BenchmarkNoMem-4 \t100\t 12.5 ns/op",
		"PASS",
	}, "\n")
	var echo strings.Builder
	got, h := parse(strings.NewReader(in), &echo)
	want := here
	want.GOMAXPROCS = 4 // the last -N suffix seen
	want.GoVersion = runtime.Version()
	if h != want {
		t.Errorf("host = %+v, want %+v", h, want)
	}
	if _, h1 := parse(strings.NewReader("BenchmarkA \t1\t 5 ns/op\n"), io.Discard); h1.GOMAXPROCS != 1 {
		t.Errorf("no -N suffix parsed as GOMAXPROCS %d, want 1", h1.GOMAXPROCS)
	}
	if len(got) != 3 {
		t.Fatalf("parsed %d entries, want 3: %v", len(got), got)
	}
	e := got["BenchmarkEngineHotLoop"]
	if e.NsPerOp != 85.3 || e.BytesPerOp != 0 || e.AllocsPerOp != 0 {
		t.Errorf("EngineHotLoop = %+v", e)
	}
	e = got["BenchmarkSweepWorkers/workers=1"]
	if e.NsPerOp != 200000000 || e.AllocsPerOp != 1869492 {
		t.Errorf("SweepWorkers = %+v", e)
	}
	if e := got["BenchmarkNoMem"]; e.NsPerOp != 12.5 || e.BytesPerOp != 0 {
		t.Errorf("NoMem = %+v", e)
	}
	// The raw output passes through untouched for the log.
	if echo.String() != in+"\n" {
		t.Errorf("echo mangled the output:\n%q", echo.String())
	}
}

func TestCompareMissingBenchmarkFails(t *testing.T) {
	base := baseline{Entries: map[string]entry{
		"BenchmarkA": {NsPerOp: 100},
		"BenchmarkB": {NsPerOp: 100},
	}}
	got := map[string]entry{"BenchmarkA": {NsPerOp: 100}}
	var out strings.Builder
	if !compare(base, got, here, 0.25, &out) {
		t.Fatal("missing benchmark passed the gate")
	}
	if !strings.Contains(out.String(), "FAIL BenchmarkB: in baseline but not run") {
		t.Errorf("missing-benchmark verdict absent:\n%s", out.String())
	}
}

func TestCompareAllocAndByteRegressions(t *testing.T) {
	base := baseline{Entries: map[string]entry{
		"BenchmarkZeroAlloc": {NsPerOp: 100, BytesPerOp: 0, AllocsPerOp: 0},
		"BenchmarkHeavy":     {NsPerOp: 100, BytesPerOp: 1000, AllocsPerOp: 100},
	}}
	// A single new allocation on a zero-alloc baseline fails (1% of 0 is 0).
	got := map[string]entry{
		"BenchmarkZeroAlloc": {NsPerOp: 100, BytesPerOp: 16, AllocsPerOp: 1},
		"BenchmarkHeavy":     {NsPerOp: 100, BytesPerOp: 1005, AllocsPerOp: 100},
	}
	var out strings.Builder
	if !compare(base, got, here, 0.25, &out) {
		t.Fatal("alloc regression passed the gate")
	}
	s := out.String()
	if !strings.Contains(s, "FAIL BenchmarkZeroAlloc: 1 allocs/op") {
		t.Errorf("alloc verdict absent:\n%s", s)
	}
	if !strings.Contains(s, "FAIL BenchmarkZeroAlloc: 16 B/op") {
		t.Errorf("bytes verdict absent:\n%s", s)
	}
	// Heavy's +0.5% B/op rides inside the 1% amortization slack.
	if strings.Contains(s, "FAIL BenchmarkHeavy") {
		t.Errorf("within-slack growth failed:\n%s", s)
	}
}

func TestCompareNsTolerance(t *testing.T) {
	base := baseline{Host: &here, Entries: map[string]entry{
		"BenchmarkDefault": {NsPerOp: 100},
		"BenchmarkTight":   {NsPerOp: 100, Tolerance: 0.02},
	}}
	// +20% is inside the 25% default but outside the per-entry 2%.
	got := map[string]entry{
		"BenchmarkDefault": {NsPerOp: 120},
		"BenchmarkTight":   {NsPerOp: 120},
	}
	var out strings.Builder
	if !compare(base, got, here, 0.25, &out) {
		t.Fatal("over-tolerance regression passed the gate")
	}
	s := out.String()
	if !strings.Contains(s, "ok   BenchmarkDefault") {
		t.Errorf("in-tolerance verdict wrong:\n%s", s)
	}
	if !strings.Contains(s, "FAIL BenchmarkTight") {
		t.Errorf("per-entry tolerance not applied:\n%s", s)
	}
	// A faster run always passes.
	out.Reset()
	if compare(base, map[string]entry{
		"BenchmarkDefault": {NsPerOp: 50},
		"BenchmarkTight":   {NsPerOp: 99},
	}, here, 0.25, &out) {
		t.Fatalf("faster run failed the gate:\n%s", out.String())
	}
}

func TestCompareExtraBenchmarkIsNoteNotFailure(t *testing.T) {
	base := baseline{Entries: map[string]entry{"BenchmarkA": {NsPerOp: 100}}}
	got := map[string]entry{
		"BenchmarkA":   {NsPerOp: 100},
		"BenchmarkNew": {NsPerOp: 5},
	}
	var out strings.Builder
	if compare(base, got, here, 0.25, &out) {
		t.Fatalf("extra benchmark failed the gate:\n%s", out.String())
	}
	if !strings.Contains(out.String(), "note: BenchmarkNew not in baseline") {
		t.Errorf("extra-benchmark note absent:\n%s", out.String())
	}
}

func TestParseCeilings(t *testing.T) {
	// Benchmark names carry their own '=' — the ceiling is after the last.
	got, err := parseCeilings("BenchmarkSweepWorkers/workers=4=12000000,BenchmarkSweepCacheMiss=9.5e7")
	if err != nil {
		t.Fatal(err)
	}
	if got["BenchmarkSweepWorkers/workers=4"] != 12000000 {
		t.Errorf("subbench ceiling = %v", got)
	}
	if got["BenchmarkSweepCacheMiss"] != 9.5e7 {
		t.Errorf("scientific-notation ceiling = %v", got)
	}
	if m, err := parseCeilings(""); err != nil || len(m) != 0 {
		t.Errorf("empty flag: %v %v", m, err)
	}
	// Zero is a ceiling, not "none": it is what a 0-alloc loop is held to.
	if m, err := parseCeilings("BenchmarkA=0"); err != nil || len(m) != 1 || m["BenchmarkA"] != 0 {
		t.Errorf("zero ceiling: %v %v", m, err)
	}
	for _, bad := range []string{"=5", "BenchmarkA=", "BenchmarkA=zero", "BenchmarkA=-1", "BenchmarkA"} {
		if _, err := parseCeilings(bad); err == nil {
			t.Errorf("ceiling %q accepted", bad)
		}
	}
}

func TestCompareHardCeilings(t *testing.T) {
	// The run is within the 1% relative slack of its baseline, but above
	// the absolute ceiling: the ceiling must fail it anyway.
	base := baseline{Entries: map[string]entry{
		"BenchmarkWarm": {NsPerOp: 100, BytesPerOp: 20000, AllocsPerOp: 200,
			MaxBytesPerOp: ceiling(20050), MaxAllocsPerOp: ceiling(201)},
	}}
	got := map[string]entry{
		"BenchmarkWarm": {NsPerOp: 100, BytesPerOp: 20100, AllocsPerOp: 202},
	}
	var out strings.Builder
	if !compare(base, got, here, 0.25, &out) {
		t.Fatal("over-ceiling run passed the gate")
	}
	s := out.String()
	if !strings.Contains(s, "FAIL BenchmarkWarm: 20100 B/op exceeds hard ceiling 20050") {
		t.Errorf("bytes ceiling verdict absent:\n%s", s)
	}
	if !strings.Contains(s, "FAIL BenchmarkWarm: 202 allocs/op exceeds hard ceiling 201") {
		t.Errorf("allocs ceiling verdict absent:\n%s", s)
	}
	// Under the ceiling (and the relative slack) passes.
	out.Reset()
	if compare(base, map[string]entry{
		"BenchmarkWarm": {NsPerOp: 100, BytesPerOp: 19000, AllocsPerOp: 199},
	}, here, 0.25, &out) {
		t.Fatalf("under-ceiling run failed:\n%s", out.String())
	}
}

func TestApplyAndCheckCeilings(t *testing.T) {
	entries := map[string]entry{"BenchmarkA": {BytesPerOp: 500, AllocsPerOp: 50}}
	if err := applyCeilings(entries, map[string]float64{"BenchmarkA": 1000},
		map[string]float64{"BenchmarkA": 100}); err != nil {
		t.Fatal(err)
	}
	e := entries["BenchmarkA"]
	if e.MaxBytesPerOp == nil || *e.MaxBytesPerOp != 1000 || e.MaxAllocsPerOp == nil || *e.MaxAllocsPerOp != 100 {
		t.Fatalf("ceilings not applied: %+v", e)
	}
	// A typo'd name must not silently gate nothing.
	if err := applyCeilings(entries, map[string]float64{"BenchmarkTypo": 1}, nil); err == nil {
		t.Error("unknown -max-bytes benchmark accepted")
	}
	if err := applyCeilings(entries, nil, map[string]float64{"BenchmarkTypo": 1}); err == nil {
		t.Error("unknown -max-allocs benchmark accepted")
	}
	// checkCeilings refuses a baseline already above its own ceiling.
	var out strings.Builder
	if checkCeilings(entries, &out) {
		t.Fatalf("healthy baseline refused:\n%s", out.String())
	}
	entries["BenchmarkA"] = entry{BytesPerOp: 2000, AllocsPerOp: 50, MaxBytesPerOp: ceiling(1000)}
	if !checkCeilings(entries, &out) {
		t.Fatal("over-ceiling baseline accepted")
	}
	if !strings.Contains(out.String(), "refusing baseline: BenchmarkA measured 2000 B/op") {
		t.Errorf("refusal verdict absent:\n%s", out.String())
	}
}

// TestCompareZeroCeiling: a ceiling of 0 fails the first allocation even
// when the (regenerated) relative baseline already carries one, and is
// kept apart from "no ceiling" through the JSON round trip.
func TestCompareZeroCeiling(t *testing.T) {
	base := baseline{Host: &here, Entries: map[string]entry{
		"BenchmarkLoop": {NsPerOp: 10, BytesPerOp: 16, AllocsPerOp: 1,
			MaxBytesPerOp: ceiling(0), MaxAllocsPerOp: ceiling(0)},
		"BenchmarkFree": {NsPerOp: 10, BytesPerOp: 16, AllocsPerOp: 1},
	}}
	data, err := json.Marshal(base)
	if err != nil {
		t.Fatal(err)
	}
	var back baseline
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if c := back.Entries["BenchmarkLoop"].MaxAllocsPerOp; c == nil || *c != 0 {
		t.Fatalf("zero ceiling lost in JSON: %s", data)
	}
	if back.Entries["BenchmarkFree"].MaxAllocsPerOp != nil {
		t.Fatalf("absent ceiling became one in JSON: %s", data)
	}
	got := map[string]entry{
		"BenchmarkLoop": {NsPerOp: 10, BytesPerOp: 16, AllocsPerOp: 1},
		"BenchmarkFree": {NsPerOp: 10, BytesPerOp: 16, AllocsPerOp: 1},
	}
	var out strings.Builder
	if !compare(back, got, here, 0.25, &out) {
		t.Fatal("allocation under a zero ceiling passed the gate")
	}
	s := out.String()
	if !strings.Contains(s, "FAIL BenchmarkLoop: 1 allocs/op exceeds hard ceiling 0") ||
		!strings.Contains(s, "FAIL BenchmarkLoop: 16 B/op exceeds hard ceiling 0") {
		t.Errorf("zero-ceiling verdicts absent:\n%s", s)
	}
	if strings.Contains(s, "FAIL BenchmarkFree") {
		t.Errorf("entry without a ceiling failed:\n%s", s)
	}
}

// TestCompareHostGatesNs: the same 2x ns/op regression plus an allocation
// regression, judged on the baseline's host, on another host, and against
// an old baseline that records none. ns/op fails only on the same host;
// the allocation fails everywhere.
func TestCompareHostGatesNs(t *testing.T) {
	entries := map[string]entry{
		"BenchmarkSlow":  {NsPerOp: 100},
		"BenchmarkAlloc": {NsPerOp: 100, AllocsPerOp: 0},
	}
	got := map[string]entry{
		"BenchmarkSlow":  {NsPerOp: 200},
		"BenchmarkAlloc": {NsPerOp: 100, AllocsPerOp: 1},
	}
	other := here
	other.GOMAXPROCS = 2
	for _, tc := range []struct {
		name     string
		recorded *host
		nsMark   string
		note     string
	}{
		{"same host", &here, "FAIL BenchmarkSlow: 200.0 ns/op", ""},
		{"other host", &other, "warn BenchmarkSlow: 200.0 ns/op", "baseline host differs"},
		{"old baseline", nil, "warn BenchmarkSlow: 200.0 ns/op", "baseline records no host"},
	} {
		var out strings.Builder
		failed := compare(baseline{Host: tc.recorded, Entries: entries}, got, here, 0.25, &out)
		s := out.String()
		if !failed || !strings.Contains(s, "FAIL BenchmarkAlloc: 1 allocs/op") {
			t.Errorf("%s: allocation regression did not fail:\n%s", tc.name, s)
		}
		if !strings.Contains(s, tc.nsMark) {
			t.Errorf("%s: want %q in:\n%s", tc.name, tc.nsMark, s)
		}
		if tc.note != "" && !strings.Contains(s, tc.note) {
			t.Errorf("%s: want note %q in:\n%s", tc.name, tc.note, s)
		}
		// With the allocation regression gone, only the same host fails.
		clean := map[string]entry{"BenchmarkSlow": got["BenchmarkSlow"], "BenchmarkAlloc": entries["BenchmarkAlloc"]}
		out.Reset()
		if failed := compare(baseline{Host: tc.recorded, Entries: entries}, clean, here, 0.25, &out); failed != (tc.recorded == &here) {
			t.Errorf("%s: ns-only regression failed = %v:\n%s", tc.name, failed, out.String())
		}
	}
}

// TestBaselineCacheHitSpeedup gates the committed baseline itself: the
// all-hit sweep must stay orders of magnitude below the cold all-miss
// sweep (>=50x ns/op, >=100x B/op). The cold reference is the cache-miss
// benchmark — the sweep-workers path now runs on warm arenas and is
// itself orders of magnitude below cold. A baseline regeneration that
// erodes this means the hit path started doing real work.
func TestBaselineCacheHitSpeedup(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "..", "BENCH_baseline.json"))
	if err != nil {
		t.Fatal(err)
	}
	var base baseline
	if err := json.Unmarshal(data, &base); err != nil {
		t.Fatal(err)
	}
	cold, ok := base.Entries["BenchmarkSweepCacheMiss"]
	if !ok {
		t.Fatal("baseline lacks BenchmarkSweepCacheMiss")
	}
	hit, ok := base.Entries["BenchmarkSweepCacheHit"]
	if !ok {
		t.Fatal("baseline lacks BenchmarkSweepCacheHit")
	}
	if hit.NsPerOp*50 > cold.NsPerOp {
		t.Errorf("cache hit %.0f ns/op is less than 50x below cold %.0f", hit.NsPerOp, cold.NsPerOp)
	}
	if hit.BytesPerOp*100 > cold.BytesPerOp {
		t.Errorf("cache hit %.0f B/op is less than 100x below cold %.0f", hit.BytesPerOp, cold.BytesPerOp)
	}
}

// TestBaselineMemoryDiscipline pins the PR's headline acceptance
// criterion into the committed baseline forever: the warm-arena sweep at
// 4 workers must carry hard ceilings at least 5x below the pre-arena
// cold numbers (88,572,996 B/op and 1,869,553 allocs/op at the time the
// arenas landed), and the cold cache-miss sweep must be ceiling-gated so
// the cold path cannot quietly bloat either.
func TestBaselineMemoryDiscipline(t *testing.T) {
	const (
		preArenaBytes  = 88572996.0
		preArenaAllocs = 1869553.0
	)
	data, err := os.ReadFile(filepath.Join("..", "..", "BENCH_baseline.json"))
	if err != nil {
		t.Fatal(err)
	}
	var base baseline
	if err := json.Unmarshal(data, &base); err != nil {
		t.Fatal(err)
	}
	warm, ok := base.Entries["BenchmarkSweepWorkers/workers=4"]
	if !ok {
		t.Fatal("baseline lacks BenchmarkSweepWorkers/workers=4")
	}
	if warm.MaxBytesPerOp == nil || warm.MaxAllocsPerOp == nil {
		t.Fatalf("workers=4 carries no hard ceilings: %+v", warm)
	}
	if *warm.MaxBytesPerOp*5 > preArenaBytes {
		t.Errorf("workers=4 B/op ceiling %.0f is not 5x below the pre-arena %.0f",
			*warm.MaxBytesPerOp, preArenaBytes)
	}
	if *warm.MaxAllocsPerOp*5 > preArenaAllocs {
		t.Errorf("workers=4 allocs/op ceiling %.0f is not 5x below the pre-arena %.0f",
			*warm.MaxAllocsPerOp, preArenaAllocs)
	}
	miss, ok := base.Entries["BenchmarkSweepCacheMiss"]
	if !ok {
		t.Fatal("baseline lacks BenchmarkSweepCacheMiss")
	}
	if miss.MaxBytesPerOp == nil || miss.MaxAllocsPerOp == nil {
		t.Fatalf("cache-miss sweep carries no hard ceilings: %+v", miss)
	}
	// The event kernel's loops are allocation-free by contract: a ceiling
	// of zero, which -update cannot regenerate away.
	for _, name := range []string{"BenchmarkEngineHotLoop", "BenchmarkClockTick",
		"BenchmarkClockTick8Handlers", "BenchmarkClockTickWithHeap",
		"BenchmarkLaneDispatch/lanes=4", "BenchmarkLaneDispatch/lanes=256"} {
		e, ok := base.Entries[name]
		if !ok {
			t.Errorf("baseline lacks %s", name)
			continue
		}
		if e.MaxBytesPerOp == nil || *e.MaxBytesPerOp != 0 || e.MaxAllocsPerOp == nil || *e.MaxAllocsPerOp != 0 {
			t.Errorf("%s is not held to zero B/op and allocs/op: %+v", name, e)
		}
	}
}
