// benchcheck gates the perf-critical benchmarks against a committed
// baseline. It reads `go test -bench -benchmem` output on stdin and
// compares each benchmark to BENCH_baseline.json:
//
//	go test -run='^$' -bench='EngineHotLoop$' -benchmem ./internal/sim |
//	    go run ./tools/benchcheck -baseline BENCH_baseline.json
//
// allocs/op and B/op are near-deterministic: they may not exceed the
// baseline by more than 1% — which keeps a zero-alloc baseline exactly
// zero, the real contract — with the 1% absorbing per-iteration
// amortization jitter on allocation-heavy benchmarks. ns/op is host-
// dependent, so it only fails beyond the per-entry tolerance (default
// -tol) and only on the host the baseline was recorded on: -update stores
// the host (goos, goarch, cpu model, GOMAXPROCS, Go version) in the
// baseline, and on any other host — or against an old baseline that names
// none — an ns/op excess is printed as a warning while allocs/op, B/op and
// the ceilings still fail. Regenerate with -update to adopt a new host.
//
// Entries may additionally carry absolute hard ceilings (max_bytes_per_op,
// max_allocs_per_op), set with repeated name=value pairs in -max-bytes and
// -max-allocs. A ceiling is the memory-discipline contract for the resident
// sweep service: the run fails the moment B/op or allocs/op exceeds it,
// however the relative baseline has drifted, and -update refuses to commit
// a baseline that is itself above a ceiling. A ceiling of 0 is a ceiling:
// it is how the event kernel's allocation-free loops stay that way across
// regenerations.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"regexp"
	"runtime"
	"sort"
	"strconv"
	"strings"
)

type entry struct {
	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  float64 `json:"bytes_per_op"`
	AllocsPerOp float64 `json:"allocs_per_op"`
	// Tolerance is the allowed fractional ns/op regression for this entry
	// (0.02 = 2%). Zero means use the -tol flag's default.
	Tolerance float64 `json:"tolerance,omitempty"`
	// MaxBytesPerOp and MaxAllocsPerOp are absolute hard ceilings — the
	// memory-discipline contract, set with -max-bytes/-max-allocs. When
	// set (nil is "none"; 0 is a ceiling of zero), a run above the
	// ceiling fails no matter how the relative baseline has drifted, and
	// -update refuses to commit a baseline above it. Preserved across
	// -update like Tolerance.
	MaxBytesPerOp  *float64 `json:"max_bytes_per_op,omitempty"`
	MaxAllocsPerOp *float64 `json:"max_allocs_per_op,omitempty"`
}

// host is what ns/op depends on besides the code: the facts `go test
// -bench` prints in its header and in the -N benchmark-name suffix, plus
// the toolchain. benchcheck runs under the same `go` as the benchmarks,
// so its own runtime.Version is theirs.
type host struct {
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	CPU        string `json:"cpu"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
}

func (h host) String() string {
	return fmt.Sprintf("%s/%s, %s, GOMAXPROCS %d, %s", h.GOOS, h.GOARCH, h.CPU, h.GOMAXPROCS, h.GoVersion)
}

type baseline struct {
	// Note records how to regenerate the file.
	Note string `json:"note"`
	// Host is where the ns/op figures were measured; nil in baselines
	// written before hosts were recorded.
	Host    *host            `json:"host,omitempty"`
	Entries map[string]entry `json:"entries"`
}

// benchLine matches e.g.
//
//	BenchmarkEngineHotLoop-8   12345678   85.3 ns/op   0 B/op   0 allocs/op
var benchLine = regexp.MustCompile(
	`^(Benchmark\S+?)(?:-(\d+))?\s+\d+\s+([\d.]+) ns/op(?:\s+([\d.]+) B/op)?(?:\s+([\d.]+) allocs/op)?`)

// parse reads `go test -bench` output, echoing every line to echo (the
// raw output passes through for the log) and collecting the benchmark
// measurements by name and the host they were taken on.
func parse(r io.Reader, echo io.Writer) (map[string]entry, host) {
	got := map[string]entry{}
	// go test omits the -N suffix exactly when GOMAXPROCS is 1.
	h := host{GOMAXPROCS: 1, GoVersion: runtime.Version()}
	header := []struct {
		prefix string
		field  *string
	}{{"goos: ", &h.GOOS}, {"goarch: ", &h.GOARCH}, {"cpu: ", &h.CPU}}
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		line := sc.Text()
		fmt.Fprintln(echo, line)
		for _, hd := range header {
			if v, ok := strings.CutPrefix(line, hd.prefix); ok {
				*hd.field = v
			}
		}
		m := benchLine.FindStringSubmatch(line)
		if m == nil {
			continue
		}
		f := func(s string) float64 {
			v, _ := strconv.ParseFloat(s, 64)
			return v
		}
		if m[2] != "" {
			h.GOMAXPROCS, _ = strconv.Atoi(m[2])
		}
		got[m[1]] = entry{NsPerOp: f(m[3]), BytesPerOp: f(m[4]), AllocsPerOp: f(m[5])}
	}
	return got, h
}

// compare applies the gate: every baseline entry must be present in the
// run (a missing benchmark fails — a renamed or silently-skipped benchmark
// must not pass the gate by absence), allocs/op and B/op may not exceed
// the baseline by more than 1%, and ns/op may not regress beyond the
// entry's tolerance (defTol when the entry sets none) — a failure when
// this run's host cur is the one the baseline records, a warning when it
// is another or the baseline records none. Verdict lines go to w; the
// return value reports whether any entry failed.
func compare(base baseline, got map[string]entry, cur host, defTol float64, w io.Writer) bool {
	sameHost := base.Host != nil && *base.Host == cur
	switch {
	case base.Host == nil:
		fmt.Fprintf(w, "benchcheck: note: baseline records no host; ns/op regressions only warn (this run: %s)\n", cur)
	case !sameHost:
		fmt.Fprintf(w, "benchcheck: note: baseline host differs; ns/op regressions only warn\n  baseline: %s\n  this run: %s\n", *base.Host, cur)
	}
	names := make([]string, 0, len(base.Entries))
	for name := range base.Entries {
		names = append(names, name)
	}
	sort.Strings(names)

	failed := false
	for _, name := range names {
		want := base.Entries[name]
		have, ok := got[name]
		if !ok {
			fmt.Fprintf(w, "benchcheck: FAIL %s: in baseline but not run\n", name)
			failed = true
			continue
		}
		if have.AllocsPerOp > want.AllocsPerOp*1.01 {
			fmt.Fprintf(w, "benchcheck: FAIL %s: %.0f allocs/op, baseline %.0f\n",
				name, have.AllocsPerOp, want.AllocsPerOp)
			failed = true
		}
		if have.BytesPerOp > want.BytesPerOp*1.01 {
			fmt.Fprintf(w, "benchcheck: FAIL %s: %.0f B/op, baseline %.0f\n",
				name, have.BytesPerOp, want.BytesPerOp)
			failed = true
		}
		if c := want.MaxAllocsPerOp; c != nil && have.AllocsPerOp > *c {
			fmt.Fprintf(w, "benchcheck: FAIL %s: %.0f allocs/op exceeds hard ceiling %.0f\n",
				name, have.AllocsPerOp, *c)
			failed = true
		}
		if c := want.MaxBytesPerOp; c != nil && have.BytesPerOp > *c {
			fmt.Fprintf(w, "benchcheck: FAIL %s: %.0f B/op exceeds hard ceiling %.0f\n",
				name, have.BytesPerOp, *c)
			failed = true
		}
		t := want.Tolerance
		if t == 0 {
			t = defTol
		}
		if want.NsPerOp > 0 {
			delta := have.NsPerOp/want.NsPerOp - 1
			mark := "ok  "
			switch {
			case delta > t && sameHost:
				mark = "FAIL"
				failed = true
			case delta > t:
				mark = "warn"
			}
			fmt.Fprintf(w, "benchcheck: %s %s: %.1f ns/op vs baseline %.1f (%+.1f%%, tol %.0f%%)\n",
				mark, name, have.NsPerOp, want.NsPerOp, 100*delta, 100*t)
		}
	}
	for name := range got {
		if _, ok := base.Entries[name]; !ok {
			fmt.Fprintf(w, "benchcheck: note: %s not in baseline (add with -update)\n", name)
		}
	}
	return failed
}

// parseCeilings parses a -max-bytes/-max-allocs value: comma-separated
// name=ceiling pairs. Benchmark names themselves contain '='
// (BenchmarkSweepWorkers/workers=4), so the ceiling starts after the
// LAST '=' of each pair.
func parseCeilings(s string) (map[string]float64, error) {
	out := map[string]float64{}
	if s == "" {
		return out, nil
	}
	for _, pair := range strings.Split(s, ",") {
		i := strings.LastIndex(pair, "=")
		if i <= 0 || i == len(pair)-1 {
			return nil, fmt.Errorf("bad ceiling %q, want name=value", pair)
		}
		v, err := strconv.ParseFloat(pair[i+1:], 64)
		if err != nil || v < 0 {
			return nil, fmt.Errorf("bad ceiling value in %q", pair)
		}
		out[pair[:i]] = v
	}
	return out, nil
}

// applyCeilings writes the flag-supplied hard ceilings into entries,
// overriding any committed ones. A ceiling naming a benchmark that is
// not in entries is an error: a typo must not silently gate nothing.
func applyCeilings(entries map[string]entry, maxBytes, maxAllocs map[string]float64) error {
	for name, v := range maxBytes {
		e, ok := entries[name]
		if !ok {
			return fmt.Errorf("-max-bytes names unknown benchmark %q", name)
		}
		e.MaxBytesPerOp = &v
		entries[name] = e
	}
	for name, v := range maxAllocs {
		e, ok := entries[name]
		if !ok {
			return fmt.Errorf("-max-allocs names unknown benchmark %q", name)
		}
		e.MaxAllocsPerOp = &v
		entries[name] = e
	}
	return nil
}

// checkCeilings rejects a baseline whose measured values already sit
// above their own ceilings — `-update` must never commit a baseline
// the very next `bench` run would fail.
func checkCeilings(entries map[string]entry, w io.Writer) bool {
	bad := false
	for name, e := range entries {
		if c := e.MaxBytesPerOp; c != nil && e.BytesPerOp > *c {
			fmt.Fprintf(w, "benchcheck: refusing baseline: %s measured %.0f B/op above its hard ceiling %.0f\n",
				name, e.BytesPerOp, *c)
			bad = true
		}
		if c := e.MaxAllocsPerOp; c != nil && e.AllocsPerOp > *c {
			fmt.Fprintf(w, "benchcheck: refusing baseline: %s measured %.0f allocs/op above its hard ceiling %.0f\n",
				name, e.AllocsPerOp, *c)
			bad = true
		}
	}
	return bad
}

func main() {
	baselinePath := flag.String("baseline", "BENCH_baseline.json", "baseline file")
	update := flag.Bool("update", false, "rewrite the baseline from this run instead of comparing")
	tol := flag.Float64("tol", 0.25, "default allowed fractional ns/op regression")
	maxBytesFlag := flag.String("max-bytes", "",
		"comma-separated name=ceiling pairs: absolute B/op hard ceilings (committed by -update)")
	maxAllocsFlag := flag.String("max-allocs", "",
		"comma-separated name=ceiling pairs: absolute allocs/op hard ceilings (committed by -update)")
	flag.Parse()

	maxBytes, err := parseCeilings(*maxBytesFlag)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchcheck: -max-bytes:", err)
		os.Exit(1)
	}
	maxAllocs, err := parseCeilings(*maxAllocsFlag)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchcheck: -max-allocs:", err)
		os.Exit(1)
	}

	got, cur := parse(os.Stdin, os.Stdout)
	if len(got) == 0 {
		fmt.Fprintln(os.Stderr, "benchcheck: no benchmark lines on stdin")
		os.Exit(1)
	}

	if *update {
		// Preserve per-entry tolerances and hard ceilings across
		// regeneration; flag-supplied ceilings override committed ones.
		var old baseline
		if data, err := os.ReadFile(*baselinePath); err == nil {
			_ = json.Unmarshal(data, &old)
		}
		out := baseline{
			Note:    "regenerate with: make bench-baseline",
			Host:    &cur,
			Entries: got,
		}
		for name, e := range out.Entries {
			if prev, ok := old.Entries[name]; ok {
				e.Tolerance = prev.Tolerance
				e.MaxBytesPerOp = prev.MaxBytesPerOp
				e.MaxAllocsPerOp = prev.MaxAllocsPerOp
				out.Entries[name] = e
			}
		}
		if err := applyCeilings(out.Entries, maxBytes, maxAllocs); err != nil {
			fmt.Fprintln(os.Stderr, "benchcheck:", err)
			os.Exit(1)
		}
		if checkCeilings(out.Entries, os.Stderr) {
			os.Exit(1)
		}
		data, err := json.MarshalIndent(out, "", "  ")
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchcheck:", err)
			os.Exit(1)
		}
		if err := os.WriteFile(*baselinePath, append(data, '\n'), 0o644); err != nil {
			fmt.Fprintln(os.Stderr, "benchcheck:", err)
			os.Exit(1)
		}
		fmt.Printf("benchcheck: wrote %s (%d entries, host %s)\n", *baselinePath, len(got), cur)
		return
	}

	data, err := os.ReadFile(*baselinePath)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchcheck: %v (run with -update to create)\n", err)
		os.Exit(1)
	}
	var base baseline
	if err := json.Unmarshal(data, &base); err != nil {
		fmt.Fprintf(os.Stderr, "benchcheck: bad baseline: %v\n", err)
		os.Exit(1)
	}
	if err := applyCeilings(base.Entries, maxBytes, maxAllocs); err != nil {
		fmt.Fprintln(os.Stderr, "benchcheck:", err)
		os.Exit(1)
	}

	if compare(base, got, cur, *tol, os.Stderr) {
		os.Exit(1)
	}
}
