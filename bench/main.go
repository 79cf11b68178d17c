// Command bench is the repository's benchmark: five workloads, from the
// event queue up to a job submitted to sst-serve and read back as a result
// CSV, measured end to end (tracing off) and layer by layer (a separate
// traced run). BENCHMARK.json at the repository root names the command,
// the workloads and every metric with its regression bound;
// bench/README.md explains each choice.
//
//	bash bench/run.sh --workload dse.paper --seed 1 --seconds 12 --trace 0
//	go run ./bench                       # every workload, one JSON document
//	go run ./bench -runs 10 -trace 1     # ten seeds each, plus a traced run
//	go run ./bench -compare A.json B.json
//	go run ./bench -update-golden
//
// The program imports sst/internal/... and calls exported functions only;
// every layer is timed from outside.
package main

import (
	_ "embed"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"slices"
	"sort"
	"strings"
	"syscall"
	"text/tabwriter"
	"time"

	"sst/internal/core"
)

//go:embed golden.json
var goldenJSON []byte

// endToEnd lists the metrics of an untraced run; units has every metric.
// BENCHMARK.json repeats both, and the smoke test holds them together.
var endToEnd = []string{"setup_s", "points_per_s", "job_p50_ms", "job_p95_ms", "peak_rss_mb"}

var units = map[string]string{
	"setup_s": "s", "points_per_s": "1/s", "job_p50_ms": "ms", "job_p95_ms": "ms", "peak_rss_mb": "MiB",

	"sim.queue_ns_per_event": "ns", "sim.clock_ns_per_tick": "ns", "cpu.ns_per_instr": "ns",
	"mem.hit_ns_per_access": "ns", "mem.miss_ns_per_access": "ns", "dram.ns_per_access": "ns",
	"noc.ns_per_msg":          "ns",
	"core.build_ms_per_point": "ms", "core.run_ms_per_point": "ms", "core.host_ns_per_event": "ns",
	"core.sched_efficiency": "ratio", "core.executor_us_per_point": "us", "core.journal_us_per_record": "us",
	"cache.get_ns": "ns", "cache.put_ns": "ns", "cache.hit_ratio": "ratio", "config.hash_us": "us",
	"serve.submit_ms": "ms", "serve.exec_ms": "ms", "serve.fetch_ms": "ms", "serve.shed": "count",
	"iofault.ops_per_job": "count", "iofault.fsyncs_per_job": "count", "iofault.bytes_per_job": "bytes",
	"iofault.ms_per_job": "ms",
	"trace_overhead":     "ratio", "sim_events": "count", "sim_retired": "count",
}

// countMetrics are the per-layer metrics that must repeat exactly between
// two runs of one commit; -compare checks them for equality. Bytes written
// are not among them: journal records carry the point's host seconds, whose
// decimal length varies.
var countMetrics = []string{"sim_events", "sim_retired", "cache.hit_ratio",
	"iofault.ops_per_job", "iofault.fsyncs_per_job"}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// resultLine is the last line of a run's standard output.
type resultLine struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// runDetail is everything one run knows: the result line plus the host it
// ran on and the numbers behind the metrics.
type runDetail struct {
	Workload string `json:"workload"`
	Trace    bool   `json:"trace"`
	resultLine
	Extra  map[string]float64 `json:"extra"`
	Layers []layerRow         `json:"layers,omitempty"`
	Host   hostFacts          `json:"host"`
}

// hostFacts is what -compare needs to tell a regression from another
// machine.
type hostFacts struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	CPUModel   string `json:"cpu_model"`
	GoVersion  string `json:"go_version"`
	OSArch     string `json:"goos_goarch"`
	Kernel     string `json:"kernel"`
	StateFS    string `json:"state_fs"`
	GitCommit  string `json:"git_commit"`
	Seed       uint64 `json:"seed"`
	W          int    `json:"W"`
}

func host(seed uint64, w int) hostFacts {
	h := hostFacts{
		NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), CPUModel: "unknown",
		GoVersion: runtime.Version(), OSArch: runtime.GOOS + "/" + runtime.GOARCH, Kernel: "unknown",
		StateFS: "iofault.MemFS (process memory), fsync counted but not issued", GitCommit: "unknown", Seed: seed, W: w,
	}
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				h.CPUModel = strings.TrimSpace(v)
				break
			}
		}
	}
	if b, err := os.ReadFile("/proc/sys/kernel/osrelease"); err == nil {
		h.Kernel = strings.TrimSpace(string(b))
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		dirty := ""
		for _, s := range bi.Settings {
			switch {
			case s.Key == "vcs.revision":
				h.GitCommit = s.Value
			case s.Key == "vcs.modified" && s.Value == "true":
				dirty = "+dirty"
			}
		}
		h.GitCommit += dirty
	}
	return h
}

type options struct {
	workload        string
	seed            uint64
	seconds         float64
	trace           int
	tiny            bool
	runs            int
	detail          string
	outDir          string
	compare, update bool
	goldenPath      string
	benchmarkPath   string
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is main with its streams and exit code as values, so the smoke test
// can drive the whole program in-process.
func run(args []string, stdout, stderr io.Writer) int {
	var o options
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.StringVar(&o.workload, "workload", "all", "workload `name`, or all: one fresh process per workload, one JSON document")
	fs.Uint64Var(&o.seed, "seed", 1, "workload seed: job order and probe inputs")
	fs.Float64Var(&o.seconds, "seconds", 12, "measure until the timed reps add up to this many seconds")
	fs.IntVar(&o.trace, "trace", 0, "1: the traced run, which reports the per-layer metrics")
	fs.BoolVar(&o.tiny, "tiny", false, "smoke-test sizes")
	fs.IntVar(&o.runs, "runs", 1, "with -workload all: untraced runs per workload, seeds seed..seed+runs-1")
	fs.StringVar(&o.detail, "detail", "", "also write the run's full detail (host facts, sample counts) to this `file`")
	fs.StringVar(&o.outDir, "out", filepath.Join("bench", "out"), "`dir` for trace files")
	fs.BoolVar(&o.compare, "compare", false, "compare two documents: -compare A.json B.json")
	fs.BoolVar(&o.update, "update-golden", false, "recompute every golden digest and rewrite -golden")
	fs.StringVar(&o.goldenPath, "golden", filepath.Join("bench", "golden.json"), "`file` -update-golden writes")
	fs.StringVar(&o.benchmarkPath, "benchmark", "BENCHMARK.json", "`file` -compare reads the bounds from")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	var err error
	switch {
	case o.compare:
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "bench: -compare takes two documents: -compare A.json B.json")
			return 2
		}
		var regressed bool
		if regressed, err = compareFiles(stdout, o.benchmarkPath, fs.Arg(0), fs.Arg(1)); err == nil && regressed {
			return 1
		}
	case o.update:
		err = updateGolden(o)
	case o.workload == "all":
		var ok bool
		if ok, err = runAll(o, stdout, stderr); err == nil && !ok {
			return 1
		}
	default:
		var d *runDetail
		if d, err = runOne(o, stdout); err == nil && !d.Correct {
			return 1
		}
	}
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	return 0
}

// runOne measures one workload in this process and prints its result line.
func runOne(o options, stdout io.Writer) (*runDetail, error) {
	var wl *workload
	for _, w := range workloads(o.tiny) {
		if w.name == o.workload {
			wl = w
		}
	}
	if wl == nil {
		return nil, fmt.Errorf("unknown workload %q", o.workload)
	}
	h := &harness{workers: min(2, runtime.NumCPU()), seed: o.seed, tiny: o.tiny}
	if err := json.Unmarshal(goldenJSON, &h.golden); err != nil {
		return nil, fmt.Errorf("golden.json: %w", err)
	}

	d := &runDetail{Workload: wl.name, Trace: o.trace == 1, Host: host(o.seed, h.workers), Extra: map[string]float64{}}
	var m *measured
	var err error
	if d.Trace {
		m, err = h.traced(wl, o, d, stdout)
	} else {
		minRounds := 3
		if o.tiny {
			minRounds = 1
		}
		if m, err = h.measure(wl, o.seconds, minRounds, nil, noParent); err == nil {
			d.set("setup_s", median(m.setupS))
			d.set("points_per_s", float64(wl.pointsPerRep())/median(m.repS))
			d.set("job_p50_ms", median(m.p50MS))
			d.set("job_p95_ms", median(m.p95MS))
			d.set("peak_rss_mb", peakRSSMiB())
		}
	}
	if err != nil {
		return nil, err
	}
	d.Attempted, d.Failed = m.attempted, m.failed
	d.Correct = m.failed == 0 && m.warmFailed == 0 && !m.countsVary
	if wl.pool != nil {
		// serve.hot may miss nothing after warm-up; serve.cold may hit nothing.
		d.Correct = d.Correct && ((wl.allHits && m.cacheMisses == 0) || (!wl.allHits && m.cacheHits == 0))
	}
	for k, v := range map[string]float64{
		"ops": float64(m.attempted), "warm_failed": float64(m.warmFailed),
		"rounds": float64(len(m.setupS)), "reps": float64(len(m.repS)), "latency_samples": float64(m.samples),
		"points_per_rep": float64(wl.pointsPerRep()), "rep_wall_s": median(m.repS),
		"cache_hits": float64(m.cacheHits), "cache_misses": float64(m.cacheMisses),
	} {
		d.Extra[k] = v
	}
	if o.detail != "" {
		b, err := json.MarshalIndent(d, "", "  ")
		if err != nil {
			return nil, err
		}
		if err := os.WriteFile(o.detail, b, 0o644); err != nil {
			return nil, err
		}
	}
	line, err := json.Marshal(d.resultLine)
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(stdout, "%s\n", line)
	return d, nil
}

func (d *runDetail) set(name string, v float64) {
	if d.Metrics == nil {
		d.Metrics = map[string]metric{}
	}
	d.Metrics[name] = metric{Value: v, Unit: units[name]}
}

func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if n := len(s); n%2 == 0 {
		return (s[n/2-1] + s[n/2]) / 2
	}
	return s[len(s)/2]
}

// percentile is the nearest-rank p-th percentile of v.
func percentile(v []float64, p float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return s[max(int(math.Ceil(p/100*float64(len(s))))-1, 0)]
}

// peakRSSMiB is the process's maximum resident set so far.
func peakRSSMiB() float64 {
	var ru syscall.Rusage
	if syscall.Getrusage(syscall.RUSAGE_SELF, &ru) != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// traced is the --trace 1 run: an untraced reference window, the same
// window again with spans recorded, a direct build/run/close pass, the
// one-worker rep behind the scheduler efficiency, and the layer probes. It
// fills d with every per-layer metric, writes the Chrome trace and prints
// the per-layer table. Metrics that do not apply to the workload are 0.
func (h *harness) traced(wl *workload, o options, d *runDetail, stdout io.Writer) (*measured, error) {
	base, err := h.measure(wl, o.seconds/3, 1, nil, noParent)
	if err != nil {
		return nil, err
	}
	rec := newRecorder()
	root := rec.begin(noParent, "workload", wl.name, 0)
	m, err := h.measure(wl, o.seconds/3, 1, rec, root)
	if err != nil {
		return nil, err
	}
	build, runMS, nsPerEvent, err := directPass(wl, h.tiny, rec, root)
	if err != nil {
		return nil, err
	}
	rec.end(root)

	for name := range units {
		if !slices.Contains(endToEnd, name) {
			d.set(name, 0)
		}
	}
	probes, err := runProbes(h.seed, h.tiny)
	if err != nil {
		return nil, err
	}
	for name, v := range probes {
		d.set(name, v)
	}
	d.set("core.build_ms_per_point", build)
	d.set("core.run_ms_per_point", runMS)
	d.set("core.host_ns_per_event", nsPerEvent)
	d.set("sim_events", float64(m.simEvents))
	d.set("sim_retired", float64(m.simRetired))
	untraced, withSpans := 1/median(base.repS), 1/median(m.repS)
	d.set("trace_overhead", (untraced-withSpans)/untraced)
	if wl.sweep != nil {
		one := &sweepRound{h: h, wl: wl, arena: core.NewArenaPool(), want: h.golden[specKey(*wl.sweep)]}
		var scratch, timed measured
		one.run(&scratch, noParent, 1) // warms the arena
		one.run(&timed, noParent, 1)
		d.set("core.sched_efficiency", timed.repS[0]/(float64(h.workers)*median(base.repS)))
		d.Extra["one_worker_rep_s"] = timed.repS[0]
	} else {
		d.set("serve.submit_ms", median(m.submitMS))
		d.set("serve.exec_ms", median(m.execMS))
		d.set("serve.fetch_ms", median(m.fetchMS))
		d.set("serve.shed", float64(m.shed))
		jobs := float64(m.jobs)
		d.set("iofault.ops_per_job", float64(m.fs.ops)/jobs)
		d.set("iofault.fsyncs_per_job", float64(m.fs.fsyncs)/jobs)
		d.set("iofault.bytes_per_job", float64(m.fs.bytes)/jobs)
		d.set("iofault.ms_per_job", float64(m.fs.nanos)/1e6/jobs)
		if n := m.cacheHits + m.cacheMisses; n > 0 {
			d.set("cache.hit_ratio", float64(m.cacheHits)/float64(n))
		}
	}

	spans, self := rec.finish(root)
	d.Layers = layerTable(spans, self)
	if err := os.MkdirAll(o.outDir, 0o755); err != nil {
		return nil, err
	}
	path := filepath.Join(o.outDir, "trace-"+wl.name+".json")
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	if err := writeChrome(f, spans); err != nil {
		f.Close()
		return nil, err
	}
	if err := f.Close(); err != nil {
		return nil, err
	}
	printLayers(stdout, wl, h.workers, m, d, path)
	return m, nil
}

// printLayers prints the traced run's table: per span name its count, busy
// and self time, then each probe's estimated share of the workload — probe
// ns/op × the ops one rep performs ÷ the rep's W × wall. An estimate, not
// an attribution: the probes drive their layer harder than the workloads
// do (a 1024-deep queue, a low-IPC stream), so they overestimate. Compare
// them between two commits; do not read them as a profile.
func printLayers(w io.Writer, wl *workload, workers int, m *measured, d *runDetail, tracePath string) {
	tw := tabwriter.NewWriter(w, 0, 4, 2, ' ', tabwriter.AlignRight)
	fmt.Fprintf(tw, "%s span\tcount\tbusy ms\tself ms\t\n", wl.name)
	for _, r := range d.Layers {
		fmt.Fprintf(tw, "%s\t%d\t%.1f\t%.1f\t\n", r.Name, r.Count, r.BusyMS, r.SelfMS)
	}
	tw.Flush()
	cpuNS := median(m.repS) * 1e9 * float64(workers)
	points := float64(wl.pointsPerRep())
	tw = tabwriter.NewWriter(w, 0, 4, 2, ' ', tabwriter.AlignRight)
	fmt.Fprintf(tw, "layer probe\tper op\tops/rep\test. share\t\n")
	type row struct {
		name string
		ops  float64
	}
	var rows []row
	if !wl.allHits { // a cache hit simulates nothing
		rows = append(rows, row{"sim.queue_ns_per_event", float64(m.simEvents)}, row{"cpu.ns_per_instr", float64(m.simRetired)})
	}
	if wl.pool != nil { // sweeps run with cache and journal off
		cacheOp := "cache.put_ns"
		if wl.allHits {
			cacheOp = "cache.get_ns"
		}
		rows = append(rows, row{"core.executor_us_per_point", points}, row{"core.journal_us_per_record", points},
			row{cacheOp, points}, row{"config.hash_us", points})
	}
	for _, e := range rows {
		v := d.Metrics[e.name]
		ns := v.Value
		if v.Unit == "us" {
			ns *= 1e3
		}
		fmt.Fprintf(tw, "%s\t%.1f %s\t%.0f\t%.1f%% (estimate)\t\n", e.name, v.Value, v.Unit, e.ops, 100*ns*e.ops/cpuNS)
	}
	tw.Flush()
	fmt.Fprintf(w, "trace: %s\n", tracePath)
}

// runAll re-executes this binary once per workload and run, so set-up time
// and peak RSS belong to one workload and do not depend on order, and
// prints one JSON document.
func runAll(o options, stdout, stderr io.Writer) (bool, error) {
	self, err := os.Executable()
	if err != nil {
		return false, err
	}
	if err := os.MkdirAll(o.outDir, 0o755); err != nil {
		return false, err
	}
	doc := document{Benchmark: "sst/bench", Seconds: o.seconds, Workloads: map[string]*workloadDoc{}}
	ok := true
	child := func(wl string, seed uint64, trace int) (*runDetail, error) {
		detail := filepath.Join(o.outDir, fmt.Sprintf("detail-%s-%d-%d.json", wl, seed, trace))
		args := []string{"-workload", wl, "-seed", fmt.Sprint(seed), "-seconds", fmt.Sprint(o.seconds),
			"-trace", fmt.Sprint(trace), "-detail", detail, "-out", o.outDir}
		if o.tiny {
			args = append(args, "-tiny")
		}
		t0 := time.Now()
		cmd := exec.Command(self, args...)
		cmd.Stderr = stderr
		out, err := cmd.Output()
		if _, isExit := err.(*exec.ExitError); err != nil && !isExit {
			return nil, err
		}
		if trace == 1 {
			stderr.Write(out)
		}
		var d runDetail
		b, err := os.ReadFile(detail)
		if err != nil {
			return nil, fmt.Errorf("%s seed %d: no result: %w", wl, seed, err)
		}
		os.Remove(detail)
		if err := json.Unmarshal(b, &d); err != nil {
			return nil, err
		}
		fmt.Fprintf(stderr, "%s seed %d trace %d: %.1fs correct=%v\n", wl, seed, trace, time.Since(t0).Seconds(), d.Correct)
		ok = ok && d.Correct
		return &d, nil
	}
	for _, wl := range workloads(o.tiny) {
		wd := &workloadDoc{}
		doc.Workloads[wl.name] = wd
		for i := 0; i < o.runs; i++ {
			d, err := child(wl.name, o.seed+uint64(i), 0)
			if err != nil {
				return false, err
			}
			doc.Host = d.Host
			wd.Runs = append(wd.Runs, *d)
		}
		if o.trace == 1 {
			if wd.Traced, err = child(wl.name, o.seed, 1); err != nil {
				return false, err
			}
		}
		wd.summarize()
	}
	doc.Host.Seed = o.seed
	b, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return false, err
	}
	fmt.Fprintf(stdout, "%s\n", b)
	return ok, nil
}

// updateGolden recomputes the digest of every spec any workload verifies,
// at both the committed and the smoke-test sizes, by running each spec
// directly — no cache, no journal, no service.
func updateGolden(o options) error {
	golden := map[string]string{}
	arena := core.NewArenaPool()
	for _, tiny := range []bool{false, true} {
		for _, wl := range workloads(tiny) {
			for _, spec := range wl.specs() {
				key := specKey(spec)
				if _, done := golden[key]; done {
					continue
				}
				res, err := spec.Run(core.SweepOptions{Arena: arena})
				if err != nil {
					return fmt.Errorf("%s: %w", key, err)
				}
				if golden[key], err = resultDigest(res); err != nil {
					return err
				}
			}
		}
	}
	b, err := json.MarshalIndent(golden, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(o.goldenPath, append(b, '\n'), 0o644)
}
