package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"text/tabwriter"
)

// document is what `bench -workload all` prints: every run of every
// workload on one host, with the median and spread of each end-to-end
// metric. Two of them are what -compare takes.
type document struct {
	Benchmark string                  `json:"benchmark"`
	Host      hostFacts               `json:"host"`
	Seconds   float64                 `json:"seconds"`
	Workloads map[string]*workloadDoc `json:"workloads"`
}

type workloadDoc struct {
	// Median and Spread summarize Runs per end-to-end metric; the spread
	// is the distance between the quartiles as a share of the median.
	Median map[string]float64 `json:"median"`
	Spread map[string]float64 `json:"spread"`
	Runs   []runDetail        `json:"runs"`
	Traced *runDetail         `json:"traced,omitempty"`
}

func (wd *workloadDoc) summarize() {
	wd.Median, wd.Spread = map[string]float64{}, map[string]float64{}
	for _, name := range endToEnd {
		var v []float64
		for _, r := range wd.Runs {
			v = append(v, r.Metrics[name].Value)
		}
		wd.Median[name] = median(v)
		if q1, q3, ok := quartiles(v); ok && wd.Median[name] != 0 {
			wd.Spread[name] = (q3 - q1) / wd.Median[name]
		}
	}
}

// quartiles are the first and third of Python's
// statistics.quantiles(v, n=4), the rule the benchmark's acceptance
// criterion is written in.
func quartiles(v []float64) (q1, q3 float64, ok bool) {
	n := len(v)
	if n < 2 {
		return 0, 0, false
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	at := func(i int) float64 {
		j := min(max(i*(n+1)/4, 1), n-1)
		delta := float64(i*(n+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(3), true
}

// benchmarkFile is the part of BENCHMARK.json -compare needs.
type benchmarkFile struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

func readJSON(path string, v any) error {
	b, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(b, v); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}

// compareFiles prints, per end-to-end metric and workload, A's and B's
// medians, how much worse B is, the bound from BENCHMARK.json and a
// verdict:
//
//	ok          B is no worse than A by more than the bound
//	regressed   it is
//	unresolved  the run-to-run spread of either side is wider than the
//	            bound, so the medians cannot say
//	other-host  the documents come from different machines; timings are
//	            shown but not gated
//
// Failed ops and the exact-repeat counts are checked on any host. It
// reports whether any row regressed.
func compareFiles(w io.Writer, benchmarkPath, pathA, pathB string) (regressed bool, err error) {
	var bf benchmarkFile
	var a, b document
	for path, v := range map[string]any{benchmarkPath: &bf, pathA: &a, pathB: &b} {
		if err := readJSON(path, v); err != nil {
			return false, err
		}
	}
	sameHost := a.Host.CPUModel == b.Host.CPUModel && a.Host.NProc == b.Host.NProc
	if !sameHost {
		fmt.Fprintf(w, "hosts differ (%q ×%d vs %q ×%d): timings are shown but not gated\n",
			a.Host.CPUModel, a.Host.NProc, b.Host.CPUModel, b.Host.NProc)
	}
	var names []string
	for name := range a.Workloads {
		names = append(names, name)
	}
	sort.Strings(names)

	tw := tabwriter.NewWriter(w, 0, 4, 2, ' ', tabwriter.AlignRight)
	fmt.Fprintf(tw, "workload\tmetric\tA\tB\tworse by\tbound\tspread\tverdict\t\n")
	for _, name := range names {
		wa, wb := a.Workloads[name], b.Workloads[name]
		if wb == nil {
			fmt.Fprintf(tw, "%s\t-\t\t\t\t\t\tregressed (missing in B)\t\n", name)
			regressed = true
			continue
		}
		for _, m := range bf.EndToEnd {
			va, vb := wa.Median[m.Name], wb.Median[m.Name]
			worse := (vb - va) / va
			if m.Better == "higher" {
				worse = (va - vb) / va
			}
			spread := max(wa.Spread[m.Name], wb.Spread[m.Name])
			verdict := "ok"
			switch {
			case !sameHost:
				verdict = "other-host"
			case spread > m.Bound:
				verdict = "unresolved"
			case worse > m.Bound:
				verdict = "regressed"
				regressed = true
			}
			fmt.Fprintf(tw, "%s\t%s\t%.4g\t%.4g\t%+.1f%%\t%.0f%%\t%.1f%%\t%s\t\n",
				name, m.Name, va, vb, 100*worse, 100*m.Bound, 100*spread, verdict)
		}
		for side, wd := range map[string]*workloadDoc{"A": wa, "B": wb} {
			for _, r := range wd.Runs {
				if !r.Correct || r.Failed != 0 {
					fmt.Fprintf(tw, "%s\tfailed\t\t\t\t\t\tregressed (%s seed %d: %d of %d failed, correct=%v)\t\n",
						name, side, r.Host.Seed, r.Failed, r.Attempted, r.Correct)
					regressed = true
				}
			}
		}
		opsPerRep := func(wd *workloadDoc) float64 { return wd.Runs[0].Extra["ops"] / wd.Runs[0].Extra["reps"] }
		if oa, ob := opsPerRep(wa), opsPerRep(wb); oa != ob {
			fmt.Fprintf(tw, "%s\tops per rep\t%g\t%g\t\t\t\tregressed (work differs)\t\n", name, oa, ob)
			regressed = true
		}
		if wa.Traced == nil || wb.Traced == nil {
			continue
		}
		for _, c := range countMetrics {
			va, vb := wa.Traced.Metrics[c].Value, wb.Traced.Metrics[c].Value
			verdict := "ok (equal)"
			if va != vb {
				verdict = "regressed (count differs)"
				regressed = true
			}
			fmt.Fprintf(tw, "%s\t%s\t%.10g\t%.10g\t\t\t\t%s\t\n", name, c, va, vb, verdict)
		}
	}
	return regressed, tw.Flush()
}
