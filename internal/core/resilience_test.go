package core

import (
	"context"
	"strings"
	"testing"

	"sst/internal/config"
)

func resilienceTestConfig() ResilienceConfig {
	return ResilienceConfig{
		MTBFHours:   []float64{1, 4},
		CheckpointS: 60,
		RestartS:    120,
		WorkHours:   3,
		Trials:      5,
		Seed:        2024,
	}
}

// TestResilienceStudyMatchesYoung pins the acceptance criterion: the
// simulated sweep's best checkpoint interval must land within a factor of
// two of the Young closed form (the auto grid's spacing is ~1.4x, so
// agreement means the empirical optimum sits in the theory's bracket), and
// the simulated best makespan must be in the same range as Daly's expected
// makespan.
func TestResilienceStudyMatchesYoung(t *testing.T) {
	res, err := ResilienceStudy(resilienceTestConfig(), SweepOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 {
		t.Fatalf("%d rows, want 2", len(res.Rows))
	}
	for _, row := range res.Rows {
		if row.RatioToYoung < 0.5 || row.RatioToYoung > 2.0 {
			t.Errorf("mtbf=%gh: best interval %.0fs vs Young %.0fs (ratio %.2f, want within 2x)",
				row.MTBFHours, row.BestIntervalS, row.YoungS, row.RatioToYoung)
		}
		if ratio := row.BestMakespanS / row.DalyMakespanS; ratio < 0.7 || ratio > 1.3 {
			t.Errorf("mtbf=%gh: best makespan %.0fs vs Daly oracle %.0fs (ratio %.2f)",
				row.MTBFHours, row.BestMakespanS, row.DalyMakespanS, ratio)
		}
		if row.Efficiency <= 0 || row.Efficiency > 1 {
			t.Errorf("mtbf=%gh: efficiency %v out of (0, 1]", row.MTBFHours, row.Efficiency)
		}
	}
	// Longer MTBF must never make the job slower.
	if res.Rows[1].BestMakespanS > res.Rows[0].BestMakespanS {
		t.Errorf("makespan grew with MTBF: %v vs %v",
			res.Rows[1].BestMakespanS, res.Rows[0].BestMakespanS)
	}
}

// TestResilienceStudyWorkerDeterminism verifies the study renders the same
// table byte for byte at any sweep worker count: trial seeds are derived
// from grid indices, never from scheduling.
func TestResilienceStudyWorkerDeterminism(t *testing.T) {
	seq, err := ResilienceStudy(resilienceTestConfig(), SweepOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 4} {
		conc, err := ResilienceStudy(resilienceTestConfig(), SweepOptions{Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		if got, want := conc.Table().String(), seq.Table().String(); got != want {
			t.Errorf("workers=%d: table differs from sequential run\n got:\n%s\nwant:\n%s",
				workers, got, want)
		}
	}
}

func TestResilienceStudyValidation(t *testing.T) {
	if _, err := ResilienceStudy(ResilienceConfig{}, SweepOptions{}); err == nil {
		t.Error("empty config accepted")
	}
	bad := resilienceTestConfig()
	bad.MTBFHours = []float64{0}
	if _, err := ResilienceStudy(bad, SweepOptions{}); err == nil {
		t.Error("zero MTBF accepted")
	}
	bad = resilienceTestConfig()
	bad.WorkHours = -1
	if _, err := ResilienceStudy(bad, SweepOptions{}); err == nil {
		t.Error("negative work accepted")
	}
}

// TestSweepSurvivesPanickingPoint pins the self-robustness acceptance
// criterion: a design point whose model panics yields a per-point error
// naming the point, and every other point still completes with results.
func TestSweepSurvivesPanickingPoint(t *testing.T) {
	good := SweepMachine("stream", "ddr3-1333", 1, Small)
	// A nil config makes BuildNode dereference it: a genuine panic inside
	// the point, not a returned error.
	out, err := RunMachines([]*config.MachineConfig{good, nil, good}, SweepOptions{Workers: 2})
	if err == nil {
		t.Fatal("panicking point reported no error")
	}
	if !strings.Contains(err.Error(), "point 1") || !strings.Contains(err.Error(), "panic") {
		t.Errorf("error does not attribute the panic to point 1: %v", err)
	}
	if len(out) != 3 || out[0] == nil || out[2] == nil {
		t.Fatalf("surviving points lost their results: %v", out)
	}
	if out[1] != nil {
		t.Error("panicked point fabricated a result")
	}
}

// TestSweepGridSurvivesFailedPoint checks the DSE grid analogue: failed
// points carry Err, the rest of the grid renders.
func TestSweepGridSurvivesFailedPoint(t *testing.T) {
	apps := []string{"stream", "quantum"} // "quantum" is not a workload
	techs := []string{"ddr3-1333"}
	widths := []int{1}
	g, err := MemTechWidthSweep(apps, techs, widths, Small, SweepOptions{Workers: 2})
	if err == nil {
		t.Fatal("unknown workload reported no error")
	}
	if g == nil {
		t.Fatal("partial grid discarded on error")
	}
	failed := g.Failed()
	if len(failed) != 1 || failed[0].App != "quantum" {
		t.Fatalf("Failed() = %+v, want the quantum point", failed)
	}
	p := g.Find("stream", "ddr3-1333", 1)
	if p == nil || p.Result == nil || p.Err != nil {
		t.Fatal("healthy point lost its result")
	}
	// Table renderers must skip the dead cell, not crash on it.
	tab := Fig10Table(g, apps, techs, widths, "ddr3-1333")
	if tab.NumRows() != 1 {
		t.Errorf("Fig10 rows = %d, want 1 (dead cell skipped)", tab.NumRows())
	}
}

// TestSweepContextCancellation: with a cancelled sweep context, not-yet-
// started points are skipped with per-point errors instead of running.
func TestSweepContextCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	ran := 0
	_, err := runFn(SweepOptions{Context: ctx, Workers: 1}, 4, func(_ context.Context, i int) error {
		ran++
		return nil
	})
	if err == nil {
		t.Fatal("cancelled sweep reported no error")
	}
	if ran != 0 {
		t.Errorf("%d points ran under a cancelled context", ran)
	}
	for _, want := range []string{"point 0 skipped", "point 3 skipped", "context canceled"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error missing %q: %v", want, err)
		}
	}
	// A fresh options value is unaffected by the cancelled sweep.
	if _, err := runFn(SweepOptions{}, 2, func(_ context.Context, _ int) error { return nil }); err != nil {
		t.Fatalf("independent sweep blocked by another sweep's context: %v", err)
	}
}
