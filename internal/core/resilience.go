package core

import (
	"context"
	"fmt"
	"math"

	"sst/internal/fault"
	"sst/internal/stats"
)

// ResilienceConfig parameterizes the checkpoint-interval study: how often
// should a machine with a given MTBF checkpoint a long-running job? The
// study sweeps candidate intervals for each MTBF, simulates Trials seeded
// runs per cell with fault.CheckpointModel, and reports the empirically
// best interval next to the Young and Daly closed forms.
type ResilienceConfig struct {
	// MTBFHours lists the machine MTBF values to study, in hours.
	MTBFHours []float64
	// CheckpointS is the cost of writing one checkpoint, seconds.
	CheckpointS float64
	// RestartS is the reboot-and-reload cost after a failure, seconds.
	RestartS float64
	// WorkHours is the job's useful work, in hours.
	WorkHours float64
	// IntervalsS optionally fixes the candidate checkpoint intervals
	// (seconds). Empty means a geometric grid of NumIntervals points
	// centered on the Young interval for each MTBF.
	IntervalsS []float64
	// NumIntervals sizes the automatic grid (default 9).
	NumIntervals int
	// Trials is the number of seeded runs averaged per cell (default 5).
	Trials int
	// Seed is the root fault seed; every cell and trial derives its own
	// stream from it, independent of sweep worker count.
	Seed uint64
}

// ResilienceRow is the study's verdict for one MTBF.
type ResilienceRow struct {
	MTBFHours float64
	// YoungS and DalyS are the closed-form optimal intervals, seconds.
	YoungS, DalyS float64
	// BestIntervalS is the simulated sweep's best candidate interval.
	BestIntervalS float64
	// BestMakespanS is the mean simulated makespan at that interval.
	BestMakespanS float64
	// DalyMakespanS is Daly's expected makespan at the Young interval —
	// the analytic oracle the simulation is cross-checked against.
	DalyMakespanS float64
	// Efficiency is useful work over best makespan.
	Efficiency float64
	// RatioToYoung is BestIntervalS / YoungS; near 1 when simulation and
	// first-order theory agree.
	RatioToYoung float64
}

// ResilienceRowSet carries the per-MTBF verdicts and, via the embedded
// TableResult, the rendered table and JSON/CSV exports.
type ResilienceRowSet struct {
	TableResult
	Rows []ResilienceRow
}

// resilienceCell is one (MTBF, interval) grid cell's aggregate.
type resilienceCell struct {
	meanMakespanS float64
	meanLostS     float64
	failures      int
}

// ResilienceStudy sweeps checkpoint intervals against machine MTBF. Cells
// are independent and run across the sweep worker pool; every trial's seed
// is derived from (Seed, MTBF index, interval index, trial), so the study
// is deterministic for any worker count.
func ResilienceStudy(cfg ResilienceConfig, opts SweepOptions) (*ResilienceRowSet, error) {
	if len(cfg.MTBFHours) == 0 {
		return nil, fmt.Errorf("core: resilience study needs at least one MTBF")
	}
	if cfg.WorkHours <= 0 || math.IsNaN(cfg.WorkHours) || math.IsInf(cfg.WorkHours, 0) {
		return nil, fmt.Errorf("core: resilience study WorkHours = %v invalid", cfg.WorkHours)
	}
	trials := cfg.Trials
	if trials <= 0 {
		trials = 5
	}
	nIntervals := cfg.NumIntervals
	if nIntervals <= 0 {
		nIntervals = 9
	}
	workS := cfg.WorkHours * 3600

	// Candidate intervals per MTBF: fixed list, or a geometric grid
	// spanning Young/4 .. 4*Young so the U-shaped tradeoff is visible on
	// both sides of the predicted optimum.
	intervals := make([][]float64, len(cfg.MTBFHours))
	for mi, mh := range cfg.MTBFHours {
		if mh <= 0 || math.IsNaN(mh) || math.IsInf(mh, 0) {
			return nil, fmt.Errorf("core: resilience study MTBFHours[%d] = %v invalid", mi, mh)
		}
		if len(cfg.IntervalsS) > 0 {
			intervals[mi] = cfg.IntervalsS
			continue
		}
		young := fault.YoungInterval(cfg.CheckpointS, mh*3600)
		grid := make([]float64, nIntervals)
		for k := range grid {
			exp := 2 * (float64(k)/float64(nIntervals-1) - 0.5) // [-1, 1]
			grid[k] = young * math.Pow(4, exp)
		}
		intervals[mi] = grid
	}

	// Flatten (mtbf, interval) cells for the worker pool.
	type cellKey struct{ mi, ii int }
	var keys []cellKey
	for mi := range cfg.MTBFHours {
		for ii := range intervals[mi] {
			keys = append(keys, cellKey{mi, ii})
		}
	}
	cells, _, err := runGrid(opts, grid[resilienceCell]{
		n: len(keys),
		run: func(_ context.Context, c int) (cell resilienceCell, _ error) {
			k := keys[c]
			m := fault.CheckpointModel{
				WorkS:       workS,
				CheckpointS: cfg.CheckpointS,
				RestartS:    cfg.RestartS,
				MTBFS:       cfg.MTBFHours[k.mi] * 3600,
			}
			tau := intervals[k.mi][k.ii]
			for tr := 0; tr < trials; tr++ {
				seed := fault.StreamSeed(cfg.Seed, fmt.Sprintf("resilience:m%d:i%d:t%d", k.mi, k.ii, tr))
				st, err := m.Simulate(seed, tau)
				if err != nil {
					return cell, fmt.Errorf("core: resilience cell mtbf=%gh interval=%gs trial=%d: %w",
						cfg.MTBFHours[k.mi], tau, tr, err)
				}
				cell.meanMakespanS += st.MakespanS / float64(trials)
				cell.meanLostS += st.LostWorkS / float64(trials)
				cell.failures += st.Failures
			}
			return cell, nil
		},
	})
	if err != nil {
		return nil, err
	}

	out := &ResilienceRowSet{
		TableResult: TableResult{Tab: stats.NewTable("Resilience: optimal checkpoint interval vs MTBF",
			"mtbf_h", "young_s", "daly_s", "best_interval_s", "best/young",
			"best_makespan_s", "daly_makespan_s", "efficiency")},
	}
	ci := 0
	for mi, mh := range cfg.MTBFHours {
		mtbfS := mh * 3600
		young := fault.YoungInterval(cfg.CheckpointS, mtbfS)
		row := ResilienceRow{
			MTBFHours:     mh,
			YoungS:        young,
			DalyS:         fault.DalyInterval(cfg.CheckpointS, mtbfS),
			DalyMakespanS: fault.DalyMakespan(workS, cfg.CheckpointS, cfg.RestartS, mtbfS, young),
			BestMakespanS: math.Inf(1),
		}
		for ii := range intervals[mi] {
			cell := cells[ci]
			ci++
			if cell.meanMakespanS < row.BestMakespanS {
				row.BestMakespanS = cell.meanMakespanS
				row.BestIntervalS = intervals[mi][ii]
			}
		}
		row.Efficiency = workS / row.BestMakespanS
		row.RatioToYoung = row.BestIntervalS / row.YoungS
		out.Rows = append(out.Rows, row)
		out.Tab.AddRow(row.MTBFHours, row.YoungS, row.DalyS, row.BestIntervalS,
			row.RatioToYoung, row.BestMakespanS, row.DalyMakespanS, row.Efficiency)
	}
	return out, nil
}
