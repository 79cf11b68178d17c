package fault

import (
	"fmt"
	"math"

	"sst/internal/sim"
)

// maxSchedulePs caps a single scheduled delay. Exponential failure draws
// have an unbounded tail; a draw beyond ~106 simulated days (half the
// uint64-picosecond range) cannot fire inside any realistic study horizon,
// so clamping it keeps the Time arithmetic from wrapping without visibly
// distorting the distribution.
const maxSchedulePs = float64(sim.TimeInfinity / 2)

// secToTime converts seconds to simulated time with overflow clamping.
func secToTime(s float64) sim.Time {
	ps := s * 1e12
	if math.IsNaN(ps) || ps < 0 {
		return 0
	}
	if ps >= maxSchedulePs {
		return sim.TimeInfinity / 2
	}
	return sim.Time(ps)
}

// timeToSec converts simulated time to seconds.
func timeToSec(t sim.Time) float64 { return float64(t) / 1e12 }

// FailureProcess kills a component at exponentially distributed intervals,
// modelling a machine with a given MTBF. Its randomness comes from the
// stream named "mtbf:"+target name, so adding other injectors to the same
// simulation does not perturb the failure times.
type FailureProcess struct {
	eng     *sim.Engine
	rng     *sim.RNG
	mtbfS   float64
	target  Killable
	stopped bool
}

// NewFailureProcess arms exponential failures with mean mtbfS seconds
// against target, scheduling on eng.
func NewFailureProcess(eng *sim.Engine, target Killable, seed uint64, mtbfS float64) (*FailureProcess, error) {
	if math.IsNaN(mtbfS) || mtbfS <= 0 {
		return nil, fmt.Errorf("fault: MTBF %v must be positive seconds", mtbfS)
	}
	f := &FailureProcess{
		eng:    eng,
		rng:    NewStream(seed, "mtbf:"+target.Name()),
		mtbfS:  mtbfS,
		target: target,
	}
	f.arm()
	return f, nil
}

// arm schedules the next failure.
func (f *FailureProcess) arm() {
	f.eng.Schedule(secToTime(f.rng.Exp(f.mtbfS)), func(any) {
		if f.stopped {
			return
		}
		f.target.Kill()
		f.arm()
	}, nil)
}

// Stop disarms the process; already-scheduled failures become no-ops.
func (f *FailureProcess) Stop() { f.stopped = true }

// CheckpointModel describes an application doing coordinated
// checkpoint/restart on a failing machine: W seconds of useful work, split
// into segments of a chosen interval, each followed by a checkpoint costing
// C seconds; a failure loses the current segment and costs R seconds of
// restart before the segment is retried. All durations are in seconds of
// simulated wallclock.
type CheckpointModel struct {
	// WorkS is the total useful work W.
	WorkS float64
	// CheckpointS is the cost C of writing one checkpoint.
	CheckpointS float64
	// RestartS is the cost R of rebooting and loading the last checkpoint.
	RestartS float64
	// MTBFS is the machine's mean time between failures M.
	MTBFS float64
}

// Validate checks the model parameters.
func (m CheckpointModel) Validate() error {
	check := func(name string, v float64, strict bool) error {
		if math.IsNaN(v) || math.IsInf(v, 0) || v < 0 || (strict && v == 0) {
			return fmt.Errorf("fault: CheckpointModel.%s = %v invalid", name, v)
		}
		return nil
	}
	for _, c := range []struct {
		name   string
		v      float64
		strict bool
	}{
		{"WorkS", m.WorkS, true},
		{"CheckpointS", m.CheckpointS, false},
		{"RestartS", m.RestartS, false},
		{"MTBFS", m.MTBFS, true},
	} {
		if err := check(c.name, c.v, c.strict); err != nil {
			return err
		}
	}
	return nil
}

// RunStats summarizes one simulated run.
type RunStats struct {
	// MakespanS is total elapsed time to finish all work, seconds.
	MakespanS float64
	// Failures is the number of machine failures during the run.
	Failures int
	// Checkpoints is the number of checkpoints committed.
	Checkpoints int
	// LostWorkS is time thrown away to failures (partial segments,
	// partial checkpoint writes and interrupted restarts), seconds.
	LostWorkS float64
	// Efficiency is WorkS / MakespanS.
	Efficiency float64
}

// maxSimFailures aborts a run whose machine fails faster than it can ever
// commit a segment (MTBF ≪ interval + C): simulated time would advance but
// work would not, forever.
const maxSimFailures = 200_000

// ckptWorker is the simulated application. It is Killable, so the same
// component works under FailureProcess here and under KillAt in directed
// tests.
type ckptWorker struct {
	eng       *sim.Engine
	m         CheckpointModel
	intervalS float64
	epoch     uint64 // bumped on every kill; cancels in-flight completions
	doneS     float64
	segStart  sim.Time
	stats     RunStats
	err       error
}

func (w *ckptWorker) Name() string { return "ckpt-worker" }

// startSegment begins the next work segment (or stops the engine when all
// work is committed). The engine has no event cancellation, so completions
// carry the epoch at which they were scheduled and evaporate if a kill has
// bumped it since.
func (w *ckptWorker) startSegment() {
	remaining := w.m.WorkS - w.doneS
	if remaining <= 0 {
		w.eng.Stop()
		return
	}
	seg := math.Min(w.intervalS, remaining)
	cost := seg
	ckpt := remaining > w.intervalS // the final segment commits by finishing
	if ckpt {
		cost += w.m.CheckpointS
	}
	epoch := w.epoch
	w.segStart = w.eng.Now()
	w.eng.Schedule(secToTime(cost), func(any) {
		if epoch != w.epoch {
			return // a failure rolled this segment back
		}
		w.doneS += seg
		if ckpt {
			w.stats.Checkpoints++
		}
		w.startSegment()
	}, nil)
}

// Kill loses the in-flight segment (and any partially written checkpoint or
// in-progress restart) and schedules a restart.
func (w *ckptWorker) Kill() {
	w.epoch++
	w.stats.Failures++
	if w.stats.Failures > maxSimFailures {
		w.err = fmt.Errorf("fault: no forward progress after %d failures (MTBF %vs vs segment %vs + checkpoint %vs)",
			w.stats.Failures-1, w.m.MTBFS, w.intervalS, w.m.CheckpointS)
		w.eng.Stop()
		return
	}
	now := w.eng.Now()
	w.stats.LostWorkS += timeToSec(now - w.segStart)
	epoch := w.epoch
	w.segStart = now // a failure during restart loses the restart time too
	w.eng.Schedule(secToTime(w.m.RestartS), func(any) {
		if epoch != w.epoch {
			return
		}
		w.startSegment()
	}, nil)
}

// Simulate runs the model once with the given checkpoint interval and
// fault seed. Same seed, same parameters: identical RunStats, always.
func (m CheckpointModel) Simulate(seed uint64, intervalS float64) (RunStats, error) {
	if err := m.Validate(); err != nil {
		return RunStats{}, err
	}
	if math.IsNaN(intervalS) || intervalS <= 0 {
		return RunStats{}, fmt.Errorf("fault: checkpoint interval %v must be positive seconds", intervalS)
	}
	eng := sim.NewEngine()
	w := &ckptWorker{eng: eng, m: m, intervalS: intervalS}
	w.startSegment()
	fp, err := NewFailureProcess(eng, w, seed, m.MTBFS)
	if err != nil {
		return RunStats{}, err
	}
	eng.RunAll()
	fp.Stop()
	w.stats.MakespanS = timeToSec(eng.Now())
	if w.stats.MakespanS > 0 {
		w.stats.Efficiency = w.doneS / w.stats.MakespanS
	}
	return w.stats, w.err
}

// YoungInterval is Young's first-order optimal checkpoint interval
// τ = sqrt(2·C·M) (work between checkpoints, excluding the checkpoint).
func YoungInterval(checkpointS, mtbfS float64) float64 {
	return math.Sqrt(2 * checkpointS * mtbfS)
}

// DalyInterval is Daly's higher-order refinement of Young's formula. For
// C ≥ 2M the machine fails faster than it can checkpoint and the optimum
// degenerates to τ = M.
func DalyInterval(checkpointS, mtbfS float64) float64 {
	if checkpointS >= 2*mtbfS {
		return mtbfS
	}
	x := checkpointS / (2 * mtbfS)
	return math.Sqrt(2*checkpointS*mtbfS)*(1+math.Sqrt(x)/3+x/9) - checkpointS
}

// DalyMakespan is Daly's closed-form expected makespan for work W with
// checkpoint interval τ: M·e^{R/M}·(e^{(τ+C)/M}−1)·W/τ. It is the analytic
// oracle the simulated resilience study is cross-checked against.
func DalyMakespan(workS, checkpointS, restartS, mtbfS, intervalS float64) float64 {
	return mtbfS * math.Exp(restartS/mtbfS) *
		math.Expm1((intervalS+checkpointS)/mtbfS) * workS / intervalS
}
