package stats

import (
	"fmt"
	"io"

	"sst/internal/sim"
)

// Sampler captures a time series of selected statistics during a run —
// the raw material for the time-varying plots (bandwidth over time, queue
// occupancy over time) architectural studies lean on.
type Sampler struct {
	reg   *Registry
	names []string
	// rows[i] is (time, values...) for sample i.
	times []sim.Time
	rows  [][]float64
}

// NewSampler tracks the given statistic names (they must exist by the time
// of the first sample).
func NewSampler(reg *Registry, names ...string) *Sampler {
	return &Sampler{reg: reg, names: names}
}

// Names returns the tracked statistic names.
func (s *Sampler) Names() []string { return s.names }

// SampleAt records one row at the given time.
func (s *Sampler) SampleAt(t sim.Time) error {
	row := make([]float64, len(s.names))
	for i, n := range s.names {
		st := s.reg.Get(n)
		if st == nil {
			return fmt.Errorf("stats: sampler: unknown statistic %q", n)
		}
		row[i] = st.Value()
	}
	s.times = append(s.times, t)
	s.rows = append(s.rows, row)
	return nil
}

// Every arms periodic sampling on the engine: maxSamples rows at the given
// period, starting one period from now. A bounded count keeps the sampler
// from holding the event queue open forever.
func (s *Sampler) Every(engine *sim.Engine, period sim.Time, maxSamples int) {
	if maxSamples <= 0 {
		return
	}
	var tick sim.Handler
	remaining := maxSamples
	tick = func(any) {
		if err := s.SampleAt(engine.Now()); err != nil {
			panic(err)
		}
		remaining--
		if remaining > 0 {
			engine.SchedulePrio(period, sim.PrioLate, tick, nil)
		}
	}
	engine.SchedulePrio(period, sim.PrioLate, tick, nil)
}

// N returns the number of samples taken.
func (s *Sampler) N() int { return len(s.times) }

// Row returns sample i.
func (s *Sampler) Row(i int) (sim.Time, []float64) { return s.times[i], s.rows[i] }

// Series returns the sampled values of one tracked statistic.
func (s *Sampler) Series(name string) ([]float64, error) {
	for i, n := range s.names {
		if n != name {
			continue
		}
		out := make([]float64, len(s.rows))
		for j, r := range s.rows {
			out[j] = r[i]
		}
		return out, nil
	}
	return nil, fmt.Errorf("stats: sampler: %q not tracked", name)
}

// WriteCSV emits time_ps plus one column per tracked statistic.
func (s *Sampler) WriteCSV(w io.Writer) {
	fmt.Fprint(w, "time_ps")
	for _, n := range s.names {
		fmt.Fprintf(w, ",%s", n)
	}
	fmt.Fprintln(w)
	for i, t := range s.times {
		fmt.Fprintf(w, "%d", uint64(t))
		for _, v := range s.rows[i] {
			fmt.Fprintf(w, ",%g", v)
		}
		fmt.Fprintln(w)
	}
}
