// Package stats is gosst's statistics framework: cheap counters,
// accumulators and histograms that components register into a hierarchical
// registry, plus table/CSV renderers for experiment output.
//
// It mirrors SST's statistics subsystem: every component exposes named
// statistics; harnesses enumerate them after a run rather than each model
// inventing its own reporting.
package stats

import (
	"fmt"
	"io"
	"math"
	"math/bits"
	"sort"
)

// Stat is the common interface over every statistic kind.
type Stat interface {
	// Name returns the statistic's leaf name (unique within a component).
	Name() string
	// Value returns the statistic's primary scalar value.
	Value() float64
	// String renders a human-readable summary.
	String() string
	// Reset returns the statistic to its zero state.
	Reset()
}

// Counter is a monotonically increasing event count.
type Counter struct {
	name string
	n    uint64
}

// NewCounter creates a named counter.
func NewCounter(name string) *Counter { return &Counter{name: name} }

// Inc adds one.
func (c *Counter) Inc() { c.n++ }

// Add adds v.
func (c *Counter) Add(v uint64) { c.n += v }

// Count returns the current count.
func (c *Counter) Count() uint64 { return c.n }

func (c *Counter) Name() string   { return c.name }
func (c *Counter) Value() float64 { return float64(c.n) }
func (c *Counter) Reset()         { c.n = 0 }
func (c *Counter) String() string { return fmt.Sprintf("%s=%d", c.name, c.n) }

// Accumulator tracks sum, mean, variance, min and max of a series of
// observations using Welford's online algorithm.
type Accumulator struct {
	name     string
	n        uint64
	mean, m2 float64
	sum      float64
	min, max float64
}

// NewAccumulator creates a named accumulator.
func NewAccumulator(name string) *Accumulator {
	return &Accumulator{name: name, min: math.Inf(1), max: math.Inf(-1)}
}

// Observe records one sample.
func (a *Accumulator) Observe(v float64) {
	a.n++
	a.sum += v
	d := v - a.mean
	a.mean += d / float64(a.n)
	a.m2 += d * (v - a.mean)
	if v < a.min {
		a.min = v
	}
	if v > a.max {
		a.max = v
	}
}

// N returns the number of samples.
func (a *Accumulator) N() uint64 { return a.n }

// Mean returns the sample mean (0 for an empty accumulator).
func (a *Accumulator) Mean() float64 { return a.mean }

// Var returns the unbiased sample variance.
func (a *Accumulator) Var() float64 {
	if a.n < 2 {
		return 0
	}
	return a.m2 / float64(a.n-1)
}

// Stddev returns the sample standard deviation.
func (a *Accumulator) Stddev() float64 { return math.Sqrt(a.Var()) }

// Min returns the smallest sample (+Inf when empty).
func (a *Accumulator) Min() float64 { return a.min }

// Max returns the largest sample (-Inf when empty).
func (a *Accumulator) Max() float64 { return a.max }

func (a *Accumulator) Name() string   { return a.name }
func (a *Accumulator) Value() float64 { return a.Mean() }
func (a *Accumulator) Reset() {
	*a = Accumulator{name: a.name, min: math.Inf(1), max: math.Inf(-1)}
}

func (a *Accumulator) String() string {
	if a.n == 0 {
		return fmt.Sprintf("%s: no samples", a.name)
	}
	return fmt.Sprintf("%s: n=%d mean=%.4g sd=%.3g min=%.4g max=%.4g",
		a.name, a.n, a.Mean(), a.Stddev(), a.min, a.max)
}

// Histogram is a power-of-two bucketed histogram: bucket i counts samples
// in [2^(i-1), 2^i), with bucket 0 counting zeros and ones. This matches
// the latency distributions architectural simulators care about (wide
// dynamic range, coarse resolution acceptable).
type Histogram struct {
	name    string
	buckets [65]uint64
	acc     Accumulator
}

// NewHistogram creates a named log2 histogram.
func NewHistogram(name string) *Histogram {
	h := &Histogram{name: name}
	h.acc = *NewAccumulator(name)
	return h
}

// Observe records one non-negative sample.
func (h *Histogram) Observe(v uint64) {
	h.buckets[bits.Len64(v)]++
	h.acc.Observe(float64(v))
}

// N returns the number of samples.
func (h *Histogram) N() uint64 { return h.acc.n }

// Mean returns the sample mean.
func (h *Histogram) Mean() float64 { return h.acc.Mean() }

// Max returns the largest sample.
func (h *Histogram) Max() float64 { return h.acc.Max() }

// Percentile returns an upper bound on the p-th percentile (0 < p <= 100)
// at bucket resolution.
func (h *Histogram) Percentile(p float64) uint64 {
	if h.acc.n == 0 {
		return 0
	}
	target := uint64(math.Ceil(p / 100 * float64(h.acc.n)))
	var cum uint64
	for i, b := range h.buckets {
		cum += b
		if cum >= target {
			if i == 0 {
				return 1
			}
			return 1<<uint(i) - 1
		}
	}
	return math.MaxUint64
}

func (h *Histogram) Name() string   { return h.name }
func (h *Histogram) Value() float64 { return h.Mean() }
func (h *Histogram) Reset() {
	h.buckets = [65]uint64{}
	h.acc.Reset()
}

func (h *Histogram) String() string {
	if h.acc.n == 0 {
		return fmt.Sprintf("%s: no samples", h.name)
	}
	return fmt.Sprintf("%s: n=%d mean=%.4g p50<=%d p99<=%d max=%.4g",
		h.name, h.acc.n, h.Mean(), h.Percentile(50), h.Percentile(99), h.acc.Max())
}

// Gauge is a point-in-time value (e.g. occupancy) with a peak watermark.
type Gauge struct {
	name      string
	cur, peak int64
}

// NewGauge creates a named gauge.
func NewGauge(name string) *Gauge { return &Gauge{name: name} }

// Add moves the gauge by delta, tracking the high-water mark.
func (g *Gauge) Add(delta int64) {
	g.cur += delta
	if g.cur > g.peak {
		g.peak = g.cur
	}
}

// Set assigns the gauge directly.
func (g *Gauge) Set(v int64) {
	g.cur = v
	if v > g.peak {
		g.peak = v
	}
}

// Peak returns the high-water mark.
func (g *Gauge) Peak() int64 { return g.peak }

func (g *Gauge) Name() string   { return g.name }
func (g *Gauge) Value() float64 { return float64(g.cur) }
func (g *Gauge) Reset()         { g.cur, g.peak = 0, 0 }
func (g *Gauge) String() string {
	return fmt.Sprintf("%s=%d (peak %d)", g.name, g.cur, g.peak)
}

// Registry is a hierarchy of statistics, keyed "component.stat". Components
// create a Scope per instance and register their stats there.
type Registry struct {
	stats map[string]Stat
	order []string
}

// NewRegistry creates an empty registry.
func NewRegistry() *Registry { return &Registry{stats: make(map[string]Stat)} }

// Scope returns a registration helper that prefixes names with prefix+".".
func (r *Registry) Scope(prefix string) *Scope { return &Scope{r: r, prefix: prefix} }

// Register adds a statistic under the given full name. Duplicate names are
// a wiring bug and panic.
func (r *Registry) Register(full string, s Stat) {
	if _, dup := r.stats[full]; dup {
		panic(fmt.Sprintf("stats: duplicate statistic %q", full))
	}
	r.stats[full] = s
	r.order = append(r.order, full)
}

// Get returns the named statistic, or nil.
func (r *Registry) Get(full string) Stat { return r.stats[full] }

// Counter returns the named statistic as a *Counter, or nil.
func (r *Registry) Counter(full string) *Counter {
	c, _ := r.stats[full].(*Counter)
	return c
}

// Names returns all registered names, sorted.
func (r *Registry) Names() []string {
	out := make([]string, 0, len(r.stats))
	for k := range r.stats {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// Dump writes "name value" lines for every statistic, sorted by name.
func (r *Registry) Dump(w io.Writer) {
	for _, k := range r.Names() {
		fmt.Fprintf(w, "%-48s %s\n", k, r.stats[k].String())
	}
}

// WriteCSV emits name,value rows sorted by name.
func (r *Registry) WriteCSV(w io.Writer) {
	fmt.Fprintln(w, "stat,value")
	for _, k := range r.Names() {
		fmt.Fprintf(w, "%s,%g\n", k, r.stats[k].Value())
	}
}

// Scope registers statistics under a component prefix.
type Scope struct {
	r      *Registry
	prefix string
}

// Counter creates and registers a counter named prefix.name.
func (s *Scope) Counter(name string) *Counter {
	c := NewCounter(name)
	s.r.Register(s.prefix+"."+name, c)
	return c
}

// Accumulator creates and registers an accumulator named prefix.name.
func (s *Scope) Accumulator(name string) *Accumulator {
	a := NewAccumulator(name)
	s.r.Register(s.prefix+"."+name, a)
	return a
}

// Histogram creates and registers a histogram named prefix.name.
func (s *Scope) Histogram(name string) *Histogram {
	h := NewHistogram(name)
	s.r.Register(s.prefix+"."+name, h)
	return h
}

// Gauge creates and registers a gauge named prefix.name.
func (s *Scope) Gauge(name string) *Gauge {
	g := NewGauge(name)
	s.r.Register(s.prefix+"."+name, g)
	return g
}

// Sub returns a nested scope prefix.name.
func (s *Scope) Sub(name string) *Scope {
	return &Scope{r: s.r, prefix: s.prefix + "." + name}
}
