package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"time"

	"sst/internal/cache"
	"sst/internal/par"
	"sst/internal/sim"
	"sst/internal/stats"
)

// EngineMetrics is the engine-level slice of a RunReport.
type EngineMetrics struct {
	// Events is the total number of events dispatched.
	Events uint64 `json:"events"`
	// PeakQueue is the pending-queue high-water mark.
	PeakQueue int `json:"peak_queue"`
	// SimSeconds is the simulated clock at snapshot time.
	SimSeconds float64 `json:"sim_seconds"`
	// HostSeconds is host wall time between Attach and Report.
	HostSeconds float64 `json:"host_seconds"`
	// EventsPerSec is the host-rate Events/HostSeconds (0 when unknown).
	EventsPerSec float64 `json:"events_per_sec"`
}

// TraceMetrics is the tracer's slice of a RunReport: how many spans the
// run produced, how many the ring retained, and how many the cap
// overwrote. Dropped > 0 flags a trace that shows only the run's tail.
type TraceMetrics struct {
	Spans    uint64 `json:"spans"`
	Retained uint64 `json:"retained"`
	Dropped  uint64 `json:"dropped"`
}

// LinkStats counts traffic on one link: the messages sent in both
// directions and their payload bytes (for payloads implementing sim.Sized).
type LinkStats struct {
	Name  string `json:"name"`
	Msgs  uint64 `json:"msgs"`
	Bytes uint64 `json:"bytes"`
}

// RunReport is one run's metrics roll-up. It satisfies core.Result
// structurally, so CLIs render it with the same table/json/csv machinery
// as study results.
type RunReport struct {
	Engine EngineMetrics      `json:"engine"`
	Trace  *TraceMetrics      `json:"trace,omitempty"`
	Links  []LinkStats        `json:"links,omitempty"`
	Par    *par.RunnerMetrics `json:"par,omitempty"`
	// Cache is the sweep result cache's counter snapshot.
	Cache *cache.Stats `json:"cache,omitempty"`
}

// Table renders the report as one metric/value table.
func (r *RunReport) Table() *stats.Table {
	t := stats.NewTable("Run metrics", "metric", "value")
	t.AddRow("events", r.Engine.Events)
	t.AddRow("peak_queue", r.Engine.PeakQueue)
	t.AddRow("sim_seconds", r.Engine.SimSeconds)
	t.AddRow("host_seconds", r.Engine.HostSeconds)
	t.AddRow("events_per_sec", r.Engine.EventsPerSec)
	if tr := r.Trace; tr != nil {
		t.AddRow("trace.spans", tr.Spans)
		t.AddRow("trace.retained", tr.Retained)
		t.AddRow("trace.dropped", tr.Dropped)
	}
	for _, l := range r.Links {
		t.AddRow("link."+l.Name+".msgs", l.Msgs)
		t.AddRow("link."+l.Name+".bytes", l.Bytes)
	}
	if p := r.Par; p != nil {
		t.AddRow("par.windows", p.Windows)
		t.AddRow("par.lookahead_ps", uint64(p.Lookahead))
		t.AddRow("par.imbalance", p.Imbalance)
		for _, rk := range p.Ranks {
			prefix := fmt.Sprintf("par.rank%d.", rk.Rank)
			t.AddRow(prefix+"events", rk.Events)
			t.AddRow(prefix+"windows", rk.Windows)
			t.AddRow(prefix+"idle_windows", rk.IdleWindows)
			t.AddRow(prefix+"skipped_windows", rk.SkippedWindows)
			t.AddRow(prefix+"lookahead_ps", uint64(rk.Lookahead))
		}
	}
	if cs := r.Cache; cs != nil {
		t.AddRow("cache.entries", cs.Entries)
		t.AddRow("cache.bytes", cs.Bytes)
		t.AddRow("cache.hits", cs.Hits)
		t.AddRow("cache.misses", cs.Misses)
		t.AddRow("cache.hit_rate", cs.HitRate)
		t.AddRow("cache.evictions", cs.Evictions)
		t.AddRow("cache.warm_starts", cs.WarmStarts)
		if cs.Degraded {
			// Storage under the warm-start file failed mid-run; the cache
			// dropped it and served the sweep from memory alone.
			t.AddRow("cache.degraded", true)
			t.AddRow("cache.append_failures", cs.AppendFailures)
		}
	}
	return t
}

// WriteJSON emits the report as one indented JSON object (typed fields,
// not the table rendering).
func (r *RunReport) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}

// WriteCSV emits the metric/value table as CSV.
func (r *RunReport) WriteCSV(w io.Writer) error {
	return r.Table().WriteCSV(w)
}

// Collector snapshots a run's metrics: attach it before running, ask for
// the Report after. It owns the host-time clock.
type Collector struct {
	engines  []*sim.Engine
	base     []uint64 // events each engine had handled when attached
	tracers  []*Tracer
	links    []*sim.Link
	linkBase []LinkStats // each link's traffic when attached
	runner   *par.Runner
	cache    *cache.Cache
	start    time.Time
}

// NewCollector creates an empty collector.
func NewCollector() *Collector { return &Collector{} }

// Attach points the collector at an engine and the given links, whose
// traffic the report counts from now on, and starts the host-time clock.
// Call it before the run, once per engine; every call restarts the clock.
func (c *Collector) Attach(engine *sim.Engine, links ...*sim.Link) {
	if engine != nil {
		c.engines = append(c.engines, engine)
		c.base = append(c.base, engine.Handled())
	}
	for _, l := range links {
		msgs, bytes := l.Traffic()
		c.links = append(c.links, l)
		c.linkBase = append(c.linkBase, LinkStats{Name: l.Name(), Msgs: msgs, Bytes: bytes})
	}
	c.start = time.Now()
}

// AttachTracer additionally records the run's span tracers — one per rank
// engine of a partitioned run; nil ones are skipped — so the report carries
// their ring counters summed: total spans, retained spans, and how many the
// caps dropped (a trace that only shows the tail says so).
func (c *Collector) AttachTracer(ts ...*Tracer) {
	for _, t := range ts {
		if t != nil {
			c.tracers = append(c.tracers, t)
		}
	}
}

// AttachRunner attaches every rank engine of a partitioned run in place of
// Attach, and folds the runner's Metrics into the report. The engine row
// sums the ranks' events and takes the largest simulated time and peak.
func (c *Collector) AttachRunner(r *par.Runner) {
	c.runner = r
	for i := range r.NumRanks() {
		c.Attach(r.Rank(i).Engine())
	}
}

// AttachCache additionally records a sweep result cache whose counter
// snapshot (hit/miss/eviction/bytes) is folded into the report.
func (c *Collector) AttachCache(sc *cache.Cache) { c.cache = sc }

// Report snapshots the metrics. Call it after the run completes (it reads
// engine and runner state that must not be mid-flight).
func (c *Collector) Report() *RunReport {
	rep := &RunReport{}
	for i, e := range c.engines {
		rep.Engine.Events += e.Handled() - c.base[i]
		rep.Engine.PeakQueue = max(rep.Engine.PeakQueue, e.PeakPending())
		rep.Engine.SimSeconds = max(rep.Engine.SimSeconds, e.Now().Seconds())
	}
	if !c.start.IsZero() {
		rep.Engine.HostSeconds = time.Since(c.start).Seconds()
	}
	if rep.Engine.HostSeconds > 0 {
		rep.Engine.EventsPerSec = float64(rep.Engine.Events) / rep.Engine.HostSeconds
	}
	for _, t := range c.tracers {
		if rep.Trace == nil {
			rep.Trace = &TraceMetrics{}
		}
		rep.Trace.Spans += t.Total()
		rep.Trace.Retained += t.Total() - t.Dropped()
		rep.Trace.Dropped += t.Dropped()
	}
	for i, l := range c.links {
		msgs, bytes := l.Traffic()
		b := c.linkBase[i]
		rep.Links = append(rep.Links, LinkStats{Name: b.Name, Msgs: msgs - b.Msgs, Bytes: bytes - b.Bytes})
	}
	if c.runner != nil {
		m := c.runner.Metrics()
		rep.Par = &m
	}
	if c.cache != nil {
		s := c.cache.Stats()
		rep.Cache = &s
	}
	return rep
}
