package obs

import (
	"encoding/json"
	"io"

	"sst/internal/cache"
	"sst/internal/stats"
)

// ServiceReport is the sweep service's metrics roll-up: scheduler state
// (queue depth, per-tenant backlog, jobs by state), admission-control
// counters, the retry/quarantine tallies aggregated from per-point
// reports, and — when the server shares a result cache across jobs — the
// cache counters. It satisfies core.Result structurally so /v1/metrics
// can serve it through the same table/json/csv machinery as study
// results.
type ServiceReport struct {
	// UptimeSeconds is host time since the server started.
	UptimeSeconds float64 `json:"uptime_seconds"`
	// Draining reports whether the server has stopped admitting jobs and
	// is finishing in-flight work.
	Draining bool `json:"draining"`

	// QueueDepth and QueueCapacity describe the admission queue; Shed
	// counts submissions rejected with 429 because the queue was full.
	QueueDepth    int   `json:"queue_depth"`
	QueueCapacity int   `json:"queue_capacity"`
	Shed          int64 `json:"shed"`

	// Tenants is the number of tenants with queued or running jobs.
	Tenants int `json:"tenants"`

	// Jobs by state.
	JobsQueued      int   `json:"jobs_queued"`
	JobsRunning     int   `json:"jobs_running"`
	JobsDone        int64 `json:"jobs_done"`
	JobsFailed      int64 `json:"jobs_failed"`
	JobsCancelled   int64 `json:"jobs_cancelled"`
	JobsInterrupted int64 `json:"jobs_interrupted"`
	JobsRecovered   int64 `json:"jobs_recovered"`

	// Point-level tallies across all jobs: completions, failures, retried
	// attempts and quarantined points.
	PointsDone   int64 `json:"points_done"`
	PointsFailed int64 `json:"points_failed"`
	Retries      int64 `json:"retries"`
	Quarantined  int64 `json:"quarantined"`

	// ReportsDropped counts per-point reports evicted from the jobs'
	// hard-capped report rings (each job retains only its most recent
	// reports; see SweepCollector). Non-zero means the per-job metrics
	// endpoints describe tails, not whole sweeps — the drop is counted
	// here instead of being silently swallowed.
	ReportsDropped int64 `json:"reports_dropped"`

	// Cache is the shared result cache's counter snapshot, nil when the
	// server runs without one.
	Cache *cache.Stats `json:"cache,omitempty"`
}

// Table renders the report as one metric/value table.
func (r *ServiceReport) Table() *stats.Table {
	t := stats.NewTable("Sweep service", "metric", "value")
	t.AddRow("uptime_seconds", r.UptimeSeconds)
	t.AddRow("draining", r.Draining)
	t.AddRow("queue_depth", r.QueueDepth)
	t.AddRow("queue_capacity", r.QueueCapacity)
	t.AddRow("shed", r.Shed)
	t.AddRow("tenants", r.Tenants)
	t.AddRow("jobs.queued", r.JobsQueued)
	t.AddRow("jobs.running", r.JobsRunning)
	t.AddRow("jobs.done", r.JobsDone)
	t.AddRow("jobs.failed", r.JobsFailed)
	t.AddRow("jobs.cancelled", r.JobsCancelled)
	t.AddRow("jobs.interrupted", r.JobsInterrupted)
	t.AddRow("jobs.recovered", r.JobsRecovered)
	t.AddRow("points.done", r.PointsDone)
	t.AddRow("points.failed", r.PointsFailed)
	t.AddRow("points.retries", r.Retries)
	t.AddRow("points.quarantined", r.Quarantined)
	t.AddRow("points.reports_dropped", r.ReportsDropped)
	if cs := r.Cache; cs != nil {
		t.AddRow("cache.entries", cs.Entries)
		t.AddRow("cache.hits", cs.Hits)
		t.AddRow("cache.misses", cs.Misses)
		t.AddRow("cache.hit_rate", cs.HitRate)
		t.AddRow("cache.evictions", cs.Evictions)
		if cs.Degraded {
			t.AddRow("cache.degraded", true)
			t.AddRow("cache.append_failures", cs.AppendFailures)
		}
	}
	return t
}

// WriteJSON emits the report as one indented JSON object.
func (r *ServiceReport) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}

// WriteCSV emits the metric/value table as CSV.
func (r *ServiceReport) WriteCSV(w io.Writer) error {
	return r.Table().WriteCSV(w)
}
