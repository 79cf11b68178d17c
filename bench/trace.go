package main

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"sync"
	"time"
)

// The traced run's span recorder. Spans are recorded from this package's
// own files around each call into a layer — nothing inside the program is
// instrumented — kept in memory, and written out when the run ends.
//
// A nil *recorder is the untraced run: every method is a no-op, so the
// workload code calls them unconditionally.

// span is one timed interval. Spans of one job or rep share group.
type span struct {
	name       string
	group      string
	parent     int // index into recorder.spans; noParent for the root
	lane       int // Chrome trace thread id
	start, end time.Duration
}

const (
	noParent = -1
	// byGroup marks a span whose parent is the "job" span of its group,
	// resolved at finish: the storage wrapper sees a job's first writes
	// before the client that posted it has learned the job's ID.
	byGroup = -2
)

type recorder struct {
	t0 time.Time

	mu    sync.Mutex
	spans []span
	jobs  map[string]int // group → index of its job span
}

func newRecorder() *recorder {
	return &recorder{t0: time.Now(), jobs: make(map[string]int)}
}

// begin opens a span and returns its index; end closes it.
func (r *recorder) begin(parent int, name, group string, lane int) int {
	if r == nil {
		return noParent
	}
	now := time.Since(r.t0)
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, span{name: name, group: group, parent: parent, lane: lane, start: now, end: now})
	return len(r.spans) - 1
}

func (r *recorder) end(i int) {
	if r == nil {
		return
	}
	now := time.Since(r.t0)
	r.mu.Lock()
	r.spans[i].end = now
	r.mu.Unlock()
}

// add records an already-finished interval.
func (r *recorder) add(parent int, name, group string, lane int, start time.Time, d time.Duration) int {
	if r == nil {
		return noParent
	}
	s := start.Sub(r.t0)
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, span{name: name, group: group, parent: parent, lane: lane, start: s, end: s + d})
	return len(r.spans) - 1
}

// bindJob names span i as the parent of every byGroup span of its group.
func (r *recorder) bindJob(group string, i int) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.spans[i].group = group
	r.jobs[group] = i
	r.mu.Unlock()
}

// layerRow is one line of the per-layer table: every span of one name.
type layerRow struct {
	Name   string  `json:"name"`
	Count  int     `json:"count"`
	BusyMS float64 `json:"busy_ms"`
	SelfMS float64 `json:"self_ms"`
}

// finish resolves deferred parents and returns the spans plus each one's
// self time: its duration minus the part of it its children cover
// (children clipped to the parent and unioned, so parallel children are
// not counted twice). byGroup spans of a job nobody bound — set-up jobs —
// hang off root.
func (r *recorder) finish(root int) ([]span, []time.Duration) {
	r.mu.Lock()
	defer r.mu.Unlock()
	children := make(map[int][]int)
	for i := range r.spans {
		s := &r.spans[i]
		if s.parent == byGroup {
			s.parent = root
			if j, ok := r.jobs[s.group]; ok {
				s.parent = j
				s.lane = r.spans[j].lane + serverLaneOffset
			}
		}
		if s.parent >= 0 {
			children[s.parent] = append(children[s.parent], i)
		}
	}
	self := make([]time.Duration, len(r.spans))
	for i, s := range r.spans {
		kids := children[i]
		sort.Slice(kids, func(a, b int) bool { return r.spans[kids[a]].start < r.spans[kids[b]].start })
		covered, edge := time.Duration(0), s.start
		for _, k := range kids {
			lo, hi := max(r.spans[k].start, edge), min(r.spans[k].end, s.end)
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		self[i] = s.end - s.start - covered
	}
	return r.spans, self
}

// serverLaneOffset separates the lanes of server-side storage spans from
// the client lanes of the jobs that caused them.
const serverLaneOffset = 100

// layerTable aggregates spans by name, in order of first appearance.
func layerTable(spans []span, self []time.Duration) []layerRow {
	var rows []layerRow
	at := make(map[string]int)
	for i, s := range spans {
		j, ok := at[s.name]
		if !ok {
			j = len(rows)
			at[s.name] = j
			rows = append(rows, layerRow{Name: s.name})
		}
		rows[j].Count++
		rows[j].BusyMS += float64(s.end-s.start) / 1e6
		rows[j].SelfMS += float64(self[i]) / 1e6
	}
	return rows
}

// maxTraceEvents bounds the trace file: serve.hot records a few hundred
// storage spans per job, and a viewer gains nothing from a million of
// them. The layer table always covers every span; the file keeps the
// first maxTraceEvents and says how many it dropped.
const maxTraceEvents = 200_000

// writeChrome emits the spans in the Chrome trace_event format
// obs.Tracer uses (complete "X" events, microsecond timestamps).
func writeChrome(w io.Writer, spans []span) error {
	n := min(len(spans), maxTraceEvents)
	if _, err := fmt.Fprintf(w, "{\"displayTimeUnit\":\"ns\",\"otherData\":{\"spans\":%d,\"dropped\":%d},\"traceEvents\":[\n",
		len(spans), len(spans)-n); err != nil {
		return err
	}
	for i, s := range spans[:n] {
		name, _ := json.Marshal(s.name)
		group, _ := json.Marshal(s.group)
		sep := ",\n"
		if i == n-1 {
			sep = "\n"
		}
		if _, err := fmt.Fprintf(w, `{"ph":"X","name":%s,"pid":1,"tid":%d,"ts":%.3f,"dur":%.3f,"args":{"span":%d,"parent":%d,"id":%s}}%s`,
			name, s.lane, float64(s.start)/1e3, float64(s.end-s.start)/1e3, i, s.parent, group, sep); err != nil {
			return err
		}
	}
	_, err := io.WriteString(w, "]}\n")
	return err
}
