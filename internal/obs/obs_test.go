package obs

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"time"

	"sst/internal/cache"
	"sst/internal/core"
	"sst/internal/par"
	"sst/internal/sim"
)

func TestTracerRingWrap(t *testing.T) {
	tr := NewTracer(4)
	for i := 0; i < 10; i++ {
		tr.Event(sim.Time(i), fmt.Sprintf("e%d", i), time.Duration(i))
	}
	if tr.Total() != 10 {
		t.Fatalf("Total = %d, want 10", tr.Total())
	}
	spans := tr.Spans()
	if len(spans) != 4 {
		t.Fatalf("retained %d spans, want 4", len(spans))
	}
	// The ring keeps the tail of the run, oldest first.
	for i, s := range spans {
		if want := sim.Time(6 + i); s.At != want {
			t.Fatalf("span %d at %v, want %v (spans: %+v)", i, s.At, want, spans)
		}
	}
}

func TestTracerDefaultCap(t *testing.T) {
	tr := NewTracer(0)
	if got := cap(tr.spans); got != DefaultTraceCap {
		t.Fatalf("default capacity = %d, want %d", got, DefaultTraceCap)
	}
}

func TestTracerChromeJSONParses(t *testing.T) {
	tr := NewTracer(16)
	tr.Event(0, "", time.Microsecond)
	tr.Event(sim.Nanosecond, "cpu.0", 2*time.Microsecond)
	tr.Event(2*sim.Nanosecond, "cpu.0", time.Microsecond)
	var buf bytes.Buffer
	if err := tr.WriteChromeJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		DisplayTimeUnit string `json:"displayTimeUnit"`
		TraceEvents     []struct {
			Ph   string  `json:"ph"`
			Name string  `json:"name"`
			Pid  int     `json:"pid"`
			Tid  int     `json:"tid"`
			Ts   float64 `json:"ts"`
			Dur  float64 `json:"dur"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("Chrome trace not valid JSON: %v\n%s", err, buf.String())
	}
	var xs, ms int
	names := map[string]bool{}
	for _, ev := range doc.TraceEvents {
		switch ev.Ph {
		case "X":
			xs++
			names[ev.Name] = true
			if ev.Dur < 0 {
				t.Errorf("negative dur: %+v", ev)
			}
		case "M":
			ms++
		}
	}
	if xs != 3 {
		t.Fatalf("%d complete events, want 3", xs)
	}
	// Two labels ("engine" for the blank one, "cpu.0"): two metadata rows.
	if ms != 2 {
		t.Fatalf("%d metadata events, want 2", ms)
	}
	if !names["engine"] || !names["cpu.0"] {
		t.Fatalf("names = %v", names)
	}
}

func TestTracerCSVAndSummary(t *testing.T) {
	tr := NewTracer(16)
	tr.Event(sim.Nanosecond, "mem", time.Microsecond)
	tr.Event(2*sim.Nanosecond, "mem", time.Microsecond)
	tr.Event(3*sim.Nanosecond, "", time.Microsecond)
	var buf bytes.Buffer
	if err := tr.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 4 || lines[0] != "time_ps,label,host_ns" {
		t.Fatalf("csv = %q", buf.String())
	}
	if lines[1] != "1000,mem,1000" {
		t.Fatalf("row = %q", lines[1])
	}
	sum := tr.Summary()
	if sum.NumRows() != 2 {
		t.Fatalf("summary rows = %d, want 2 (mem + engine)", sum.NumRows())
	}
	if s := sum.String(); !strings.Contains(s, "mem") || !strings.Contains(s, "engine") {
		t.Fatalf("summary missing labels:\n%s", s)
	}
}

// sizedPayload implements sim.Sized.
type sizedPayload struct{ n int }

func (p sizedPayload) PayloadBytes() int { return p.n }

// TestCollectorLinkTrafficSinceAttach: the report counts a link's traffic
// in both directions from Attach on, not the sends made before it.
func TestCollectorLinkTrafficSinceAttach(t *testing.T) {
	e := sim.NewEngine()
	a, b := sim.Connect(e, "l0", sim.Nanosecond)
	a.SetHandler(func(any) {})
	b.SetHandler(func(any) {})
	a.Send(sizedPayload{1000})
	e.RunAll()
	col := NewCollector()
	col.Attach(e, a.Link())
	a.Send(sizedPayload{100})
	a.Send("unsized")
	b.Send(sizedPayload{7})
	e.RunAll()
	rep := col.Report()
	want := LinkStats{Name: "l0", Msgs: 3, Bytes: 107}
	if len(rep.Links) != 1 || rep.Links[0] != want {
		t.Fatalf("links = %+v, want [%+v]", rep.Links, want)
	}
}

func TestCollectorReport(t *testing.T) {
	e := sim.NewEngine()
	// Pre-existing events must not be charged to this run.
	e.Schedule(0, func(any) {}, nil)
	e.RunAll()
	a, b := sim.Connect(e, "lk", sim.Nanosecond)
	b.SetHandler(func(any) {})
	col := NewCollector()
	col.Attach(e, a.Link())
	a.Send(sizedPayload{8})
	e.Schedule(sim.Microsecond, func(any) {}, nil)
	e.RunAll()
	rep := col.Report()
	if rep.Engine.Events != 2 {
		t.Fatalf("events = %d, want 2 (delivery + scheduled)", rep.Engine.Events)
	}
	if rep.Engine.PeakQueue < 1 {
		t.Fatalf("peak queue = %d", rep.Engine.PeakQueue)
	}
	if rep.Engine.SimSeconds <= 0 || rep.Engine.HostSeconds <= 0 || rep.Engine.EventsPerSec <= 0 {
		t.Fatalf("rates not populated: %+v", rep.Engine)
	}
	if len(rep.Links) != 1 || rep.Links[0].Msgs != 1 || rep.Links[0].Bytes != 8 {
		t.Fatalf("links = %+v", rep.Links)
	}
	// The report renders and serializes in all three formats.
	if rep.Table().NumRows() == 0 {
		t.Fatal("empty table")
	}
	var buf bytes.Buffer
	if err := rep.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var round RunReport
	if err := json.Unmarshal(buf.Bytes(), &round); err != nil {
		t.Fatalf("report JSON does not round-trip: %v", err)
	}
	if round.Engine.Events != rep.Engine.Events || len(round.Links) != 1 {
		t.Fatalf("round-trip lost data: %+v", round)
	}
	buf.Reset()
	if err := rep.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "link.lk.msgs") {
		t.Fatalf("csv missing link rows:\n%s", buf.String())
	}
}

func TestCollectorWithRunner(t *testing.T) {
	r, err := par.NewRunner(2)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		eng := r.Rank(i).Engine()
		eng.Schedule(sim.Nanosecond, func(any) {}, nil)
	}
	col := NewCollector()
	col.AttachRunner(r)
	if _, err := r.RunAll(); err != nil {
		t.Fatal(err)
	}
	rep := col.Report()
	if rep.Par == nil {
		t.Fatal("runner metrics missing")
	}
	if len(rep.Par.Ranks) != 2 || rep.Par.Windows == 0 {
		t.Fatalf("par metrics = %+v", rep.Par)
	}
	tab := rep.Table()
	var buf2 strings.Builder
	if err := tab.WriteCSV(&buf2); err != nil {
		t.Fatal(err)
	}
	for _, row := range []string{"par.windows", "par.lookahead_ps", "par.imbalance",
		"par.rank0.skipped_windows", "par.rank1.lookahead_ps"} {
		if !strings.Contains(buf2.String(), row) {
			t.Fatalf("report table missing %q:\n%s", row, buf2.String())
		}
	}
	var total uint64
	for _, rk := range rep.Par.Ranks {
		total += rk.Events
	}
	if total != 2 {
		t.Fatalf("rank events total %d, want 2", total)
	}
	// The engine row sums every rank, not rank 0 alone.
	if rep.Engine.Events != total {
		t.Fatalf("engine events %d, rank events total %d", rep.Engine.Events, total)
	}
}

func TestSweepCollectorOrderAndTrace(t *testing.T) {
	col := &SweepCollector{}
	base := time.Now()
	// Out-of-order completion, as a real pool produces.
	col.PointDone(core.PointReport{Index: 2, Worker: 1, Start: base.Add(time.Millisecond), Wall: time.Millisecond})
	col.PointDone(core.PointReport{Index: 0, Worker: 0, Start: base, Wall: 2 * time.Millisecond})
	col.PointDone(core.PointReport{Index: 1, Worker: 1, Start: base, Wall: time.Millisecond,
		Err: fmt.Errorf("boom\ndetail")})
	pts := col.Points()
	for i, p := range pts {
		if p.Index != i {
			t.Fatalf("points not sorted: %+v", pts)
		}
	}
	tab := col.Table()
	if tab.NumRows() != 3 {
		t.Fatalf("rows = %d", tab.NumRows())
	}
	// Multi-line errors are truncated to their first line in the table.
	if s := tab.String(); !strings.Contains(s, "boom") || strings.Contains(s, "detail") {
		t.Fatalf("error cell wrong:\n%s", s)
	}
	var buf bytes.Buffer
	if err := col.WriteChromeJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Ph   string `json:"ph"`
			Name string `json:"name"`
			Tid  int    `json:"tid"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("sweep trace not valid JSON: %v", err)
	}
	var failed bool
	tids := map[int]bool{}
	for _, ev := range doc.TraceEvents {
		if ev.Ph != "X" {
			continue
		}
		tids[ev.Tid] = true
		if strings.Contains(ev.Name, "(failed)") {
			failed = true
		}
	}
	if len(tids) != 2 {
		t.Fatalf("worker rows = %d, want 2", len(tids))
	}
	if !failed {
		t.Fatal("failed point not flagged in trace")
	}
	buf.Reset()
	if err := col.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var v any
	if err := json.Unmarshal(buf.Bytes(), &v); err != nil {
		t.Fatalf("sweep metrics JSON invalid: %v", err)
	}
}

// TestRunReportCacheZipf drives a Zipf-skewed repeated-grid access stream
// through a sweep result cache smaller than its key space, then requires
// the RunReport JSON and table to carry the cache's counters — evictions
// included — and nothing about policies that no longer exist.
func TestRunReportCacheZipf(t *testing.T) {
	c, err := cache.New(cache.Options{Capacity: 32})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	// A Zipf-skewed repeated grid: 256 distinct points, heavily reused.
	rng := rand.New(rand.NewSource(7))
	zipf := rand.NewZipf(rng, 1.3, 1, 255)
	for i := 0; i < 4096; i++ {
		key := fmt.Sprintf("grid-point-%d", zipf.Uint64())
		if _, ok := c.Get(key); !ok {
			if err := c.Put(key, key, 16); err != nil {
				t.Fatal(err)
			}
		}
	}

	col := NewCollector()
	col.Attach(nil)
	col.AttachCache(c)
	rep := col.Report()
	if rep.Cache == nil {
		t.Fatal("report has no cache stats")
	}
	if rep.Cache.Capacity != 32 || rep.Cache.Entries != 32 || rep.Cache.Hits == 0 ||
		rep.Cache.HitRate <= 0 || rep.Cache.Evictions == 0 ||
		rep.Cache.Hits+rep.Cache.Misses != 4096 {
		t.Fatalf("cache stats = %+v", rep.Cache)
	}

	var buf bytes.Buffer
	if err := rep.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Cache map[string]any `json:"cache"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("report JSON invalid: %v", err)
	}
	for _, want := range []string{"capacity", "entries", "bytes", "hits", "misses", "evictions", "warm_starts", "hit_rate"} {
		if _, ok := doc.Cache[want]; !ok {
			t.Errorf("JSON cache report missing %q: %v", want, doc.Cache)
		}
	}
	for _, gone := range []string{"policy", "rejected", "shadows"} {
		if _, ok := doc.Cache[gone]; ok {
			t.Errorf("JSON cache report still carries %q: %v", gone, doc.Cache)
		}
	}

	// And the table rendering exposes the same rows for the CSV path.
	var csv bytes.Buffer
	if err := rep.WriteCSV(&csv); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"cache.entries", "cache.bytes", "cache.hits", "cache.misses", "cache.hit_rate", "cache.evictions", "cache.warm_starts"} {
		if !strings.Contains(csv.String(), want) {
			t.Errorf("csv missing %s:\n%s", want, csv.String())
		}
	}
	for _, gone := range []string{"cache.policy", "cache.rejected", "cache.shadow"} {
		if strings.Contains(csv.String(), gone) {
			t.Errorf("csv still carries %s:\n%s", gone, csv.String())
		}
	}
}

// TestTracerDropped: ring overwrites are counted, never silently
// swallowed — the tracer, its summary title and an attached collector's
// report all say how many spans the cap let go.
func TestTracerDropped(t *testing.T) {
	tr := NewTracer(4)
	for i := 0; i < 10; i++ {
		tr.Event(sim.Time(i), "x", time.Duration(i))
	}
	if tr.Dropped() != 6 {
		t.Fatalf("Dropped = %d, want 6", tr.Dropped())
	}
	if got := tr.Total() - tr.Dropped(); got != uint64(len(tr.Spans())) {
		t.Fatalf("Total-Dropped = %d, retained = %d", got, len(tr.Spans()))
	}
	if s := tr.Summary().String(); !strings.Contains(s, "6 oldest dropped") {
		t.Fatalf("summary does not flag the drop:\n%s", s)
	}

	col := NewCollector()
	col.Attach(nil)
	col.AttachTracer(tr)
	rep := col.Report()
	if rep.Trace == nil || rep.Trace.Spans != 10 || rep.Trace.Retained != 4 || rep.Trace.Dropped != 6 {
		t.Fatalf("report trace metrics = %+v", rep.Trace)
	}
	var buf bytes.Buffer
	if err := rep.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	for _, row := range []string{"trace.spans", "trace.retained", "trace.dropped"} {
		if !strings.Contains(buf.String(), row) {
			t.Fatalf("report table missing %q:\n%s", row, buf.String())
		}
	}
}

// TestTracerNoDropsWithinCap: a trace that fits its ring reports zero
// drops (the fix must not spook complete traces).
func TestTracerNoDropsWithinCap(t *testing.T) {
	tr := NewTracer(16)
	for i := 0; i < 16; i++ {
		tr.Event(sim.Time(i), "x", 0)
	}
	if tr.Dropped() != 0 {
		t.Fatalf("Dropped = %d, want 0", tr.Dropped())
	}
	if s := tr.Summary().String(); strings.Contains(s, "dropped") {
		t.Fatalf("summary flags drops on a complete trace:\n%s", s)
	}
}

// TestSweepCollectorCap: the per-point report ring is hard-capped — the
// most recent reports survive, evictions are counted, and the table
// title says the view is a tail.
func TestSweepCollectorCap(t *testing.T) {
	col := &SweepCollector{Cap: 3}
	for i := 0; i < 8; i++ {
		col.PointDone(core.PointReport{Index: i, Wall: time.Millisecond})
	}
	if col.Dropped() != 5 {
		t.Fatalf("Dropped = %d, want 5", col.Dropped())
	}
	pts := col.Points()
	if len(pts) != 3 {
		t.Fatalf("retained %d reports, want 3", len(pts))
	}
	for i, p := range pts {
		if want := 5 + i; p.Index != want {
			t.Fatalf("report %d has index %d, want %d (most recent retained)", i, p.Index, want)
		}
	}
	if s := col.Table().String(); !strings.Contains(s, "5 oldest dropped") {
		t.Fatalf("table does not flag the drop:\n%s", s)
	}
}

// TestSweepCollectorDefaultCap: the zero value is still usable and gets
// the documented default capacity.
func TestSweepCollectorDefaultCap(t *testing.T) {
	col := &SweepCollector{}
	col.PointDone(core.PointReport{Index: 0})
	if col.Dropped() != 0 || len(col.Points()) != 1 {
		t.Fatalf("zero-value collector misbehaves: dropped=%d points=%d",
			col.Dropped(), len(col.Points()))
	}
}
