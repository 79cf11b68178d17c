package sim

import (
	"fmt"
	"testing"
	"time"
)

// laneClock is what a scenario needs of a clock, so one scenario can run
// against the real Clock (ticks in the engine's clock lane) and against
// heapClock (ticks as queue events).
type laneClock interface {
	RegisterNamed(name string, h ClockHandler)
	Cycle() Cycle
}

// heapClock is the order oracle: the clock as it was before the clock lane,
// its tick an ordinary queue event re-armed through ScheduleLabeledAt. It
// exists only here; everything it does goes through the engine's public
// scheduling path, so whatever order the binary heap gives it is the order
// the lane merge must reproduce.
type heapClock struct {
	e        *Engine
	freq     Hz
	cycle    Cycle
	handlers []ClockHandler
	labels   []string
	armed    bool
	label    string
}

func newHeapClock(e *Engine, freq Hz) laneClock {
	return &heapClock{e: e, freq: freq, label: fmt.Sprintf("clock@%v", freq)}
}

func (c *heapClock) Cycle() Cycle { return c.cycle }

func (c *heapClock) RegisterNamed(name string, h ClockHandler) {
	c.handlers = append(c.handlers, h)
	c.labels = append(c.labels, name)
	if c.armed {
		return
	}
	c.armed = true
	n := c.freq.CyclesIn(c.e.now)
	if c.freq.CycleTime(n) < c.e.now {
		n++
	}
	if c.cycle < n {
		c.cycle = n
	}
	c.e.ScheduleLabeledAt(c.freq.CycleTime(c.cycle), PrioClock, c.label, c.tick, nil)
}

func (c *heapClock) tick(any) {
	e := c.e
	n := len(c.handlers)
	var keepH []ClockHandler
	var keepL []string
	for i := 0; i < n; i++ {
		h, label := c.handlers[i], c.labels[i]
		if label == "" {
			label = c.label
		}
		prev := e.curLabel
		e.curLabel = label
		start := time.Now()
		keep := h(c.cycle)
		e.tracer.Event(e.now, label, time.Since(start))
		e.curLabel = prev
		if keep {
			keepH, keepL = append(keepH, h), append(keepL, c.labels[i])
		}
	}
	c.handlers = append(keepH, c.handlers[n:]...)
	c.labels = append(keepL, c.labels[n:]...)
	c.cycle++
	c.armed = len(c.handlers) > 0
	if c.armed {
		e.ScheduleLabeledAt(c.freq.CycleTime(c.cycle), PrioClock, c.label, c.tick, nil)
	}
}

// laneScenario builds a seeded random model on a fresh engine over clocks
// made by newClock, runs it to completion in slices, and returns everything
// observable: each handler's and event's (time, what, cycle, current label),
// the engine counters after every slice, and the tracer's span sequence.
//
// The model aims at the places a merge of two sequences could go wrong:
// coprime clocks whose edges coincide, aperiodic events at all three
// priority bands landing exactly on cycle boundaries (including the current
// timestamp), handlers that go dormant and are re-registered by such an
// event, handlers registered from inside a tick, and Stop/Interrupt raised
// from inside handlers; the driver slices the run with Run(until) on and
// off boundaries, Step, and a lowered horizon.
func laneScenario(seed uint64, newClock func(*Engine, Hz) laneClock) (log []string, spans []string) {
	e := NewEngine()
	tr := &recTracer{}
	e.SetTracer(tr)
	rng := NewRNG(seed) // model decisions, drawn in dispatch order
	note := func(what string, cy Cycle) {
		log = append(log, fmt.Sprintf("%d %s c%d [%s]", e.now, what, cy, e.curLabel))
	}

	freqs := []Hz{2 * GHz, 1333 * MHz, 800 * MHz, 2900 * MHz}
	clocks := make([]laneClock, 1+rng.Intn(len(freqs)))
	for i := range clocks {
		clocks[i] = newClock(e, freqs[i])
	}
	prios := []Priority{PrioClock, PrioLink, PrioLate}
	// boundary is an exact cycle edge of one of the clocks, zero to three
	// cycles ahead — zero meaning "this very timestamp" when now is an edge.
	boundary := func(r *RNG) Time {
		f := freqs[r.Intn(len(clocks))]
		n := f.CyclesIn(e.now) + Cycle(r.Intn(4))
		if f.CycleTime(n) < e.now {
			n++
		}
		return f.CycleTime(n)
	}

	budget := 300 + rng.Intn(300) // handler and event invocations left
	spawned := 0
	var event func(depth int) Handler
	event = func(depth int) Handler {
		return func(any) {
			note("event", 0)
			if budget--; budget > 0 && depth < 3 && rng.Intn(3) == 0 {
				e.ScheduleAt(boundary(rng), prios[rng.Intn(3)], event(depth+1), nil)
			}
		}
	}
	var handler func(ci int, name string, life int) ClockHandler
	handler = func(ci int, name string, life int) ClockHandler {
		var h ClockHandler
		h = func(cy Cycle) bool {
			note("tick "+name, cy)
			budget--
			if life--; budget <= 0 || life <= 0 {
				return false
			}
			switch r := rng.Intn(24); {
			case r < 2: // stall; an aperiodic event on an edge wakes it
				e.ScheduleAt(boundary(rng), prios[rng.Intn(3)], func(any) {
					note("wake "+name, 0)
					clocks[ci].RegisterNamed(name, h)
				}, nil)
				return false
			case r < 4: // register a short-lived handler from inside the tick
				spawned++
				cj := rng.Intn(len(clocks))
				name := fmt.Sprintf("s%d", spawned)
				if spawned%3 == 0 {
					name = "" // falls back to the clock's label
				}
				clocks[cj].RegisterNamed(name, handler(cj, name, 1+rng.Intn(6)))
			case r < 9:
				e.ScheduleAt(boundary(rng), prios[rng.Intn(3)], event(0), nil)
			case r == 9:
				e.Stop()
			case r == 10:
				e.Interrupt()
			}
			return true
		}
		return h
	}
	for ci := range clocks {
		for k := 1 + rng.Intn(3); k > 0; k-- {
			name := fmt.Sprintf("h%d.%d", ci, k)
			clocks[ci].RegisterNamed(name, handler(ci, name, 40+rng.Intn(200)))
		}
	}

	drv := NewRNG(seed ^ 0x9e3779b97f4a7c15) // slicing decisions
	for slice := 0; e.Pending() > 0; slice++ {
		if slice > 10000 {
			panic("laneScenario: model does not terminate")
		}
		switch drv.Intn(4) {
		case 0:
			e.Run(e.now + Time(drv.Intn(4000)))
		case 1:
			e.Run(boundary(drv))
		case 2:
			for k := 1 + drv.Intn(5); k > 0; k-- {
				e.Step()
			}
		case 3:
			// The horizon, not until, ends this slice: a finite until past
			// it would move now beyond events the horizon held back.
			e.setHorizon(boundary(drv) + Time(drv.Intn(2)))
			e.RunAll()
			e.setHorizon(TimeInfinity)
		}
		if e.Interrupted() {
			log = append(log, "interrupted")
			e.ClearInterrupt()
		}
		log = append(log, fmt.Sprintf("slice %d: now %d handled %d pending %d next %d seq %d peak %d",
			slice, e.now, e.Handled(), e.Pending(), e.NextEventTime(), e.NextSeq(), e.PeakPending()))
	}
	for i, c := range clocks {
		log = append(log, fmt.Sprintf("clock %d at cycle %d", i, c.Cycle()))
	}
	for i := range tr.ats {
		spans = append(spans, fmt.Sprintf("%d %s", tr.ats[i], tr.labels[i]))
	}
	return log, spans
}

// TestClockLaneMatchesHeapOrder is the proof obligation of the clock lane:
// on seeded random scenarios, dispatching ticks from the lane merged with
// the queue is indistinguishable — dispatch order, counters at every slice,
// tracer spans — from ticks that are queue events.
func TestClockLaneMatchesHeapOrder(t *testing.T) {
	seeds := 400
	if testing.Short() {
		seeds = 50
	}
	lane := func(e *Engine, f Hz) laneClock { return NewClock(e, f) }
	ticks := 0
	for seed := uint64(1); seed <= uint64(seeds); seed++ {
		wantLog, wantSpans := laneScenario(seed, newHeapClock)
		gotLog, gotSpans := laneScenario(seed, lane)
		if i := firstDiff(gotLog, wantLog); i >= 0 {
			t.Fatalf("seed %d: dispatch log diverges from the heap-only clock at line %d:\n got %s\nwant %s",
				seed, i, at(gotLog, i), at(wantLog, i))
		}
		if i := firstDiff(gotSpans, wantSpans); i >= 0 {
			t.Fatalf("seed %d: tracer spans diverge from the heap-only clock at span %d:\n got %s\nwant %s",
				seed, i, at(gotSpans, i), at(wantSpans, i))
		}
		ticks += len(wantSpans)
	}
	if ticks < 100*seeds {
		t.Fatalf("scenarios too small to mean anything: %d spans over %d seeds", ticks, seeds)
	}
}

// firstDiff returns the first index at which a and b differ, -1 if none.
func firstDiff(a, b []string) int {
	for i := range max(len(a), len(b)) {
		if i >= len(a) || i >= len(b) || a[i] != b[i] {
			return i
		}
	}
	return -1
}

func at(s []string, i int) string {
	if i < len(s) {
		return s[i]
	}
	return "<end>"
}
