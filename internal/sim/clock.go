package sim

import (
	"fmt"
	"time"
)

// ClockHandler is called once per tick with the current cycle number.
// Returning false unregisters the handler; it may be re-registered later
// with Clock.Register. Components that stall for long periods should
// deregister and re-register rather than spin, which keeps idle components
// free on the event queue.
type ClockHandler func(cycle Cycle) bool

// Clock turns the engine's continuous picosecond timeline into a discrete
// cycle domain at a fixed frequency. Many components may share one clock;
// a tick counts as a single dispatched event regardless of how many handlers
// are registered, and handlers run in registration order for determinism.
//
// An armed clock's pending tick is not an event on the engine's heap: it is
// the one entry of the clock's own Lane, which the engine merges with the
// heap and its other lanes at dispatch under the one (time, priority,
// sequence) order. Re-arming takes a sequence number exactly as scheduling
// an event does.
//
// Cycle-to-time conversion is exact (128-bit intermediate), so a 2.9 GHz
// clock does not drift against a 1333 MHz memory clock over billions of
// cycles.
type Clock struct {
	engine   *Engine
	freq     Hz
	cycle    Cycle
	handlers []ClockHandler
	// labels[i] attributes handlers[i] in traces: the name it registered
	// under, or the clock's own label if it gave none.
	labels []string
	armed  bool
	label  string

	// lane carries the pending tick while the clock is armed. tickSeq is
	// the engine sequence number of the latest tick scheduled; it is saved
	// in snapshots so a restored clock re-arms with identical
	// same-timestamp ordering (see checkpoint.go).
	lane    Lane
	tickSeq uint64
}

// NewClock creates a clock at freq driven by engine. The clock stays dormant
// until its first handler is registered.
func NewClock(engine *Engine, freq Hz) *Clock {
	if freq == 0 {
		panic("sim: zero-frequency clock")
	}
	c := &Clock{engine: engine, freq: freq, label: fmt.Sprintf("clock@%v", freq)}
	c.lane.Init(engine, PrioClock, c.label)
	c.lane.clock = c
	return c
}

// Freq returns the clock frequency.
func (c *Clock) Freq() Hz { return c.freq }

// Cycle returns the number of ticks delivered so far.
func (c *Clock) Cycle() Cycle { return c.cycle }

// Period returns the nominal tick duration (rounded to a picosecond).
func (c *Clock) Period() Time { return c.freq.Period() }

// NextCycle returns the cycle number of the first tick at or after the
// engine's current time. Used by components waking from a stall to convert
// a resume time into a cycle count.
func (c *Clock) NextCycle() Cycle {
	n := c.freq.CyclesIn(c.engine.Now())
	if c.freq.CycleTime(n) < c.engine.Now() {
		n++
	}
	return n
}

// Register adds h to the tick list and arms the clock if it was dormant.
// The first tick delivered to a newly armed clock is the next cycle boundary
// at or after the current time.
func (c *Clock) Register(h ClockHandler) { c.RegisterNamed("", h) }

// RegisterNamed is Register with a trace label: the handler's work (and any
// events it schedules) is attributed to name in traces instead of to the
// shared clock. Components pass their instance name, which is how per-core
// attribution works without the tracer touching component code.
func (c *Clock) RegisterNamed(name string, h ClockHandler) {
	if h == nil {
		panic("sim: Register with nil clock handler")
	}
	if name == "" {
		name = c.label
	}
	c.handlers = append(c.handlers, h)
	c.labels = append(c.labels, name)
	c.arm()
}

func (c *Clock) arm() {
	if c.armed || len(c.handlers) == 0 {
		return
	}
	c.armed = true
	if n := c.NextCycle(); c.cycle < n {
		c.cycle = n
	}
	c.schedule()
}

// schedule puts the tick for c.cycle into the clock's lane, taking the
// next engine sequence number as a scheduled event would. The lane holds
// only this tick, so it is empty here and the tick cannot undercut it.
func (c *Clock) schedule() {
	e := c.engine
	c.tickSeq = e.seq
	c.lane.arm(c.freq.CycleTime(c.cycle), e.seq)
	e.seq++
}

// traced runs one handler under an active tracer, emitting the per-handler
// span (the tick itself is one dispatched event no matter how many handlers
// share the clock).
func (c *Clock) traced(h ClockHandler, label string) bool {
	e := c.engine
	start := time.Now()
	keep := h(c.cycle)
	e.tracer.Event(e.now, label, time.Since(start))
	return keep
}

// tick delivers one cycle to every registered handler, dropping handlers
// that return false, then re-arms for the next cycle if any remain.
// Handlers registered from within a tick are preserved but first run on the
// following cycle. The steady tick — every handler stays — writes nothing
// to the handler lists.
func (c *Clock) tick() {
	e := c.engine
	n := len(c.handlers)
	j := 0
	for i := 0; i < n; i++ {
		h := c.handlers[i]
		// The handler runs with its label as the engine's current label,
		// so events it schedules inherit the component's attribution. The
		// label is left in place: nothing schedules between handlers, and
		// dispatchLane restores the engine's label after the whole tick.
		e.curLabel = c.labels[i]
		var keep bool
		if e.tracer == nil {
			keep = h(c.cycle)
		} else {
			keep = c.traced(h, c.labels[i])
		}
		if keep {
			if i != j {
				c.handlers[j] = h
				c.labels[j] = c.labels[i]
			}
			j++
		}
	}
	if j != n {
		// Handlers appended during the tick sit at indices >= n; close the
		// gap the dropped ones left below them.
		copy(c.labels[j:], c.labels[n:])
		j += copy(c.handlers[j:], c.handlers[n:])
		for i := j; i < len(c.handlers); i++ {
			c.handlers[i] = nil
			c.labels[i] = ""
		}
		c.handlers = c.handlers[:j]
		c.labels = c.labels[:j]
	}
	c.cycle++
	if len(c.handlers) > 0 {
		c.schedule()
	} else {
		c.armed = false
	}
}
