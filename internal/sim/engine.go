package sim

import (
	"errors"
	"fmt"
	"sync/atomic"
	"time"
)

// ErrInterrupted reports that a run was cut short by Engine.Interrupt (an
// operator Ctrl-C, a watchdog, a cooperating runtime). Callers wrap it so
// errors.Is(err, sim.ErrInterrupted) identifies interruption at any layer.
var ErrInterrupted = errors.New("sim: interrupted")

// interruptMask sets how often the run loop polls the interrupt flag: every
// 64 dispatched events, i.e. every few microseconds of host time, which
// keeps the per-event cost to a masked compare while still bounding the
// latency of Ctrl-C and of the parallel runtime's stall watchdog — even
// when a model is stuck in a zero-delay event loop that never returns to
// the caller.
const interruptMask = 63

// Engine is a sequential discrete-event scheduler. It owns simulated time:
// components schedule work in the future and the engine invokes handlers in
// deterministic (time, priority, insertion) order.
//
// An Engine is not safe for concurrent use; the parallel runtime in
// internal/par gives each rank its own Engine and synchronizes between them.
type Engine struct {
	now     Time
	seq     uint64
	q       eventQueue
	stopped bool

	// lane holds the armed clocks, each standing for its one pending tick
	// at (nextAt, prio, tickSeq). Ticks never enter q: peek merges the
	// lane's minimum against the heap top under the same (time, priority,
	// sequence) order, so dispatch order is what a single heap would give
	// while the periodic re-arm costs an append instead of two sifts. A
	// linear scan suffices: a node has one or two clocks.
	lane []*Clock

	// handled counts events dispatched since construction.
	handled uint64

	// free recycles event structs to keep the hot loop allocation-free.
	// A plain slice, not a sync.Pool: the Engine is single-threaded by
	// contract (see above), so a pool's atomic Get/Put and per-P caches
	// are pure overhead here, and unlike a pool the free list is never
	// emptied by GC cycles. Its length is bounded by the high-water mark
	// of concurrently pending events.
	free []*event

	// onIdle, if set, is consulted when the local queue empties or the
	// local horizon is reached; the parallel runtime uses it to block for
	// remote events. It returns false when the simulation should stop.
	onIdle func() bool

	// horizon bounds how far this engine may advance before onIdle must
	// be consulted again. TimeInfinity for purely sequential runs.
	horizon Time

	// intr is the only Engine field safe to touch from another goroutine:
	// Interrupt sets it, the run loop polls it every interruptMask+1
	// events. It is sticky until ClearInterrupt so that window-based
	// callers (internal/par) observe it across Run calls.
	intr atomic.Bool

	// peak is the high-water mark of the pending-event queue.
	peak int

	// curLabel is the label of the event being dispatched; events scheduled
	// from inside a handler inherit it, which is how completions deep in a
	// cache/DRAM call chain stay attributed to the component that started
	// them without every Schedule call naming itself.
	curLabel string

	// tracer, when set, observes every dispatched event. Nil in normal
	// runs: the disabled path costs one predictable branch per event.
	tracer Tracer

	// snap, when allocated by EnableSnapshots, holds the checkpoint
	// registry (see checkpoint.go). Nil in normal runs; the dispatch and
	// schedule paths never touch it.
	snap *engineSnap
}

// Tracer observes dispatched events when installed with SetTracer. at is
// the event's simulated time, label the attributed component or link name
// ("" when unattributed), and dur the host time the handler took.
// Implementations must not call back into the engine's scheduling methods
// from Event.
type Tracer interface {
	Event(at Time, label string, dur time.Duration)
}

// NewEngine returns an empty engine at time zero.
func NewEngine() *Engine {
	return &Engine{horizon: TimeInfinity}
}

// Now returns the current simulated time.
func (e *Engine) Now() Time { return e.now }

// Handled returns the number of events dispatched so far.
func (e *Engine) Handled() uint64 { return e.handled }

// Pending returns the number of events waiting to be dispatched: the
// queued events plus one pending tick per armed clock.
func (e *Engine) Pending() int { return e.q.Len() + len(e.lane) }

// PeakPending returns the high-water mark of Pending since construction — a
// capacity statistic for run reports. The mark is observed at dispatch
// boundaries rather than on every push: between two dispatches the pending
// count only grows, so its value just before a dispatch — plus the value at
// this read — is the exact maximum, at no cost to the schedule path.
func (e *Engine) PeakPending() int {
	if n := e.Pending(); n > e.peak {
		e.peak = n
	}
	return e.peak
}

// SetTracer installs (or, with nil, removes) the event tracer. Tracing
// adds two host-clock reads per event; with no tracer the dispatch path is
// unchanged except for one nil check.
func (e *Engine) SetTracer(t Tracer) { e.tracer = t }

// NextEventTime returns the timestamp of the earliest pending event or
// clock tick, or TimeInfinity when nothing is pending. The parallel runtime
// uses it to fast-forward across globally idle windows.
func (e *Engine) NextEventTime() Time {
	_, at := e.peek()
	return at
}

// peek finds what dispatches next without removing it: the armed clock
// e.lane[lane] when lane >= 0, else the queue's top. at is its timestamp,
// TimeInfinity when nothing is pending. An engine with no armed clock pays
// one length check.
func (e *Engine) peek() (lane int, at Time) {
	if len(e.lane) != 0 {
		return e.peekLane()
	}
	return -1, e.q.topTime()
}

// peekLane is peek's merge, given at least one armed clock: the lane's
// earliest tick wins unless the heap top precedes it.
func (e *Engine) peekLane() (lane int, at Time) {
	c := e.lane[0]
	for i, k := range e.lane[1:] {
		if k.tickBefore(c.nextAt, c.prio, c.tickSeq) {
			lane, c = i+1, k
		}
	}
	if ev := e.q.Peek(); ev != nil && !c.tickBefore(ev.time, ev.prio, ev.seq) {
		return -1, ev.time
	}
	return lane, c.nextAt
}

// Schedule arranges for fn(payload) to run after delay, with default link
// priority ordering among same-time events.
func (e *Engine) Schedule(delay Time, fn Handler, payload any) {
	e.SchedulePrio(delay, PrioLink, fn, payload)
}

// SchedulePrio arranges for fn(payload) to run after delay at the given
// same-timestamp priority.
func (e *Engine) SchedulePrio(delay Time, prio Priority, fn Handler, payload any) {
	e.ScheduleLabeled(delay, prio, e.curLabel, fn, payload)
}

// ScheduleLabeled is SchedulePrio with an explicit trace label, overriding
// the inherited one. Chokepoints that act on behalf of many components —
// links, clocks, memory devices — use it to seed attribution.
func (e *Engine) ScheduleLabeled(delay Time, prio Priority, label string, fn Handler, payload any) {
	if fn == nil {
		panic("sim: Schedule with nil handler")
	}
	t := e.now + delay
	if t < e.now {
		t = TimeInfinity // overflow clamps to the end of time
	}
	e.push(t, prio, label, fn, payload)
}

// ScheduleAt is SchedulePrio with an absolute timestamp. Scheduling into
// the past is a programming error and panics: it would silently violate
// causality.
func (e *Engine) ScheduleAt(t Time, prio Priority, fn Handler, payload any) {
	e.ScheduleLabeledAt(t, prio, e.curLabel, fn, payload)
}

// ScheduleLabeledAt is ScheduleAt with an explicit trace label.
func (e *Engine) ScheduleLabeledAt(t Time, prio Priority, label string, fn Handler, payload any) {
	if fn == nil {
		panic("sim: ScheduleAt with nil handler")
	}
	if t < e.now {
		panic(fmt.Sprintf("sim: event scheduled at %v, before now %v", t, e.now))
	}
	e.push(t, prio, label, fn, payload)
}

func (e *Engine) push(t Time, prio Priority, label string, fn Handler, payload any) {
	var ev *event
	if n := len(e.free) - 1; n >= 0 {
		ev = e.free[n]
		e.free[n] = nil
		e.free = e.free[:n]
	} else {
		ev = new(event)
	}
	ev.time, ev.prio, ev.seq, ev.fn, ev.payload = t, prio, e.seq, fn, payload
	if label != "" {
		// Recycled events always arrive with a cleared label, so the
		// unlabeled hot path skips the string store (and its write
		// barrier) entirely.
		ev.label = label
	}
	e.seq++
	e.q.Push(ev)
}

// Stop makes the current Run return after the in-flight handler completes.
func (e *Engine) Stop() { e.stopped = true }

// Interrupt asks the engine to stop dispatching as soon as possible. Unlike
// every other Engine method it is safe to call from any goroutine: signal
// handlers and the parallel runtime's stall watchdog use it to unstick a
// run — including a model spinning in a zero-delay event loop. The flag is
// sticky; Run returns immediately until ClearInterrupt.
func (e *Engine) Interrupt() { e.intr.Store(true) }

// Interrupted reports whether Interrupt has been called and not yet
// cleared. Safe from any goroutine.
func (e *Engine) Interrupted() bool { return e.intr.Load() }

// ClearInterrupt re-arms an interrupted engine.
func (e *Engine) ClearInterrupt() { e.intr.Store(false) }

// setIdleHook installs the parallel runtime's blocking hook. Internal to
// the sim/par pair.
func (e *Engine) setIdleHook(h func() bool) { e.onIdle = h }

// setHorizon bounds event dispatch: events at or beyond t stay queued until
// the horizon is raised. Internal to the sim/par pair.
func (e *Engine) setHorizon(t Time) { e.horizon = t }

// Step dispatches the single earliest event. It reports false when the
// queue is empty or the engine was stopped.
func (e *Engine) Step() bool {
	if e.stopped {
		return false
	}
	lane, _ := e.peek()
	if lane < 0 && e.q.Len() == 0 {
		return false
	}
	if n := e.Pending(); n > e.peak {
		e.peak = n
	}
	if lane >= 0 {
		e.dispatchTick(lane)
	} else {
		e.dispatch(e.q.Pop())
	}
	return true
}

func (e *Engine) dispatch(ev *event) {
	if ev.time < e.now {
		panic(fmt.Sprintf("sim: time ran backwards: %v -> %v", e.now, ev.time))
	}
	e.now = ev.time
	fn, payload := ev.fn, ev.payload
	ev.fn, ev.payload = nil, nil
	e.handled++
	if e.tracer == nil && len(ev.label)|len(e.curLabel) == 0 {
		// Unlabeled untraced dispatch: nothing to save, restore or clear.
		// This is the hot loop; the guard is length arithmetic only — a
		// full string compare would cost a runtime memequal call per
		// event, and the label string is never materialized.
		e.free = append(e.free, ev)
		fn(payload)
		return
	}
	label := ev.label
	ev.label = "" // keep recycled events label-free; see push
	e.free = append(e.free, ev)
	prev := e.curLabel
	e.curLabel = label
	if e.tracer == nil {
		fn(payload)
	} else {
		start := time.Now()
		fn(payload)
		e.tracer.Event(e.now, label, time.Since(start))
	}
	e.curLabel = prev
}

// dispatchTick takes the armed clock e.lane[i] out of the lane and delivers
// its tick, with the same bookkeeping dispatch gives a queued event labeled
// with the clock: one handled event, one tracer span under the clock's
// label, the engine's label restored afterwards (each handler runs under
// its own; see Clock.tick). The clock re-enters the lane from inside tick
// if any handler remains.
func (e *Engine) dispatchTick(i int) {
	c := e.lane[i]
	last := len(e.lane) - 1
	e.lane[i] = e.lane[last]
	e.lane[last] = nil
	e.lane = e.lane[:last]
	if c.nextAt < e.now {
		panic(fmt.Sprintf("sim: time ran backwards: %v -> %v", e.now, c.nextAt))
	}
	e.now = c.nextAt
	e.handled++
	prev := e.curLabel
	if e.tracer == nil {
		c.tick()
	} else {
		start := time.Now()
		c.tick()
		e.tracer.Event(e.now, c.label, time.Since(start))
	}
	e.curLabel = prev
}

// Run dispatches events until the queue drains, Stop is called, or the next
// event lies strictly after until. It returns the number of events handled
// during this call. On return the engine's clock rests at the time of the
// last handled event (or `until` if the queue drained earlier and `until`
// is finite).
func (e *Engine) Run(until Time) uint64 {
	e.stopped = false
	start := e.handled
	if e.intr.Load() {
		return 0
	}
	for !e.stopped {
		if e.handled&interruptMask == 0 && e.intr.Load() {
			break
		}
		// peek, spelled out: its call to peekLane puts it over the
		// compiler's inlining budget, and an engine with no armed clock
		// must pay one length check here, not a call per event.
		lane, at := -1, e.q.topTime()
		if len(e.lane) != 0 {
			lane, at = e.peekLane()
		}
		for at >= e.horizon { // also "nothing pending": horizon <= TimeInfinity
			if e.onIdle == nil || !e.onIdle() {
				goto done
			}
			lane, at = e.peek()
		}
		if at > until {
			break
		}
		if n := e.Pending(); n > e.peak {
			e.peak = n
		}
		if lane >= 0 {
			e.dispatchTick(lane)
		} else {
			e.dispatch(e.q.Pop())
		}
	}
done:
	if until != TimeInfinity && e.now < until && !e.stopped && !e.intr.Load() {
		e.now = until
	}
	return e.handled - start
}

// RunAll dispatches events until the queue is exhausted or Stop is called.
func (e *Engine) RunAll() uint64 { return e.Run(TimeInfinity) }
