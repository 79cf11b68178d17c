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

	// lanes is the lane heap (lane.go): the engine's busy Lanes — each
	// armed clock's pending tick and every monotone producer's FIFO — in a
	// binary heap keyed by their heads. peek merges the top lane's head
	// with the event heap's top under the one (time, priority, sequence)
	// order, so dispatch order is what a single heap would give while a
	// lane append costs no sifts and a lane dispatch one sift of a heap
	// holding a lane per busy producer rather than an event per pending
	// entry. laneN counts the events waiting in the lanes, reserved
	// entries not yet on their lane (ReserveSeqs) included.
	lanes []*Lane
	laneN int

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

	// ringed lists every lane holding a ring and rings the scrubbed rings
	// free for the next lane that needs one; EventArena moves both between
	// engines with the event free list. Only a lane's first ring touches
	// them, so they sit after the fields every dispatch reads.
	ringed []*Lane
	rings  [][]laneEvent
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
// queued events plus the lanes' entries (one pending tick per armed clock
// among them).
func (e *Engine) Pending() int { return e.q.Len() + e.laneN }

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

// NextEventTime returns the timestamp of the earliest pending event, lane
// entry or clock tick, or TimeInfinity when nothing is pending. The
// parallel runtime uses it to fast-forward across globally idle windows.
func (e *Engine) NextEventTime() Time {
	_, at := e.peek()
	return at
}

// peek finds what dispatches next without removing it: the head of the
// top lane of the lane heap when lane is true, else the queue's top. at is
// its timestamp, TimeInfinity when nothing is pending. An engine with no
// busy lane pays one length check.
func (e *Engine) peek() (lane bool, at Time) {
	if len(e.lanes) != 0 {
		return e.peekLane()
	}
	return false, e.q.topTime()
}

// peekLane is peek's merge, given a busy lane: the top lane's head wins
// unless the queue's top precedes it.
func (e *Engine) peekLane() (lane bool, at Time) {
	l := e.lanes[0]
	if ev := e.q.Peek(); ev != nil && !l.before(ev.time, ev.prio, ev.seq) {
		return false, ev.time
	}
	return true, l.at
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
	e.push(e.after(delay), prio, label, fn, payload)
}

// after returns the time delay from now; overflow clamps to the end of
// time.
func (e *Engine) after(delay Time) Time {
	if t := e.now + delay; t >= e.now {
		return t
	}
	return TimeInfinity
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

// push enqueues an event under the next sequence number.
func (e *Engine) push(t Time, prio Priority, label string, fn Handler, payload any) {
	seq := e.seq
	e.seq = seq + 1
	e.pushAt(t, prio, label, fn, payload, seq)
}

// ReserveSeqs takes the next k sequence numbers for entries a producer will
// put on its lane later, one at a time, with Lane.ScheduleReserved, and
// returns the first. The k entries count as pending lane entries from now
// on, so Pending, PeakPending and the order of everything scheduled around
// them are what k immediate lane appends would give, while the producer
// holds only the next one on its lane. Restore and EventArena.Harvest drop
// reservations with the lanes.
func (e *Engine) ReserveSeqs(k int) uint64 {
	seq := e.seq
	e.seq += uint64(k)
	e.laneN += k
	return seq
}

// pushAt enqueues an event with an explicit sequence number, without
// advancing the counter: push's body, and the restore path's with a
// previously assigned number.
func (e *Engine) pushAt(t Time, prio Priority, label string, fn Handler, payload any, seq uint64) {
	var ev *event
	if n := len(e.free) - 1; n >= 0 {
		ev = e.free[n]
		e.free[n] = nil
		e.free = e.free[:n]
	} else {
		ev = new(event)
	}
	ev.time, ev.prio, ev.seq, ev.fn, ev.payload = t, prio, seq, fn, payload
	if label != "" {
		// Recycled events always arrive with a cleared label, so the
		// unlabeled hot path skips the string store (and its write
		// barrier) entirely.
		ev.label = label
	}
	e.q.Push(ev)
}

// discard drops every pending event: queued events are scrubbed of their
// handler, payload and label and join the free list, and the lanes are
// emptied and leave the lane heap (Restore, EventArena.Harvest).
func (e *Engine) discard() {
	for _, ev := range e.q.a {
		ev.fn, ev.payload, ev.label = nil, nil, ""
		e.free = append(e.free, ev)
	}
	clear(e.q.a)
	e.q.a = e.q.a[:0]
	for _, l := range e.lanes {
		l.drop()
	}
	clear(e.lanes)
	e.lanes, e.laneN = e.lanes[:0], 0
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
	if !lane && e.q.Len() == 0 {
		return false
	}
	if n := e.Pending(); n > e.peak {
		e.peak = n
	}
	if lane {
		e.dispatchLane()
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

// dispatchLane takes the head of the top lane and dispatches it with the
// same bookkeeping dispatch gives a queued event under the lane's label:
// one handled event, one tracer span, the engine's label restored
// afterwards. A clock's tick is one such event however many handlers share
// the clock; it calls Clock.tick directly, which runs each handler under
// its own label. The lane stays in the lane heap under the dispatched
// head's key through the handler and is re-sifted once after it.
func (e *Engine) dispatchLane() {
	l := e.lanes[0]
	if l.at < e.now {
		panic(fmt.Sprintf("sim: time ran backwards: %v -> %v", e.now, l.at))
	}
	e.now = l.at
	e.handled++
	e.laneN--
	if c := l.clock; c != nil {
		l.n = 0 // the tick was the lane's only entry; tick may re-arm it
		prev := e.curLabel
		if e.tracer == nil {
			c.tick()
		} else {
			start := time.Now()
			c.tick()
			e.tracer.Event(e.now, l.label, time.Since(start))
		}
		e.curLabel = prev
		e.resift(l)
		return
	}
	fn, payload := l.fn, l.payload
	if e.tracer == nil && len(l.label)|len(e.curLabel) == 0 {
		fn(payload)
		l.next()
		e.resift(l)
		return
	}
	prev := e.curLabel
	e.curLabel = l.label
	if e.tracer == nil {
		fn(payload)
	} else {
		start := time.Now()
		fn(payload)
		e.tracer.Event(e.now, l.label, time.Since(start))
	}
	e.curLabel = prev
	l.next()
	e.resift(l)
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
		// compiler's inlining budget, and an engine with no busy lane
		// must pay one length check here, not a call per event.
		lane, at := false, e.q.topTime()
		if len(e.lanes) != 0 {
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
		if lane {
			e.dispatchLane()
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
