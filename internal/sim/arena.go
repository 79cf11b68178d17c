package sim

// EventArena carries an engine's recycled event structs and queue backing
// across engine lifetimes. A sweep worker lends the arena to each design
// point's engine in turn: Lend moves the pooled storage into a fresh
// engine, Harvest takes it back — scrubbed — when the point is done, so
// consecutive points reuse one working set instead of growing a new free
// list from nothing.
//
// Lending is a move, not a share: while an engine holds the storage the
// arena is empty, so a point that dies mid-run can at worst lose the
// pooled events to the garbage collector — it can never leak its state
// into the next point. Harvest clears every handler, payload and label
// reference before the arena accepts an event back.
type EventArena struct {
	free []*event
	qbuf []*event
	// max is the high-water trim: Harvest keeps at most this many events,
	// bounding what a pathological point (huge pending-queue spike) can
	// make every later point carry. Non-positive means DefaultArenaEvents.
	max int
}

// DefaultArenaEvents bounds the retained free list of an EventArena:
// far above any model's steady-state pending count, low enough that a
// resident server's per-worker arenas stay small (~4 MB at 64 B/event).
const DefaultArenaEvents = 1 << 16

// NewEventArena returns an empty arena with the default high-water trim.
func NewEventArena() *EventArena { return &EventArena{max: DefaultArenaEvents} }

// SetMaxEvents overrides the high-water trim; n <= 0 restores the default.
func (a *EventArena) SetMaxEvents(n int) {
	if n <= 0 {
		n = DefaultArenaEvents
	}
	a.max = n
}

// Len reports how many recycled events the arena currently holds.
func (a *EventArena) Len() int { return len(a.free) }

// Lend moves the arena's pooled storage into e. Call once, on a freshly
// constructed engine. The arena is empty until the matching Harvest.
func (a *EventArena) Lend(e *Engine) {
	if len(e.free) > 0 || e.Pending() > 0 {
		panic("sim: EventArena.Lend on an engine that is already running")
	}
	e.free = a.free
	a.free = nil
	if a.qbuf != nil {
		e.q.a = a.qbuf[:0]
		a.qbuf = nil
	}
}

// Harvest takes the storage back from a finished (or failed) engine:
// events still pending in the queue are scrubbed of their handler, payload
// and label and joined to the free list, the list is trimmed to the
// arena's high-water cap, and the engine is left empty. Safe after an
// interrupted or panicked run — nothing of the run survives but the bare
// structs.
func (a *EventArena) Harvest(e *Engine) {
	for _, ev := range e.q.a {
		ev.fn, ev.payload, ev.label = nil, nil, ""
		e.free = append(e.free, ev)
	}
	max := a.max
	if max <= 0 {
		max = DefaultArenaEvents
	}
	if len(e.free) > max {
		for i := max; i < len(e.free); i++ {
			e.free[i] = nil
		}
		e.free = e.free[:max]
	}
	a.free = e.free
	a.qbuf = e.q.a[:0]
	e.free = nil
	e.q.a = nil
	e.lane = nil
}
