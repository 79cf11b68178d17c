package sim

// EventArena carries an engine's recycled event structs, queue backing and
// lane rings across engine lifetimes. A sweep worker lends the arena to
// each design point's engine in turn: Lend moves the pooled storage into a
// fresh engine, Harvest takes it back — scrubbed — when the point is done,
// so consecutive points reuse one working set instead of growing a new
// free list from nothing.
//
// Lending is a move, not a share: while an engine holds the storage the
// arena is empty, so a point that dies mid-run can at worst lose the
// pooled events to the garbage collector — it can never leak its state
// into the next point. Harvest clears every handler, payload and label
// reference before the arena accepts an event or a ring back.
type EventArena struct {
	free  []*event
	qbuf  []*event
	rings [][]laneEvent
	// lanes and ringed are the backing of the engine's lane heap and
	// ring-holder list, kept so a warm point does not regrow them.
	lanes, ringed []*Lane
}

// DefaultArenaEvents is the high-water trim of an EventArena: Harvest
// keeps at most this many events, and lane rings holding at most this many
// entries, bounding what a pathological point (a huge pending-queue spike)
// can make every later point carry. It is far above any model's
// steady-state pending count, low enough that a resident server's
// per-worker arenas stay small (~4 MB at 64 B/event).
const DefaultArenaEvents = 1 << 16

// NewEventArena returns an empty arena.
func NewEventArena() *EventArena { return &EventArena{} }

// Len reports how many recycled events the arena currently holds.
func (a *EventArena) Len() int { return len(a.free) }

// Lend moves the arena's pooled storage into e. Call once, on a freshly
// constructed engine. The arena is empty until the matching Harvest.
func (a *EventArena) Lend(e *Engine) {
	if len(e.free) > 0 || e.Pending() > 0 || len(e.ringed) > 0 {
		panic("sim: EventArena.Lend on an engine that is already running")
	}
	e.free = a.free
	a.free = nil
	if a.qbuf != nil {
		e.q.a = a.qbuf[:0]
		a.qbuf = nil
	}
	e.rings, e.lanes, e.ringed = a.rings, a.lanes, a.ringed
	a.rings, a.lanes, a.ringed = nil, nil, nil
}

// Harvest takes the storage back from a finished (or failed) engine:
// events still pending in the queue are scrubbed of their handler, payload
// and label and joined to the free list, every lane's ring is scrubbed and
// detached from its lane, the lists are trimmed to the arena's high-water
// cap, and the engine is left empty. Safe after an interrupted or panicked
// run — nothing of the run survives but the bare structs and rings.
func (a *EventArena) Harvest(e *Engine) {
	e.discard()
	if len(e.free) > DefaultArenaEvents {
		clear(e.free[DefaultArenaEvents:])
		e.free = e.free[:DefaultArenaEvents]
	}
	a.free = e.free
	a.qbuf = e.q.a[:0]
	e.free = nil
	e.q.a = nil

	// Rings are taken from the end of the list, so harvesting in reverse
	// hands a same-shaped next point's lanes, in first-use order, the
	// rings they held here, already grown to fit.
	for i := len(e.ringed) - 1; i >= 0; i-- {
		l := e.ringed[i]
		clear(l.ring)
		e.rings = append(e.rings, l.ring)
		l.ring, l.head = nil, 0
	}
	kept := 0
	a.rings = e.rings[:0]
	for _, r := range e.rings {
		if kept+len(r) <= DefaultArenaEvents {
			kept += len(r)
			a.rings = append(a.rings, r)
		}
	}
	clear(e.rings[len(a.rings):])
	clear(e.ringed)
	a.lanes, a.ringed = e.lanes[:0], e.ringed[:0]
	e.rings, e.lanes, e.ringed = nil, nil, nil
}
