package sim

import "fmt"

// laneEvent is one pending entry of a Lane: an event less the priority and
// label, which the lane holds once for all its entries.
type laneEvent struct {
	time    Time
	seq     uint64
	fn      Handler
	payload any
}

// minLaneRing is the capacity of a lane's first ring when the engine has
// none to recycle.
const minLaneRing = 4

// Lane is a FIFO of events owned by one producer whose events come out in
// time order: a cache's responses, a DRAM channel's completions, a link
// port's deliveries, a clock's ticks, a network interface's injections and
// a network link's arrivals. Every entry has the lane's priority and label
// and takes the next engine sequence number when scheduled, so the lane is
// sorted under the engine's (time, priority, sequence) order as long as
// the producer's times never decrease. The engine keeps its non-empty
// lanes in a binary heap keyed by their heads and merges the top lane's
// head with the event heap's top under that one order, so dispatch is
// exactly what a single heap would give while a monotone producer pays a
// ring append instead of two sifts of a heap holding every pending event.
//
// Monotonicity is the producer's claim, not a precondition: an event
// earlier than the lane's newest entry goes to the engine's heap instead,
// with the same priority, label and sequence it would have had here.
//
// A Lane is embedded by value in its producer and bound with Init. Its
// head entry lives in the Lane itself, so a lane that never holds more
// than one entry — a clock — never touches a ring. Entries behind the head
// wait in a ring borrowed from the engine on first use and recycled
// through the engine's EventArena.
type Lane struct {
	// The head entry, valid when n > 0. at, seq and prio sit together so
	// the lane heap's compares read one spot of the Lane.
	at      Time
	seq     uint64
	prio    Priority
	n       int // pending entries, the head included
	fn      Handler
	payload any

	// hidx is the lane's slot in the engine's lane heap, -1 when it is not
	// in the heap. A lane is in the heap while it holds entries, and also
	// while its own head dispatches: it keeps its slot through the
	// handler, so a producer that refills it at once — a clock re-arming
	// from its own tick — costs the one re-sift the engine makes after the
	// handler returns, not a removal and a push.
	hidx int

	// ring holds the n-1 entries behind the head from ring[head] on,
	// wrapping; len(ring) is zero or a power of two. tail is the newest
	// entry's time, the bound a new entry must not undercut.
	head int
	ring []laneEvent
	tail Time

	eng   *Engine
	label string
	// clock, when set, makes this a clock's lane: its one entry is the
	// pending tick, which the engine dispatches by calling Clock.tick, so
	// the entry stores no handler or payload.
	clock *Clock
}

// Init binds the lane to e with a fixed same-timestamp priority and trace
// label. A lane is bound once.
func (l *Lane) Init(e *Engine, prio Priority, label string) {
	if l.eng != nil {
		panic("sim: Lane.Init on a bound lane")
	}
	l.eng, l.prio, l.label, l.hidx = e, prio, label, -1
}

// Schedule arranges for fn(payload) to run after delay at the lane's
// priority, attributed to the lane's label.
func (l *Lane) Schedule(delay Time, fn Handler, payload any) {
	l.schedule(l.eng.after(delay), fn, payload)
}

// ScheduleAt is Schedule with an absolute timestamp. As with
// Engine.ScheduleAt, a time in the past panics.
func (l *Lane) ScheduleAt(t Time, fn Handler, payload any) {
	if now := l.eng.now; t < now {
		panic(fmt.Sprintf("sim: lane %q event scheduled at %v, before now %v", l.label, t, now))
	}
	l.schedule(t, fn, payload)
}

func (l *Lane) schedule(t Time, fn Handler, payload any) {
	e := l.eng
	if fn == nil {
		panic("sim: Lane.Schedule with nil handler")
	}
	if l.n != 0 && t < l.tail {
		// Out of order for this lane: the heap keeps the global order.
		e.push(t, l.prio, l.label, fn, payload)
		return
	}
	l.append(t, e.seq, fn, payload)
	e.seq++
	e.laneN++
}

// ScheduleReserved puts fn(payload) on the lane at absolute time t under
// seq, a sequence number taken earlier with Engine.ReserveSeqs. The entry
// was counted pending when it was reserved, so it is not counted again. A
// reserved entry has no heap to fall back on: one that would undercut the
// lane's tail, or run in the past, panics.
func (l *Lane) ScheduleReserved(t Time, seq uint64, fn Handler, payload any) {
	e := l.eng
	switch {
	case fn == nil:
		panic("sim: Lane.ScheduleReserved with nil handler")
	case t < e.now:
		panic(fmt.Sprintf("sim: lane %q reserved event at %v, before now %v", l.label, t, e.now))
	case l.n != 0 && t < l.tail:
		panic(fmt.Sprintf("sim: lane %q reserved event at %v undercuts its tail %v", l.label, t, l.tail))
	case seq >= e.seq:
		panic(fmt.Sprintf("sim: lane %q event seq %d was never reserved", l.label, seq))
	}
	l.append(t, seq, fn, payload)
}

// append adds an entry at the tail with an already assigned sequence and
// leaves counting it to the caller. The caller guarantees t is not before
// the tail.
func (l *Lane) append(t Time, seq uint64, fn Handler, payload any) {
	// n is kept in a local throughout: re-reading l.n right after storing
	// it stalls on store forwarding, and this runs once per event.
	n := l.n
	if n == 0 {
		l.at, l.seq, l.fn, l.payload = t, seq, fn, payload
		if l.hidx < 0 {
			l.eng.pushLane(l)
		}
	} else {
		if n-1 == len(l.ring) {
			l.grow()
		}
		// Field by field: a composite literal goes through a stack
		// temporary whose 16-byte reload stalls on the 8-byte stores that
		// built it.
		ev := &l.ring[(l.head+n-1)&(len(l.ring)-1)]
		ev.time, ev.seq, ev.fn, ev.payload = t, seq, fn, payload
	}
	l.n = n + 1
	l.tail = t
}

// arm makes t, with sequence seq, the one entry of a clock's empty lane.
// A clock's entry is its next tick, so it stores no handler or payload.
func (l *Lane) arm(t Time, seq uint64) {
	l.at, l.seq, l.tail, l.n = t, seq, t, 1
	l.eng.laneN++
	if l.hidx < 0 {
		l.eng.pushLane(l)
	}
}

// grow gives a lane whose ring is full a ring twice the size, or its first
// ring — a recycled one when the engine has any. An outgrown ring is left
// to the collector: recycled, it would hand the next lane a ring it must
// outgrow again.
func (l *Lane) grow() {
	e := l.eng
	if len(l.ring) == 0 {
		if k := len(e.rings) - 1; k >= 0 {
			l.ring = e.rings[k]
			e.rings[k] = nil
			e.rings = e.rings[:k]
		} else {
			l.ring = make([]laneEvent, minLaneRing)
		}
		l.head = 0
		e.ringed = append(e.ringed, l)
		return
	}
	r := make([]laneEvent, 2*len(l.ring))
	k := copy(r, l.ring[l.head:])
	copy(r[k:], l.ring[:l.head])
	l.ring, l.head = r, 0
}

// next drops the head entry once its handler has returned, moving the next
// entry up from the ring. Until then the dispatched head stays in place and
// counted in n, so the lane's key in the engine's lane heap does not change
// under the handler and entries the handler appends queue behind it.
func (l *Lane) next() {
	if n := l.n - 1; n != 0 {
		l.n = n
		l.advance()
	} else {
		l.n = 0
		l.fn, l.payload = nil, nil
	}
}

// advance moves the ring's first entry up to the head.
func (l *Lane) advance() {
	ev := &l.ring[l.head]
	l.at, l.seq, l.fn, l.payload = ev.time, ev.seq, ev.fn, ev.payload
	ev.fn, ev.payload = nil, nil
	l.head = (l.head + 1) & (len(l.ring) - 1)
}

// drop discards every pending entry and leaves the lane out of the heap
// (Engine.Restore, EventArena.Harvest); the ring stays.
func (l *Lane) drop() {
	clear(l.ring)
	l.fn, l.payload = nil, nil
	l.head, l.n, l.hidx = 0, 0, -1
}

// before reports whether the lane's head precedes an event at
// (t, prio, seq) in the engine's dispatch order.
func (l *Lane) before(t Time, prio Priority, seq uint64) bool {
	if l.at != t {
		return l.at < t
	}
	if l.prio != prio {
		return l.prio < prio
	}
	return l.seq < seq
}

// The lane heap: Engine.lanes is a binary min-heap of lanes keyed by their
// heads under the dispatch order, each lane's hidx its slot. Outside a lane
// dispatch every lane in it is non-empty. During one, the dispatching lane
// stays in the heap under the key of the head being dispatched, a real
// key, so the heap stays ordered while the handler pushes other lanes; once
// the handler has returned, resift moves the lane to its next head's place
// or out of the heap. A clock's tick re-arms its lane as the tick's last
// act, when nothing more is pushed, so its new key is in place for resift.

// pushLane adds l, whose head was just set, to the lane heap.
func (e *Engine) pushLane(l *Lane) {
	e.lanes = append(e.lanes, l)
	e.laneUp(l, len(e.lanes)-1)
}

// resift repairs the lane heap at l, whose head has just dispatched: a
// lane with entries left sinks to its next head's place, which always
// follows the head it replaces, and an emptied one leaves the heap.
func (e *Engine) resift(l *Lane) {
	i := l.hidx
	if l.n != 0 {
		e.laneDown(l, i)
		return
	}
	l.hidx = -1
	last := len(e.lanes) - 1
	m := e.lanes[last]
	e.lanes[last] = nil
	e.lanes = e.lanes[:last]
	if i != last && !e.laneDown(m, i) {
		e.laneUp(m, i)
	}
}

// laneUp places l at slot i or above it.
func (e *Engine) laneUp(l *Lane, i int) {
	h := e.lanes
	for i > 0 {
		p := (i - 1) / 2
		q := h[p]
		if !l.before(q.at, q.prio, q.seq) {
			break
		}
		h[i], q.hidx = q, i
		i = p
	}
	h[i], l.hidx = l, i
}

// laneDown places l at slot i or below it and reports whether it moved.
func (e *Engine) laneDown(l *Lane, i int) bool {
	h := e.lanes
	n, i0 := len(h), i
	for {
		c := 2*i + 1
		if c >= n {
			break
		}
		k := h[c]
		if r := c + 1; r < n {
			if q := h[r]; q.before(k.at, k.prio, k.seq) {
				c, k = r, q
			}
		}
		if !k.before(l.at, l.prio, l.seq) {
			break
		}
		h[i], k.hidx = k, i
		i = c
	}
	h[i], l.hidx = l, i
	return i != i0
}
