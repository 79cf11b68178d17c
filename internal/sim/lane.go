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
// port's deliveries, a clock's ticks. Every entry has the lane's priority
// and label and takes the next engine sequence number when scheduled, so
// the lane is sorted under the engine's (time, priority, sequence) order
// as long as the producer's times never decrease. The engine merges the
// heads of its non-empty lanes with the heap top under that one order, so
// dispatch is exactly what a single heap would give while a monotone
// producer pays a ring append instead of two heap sifts.
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
	// the engine's merge scan reads one spot of the Lane.
	at      Time
	seq     uint64
	prio    Priority
	n       int // pending entries, the head included
	fn      Handler
	payload any

	// listed reports whether the lane is in the engine's lanes list. A
	// lane that empties stays listed until the next merge scan, so a
	// producer that refills it at once — a clock re-arming from its own
	// tick — never leaves and re-enters the list.
	listed bool

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
	l.eng, l.prio, l.label = e, prio, label
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
}

// append adds an entry at the tail with an already assigned sequence. The
// caller guarantees t is not before the tail.
func (l *Lane) append(t Time, seq uint64, fn Handler, payload any) {
	// n is kept in a local throughout: re-reading l.n right after storing
	// it stalls on store forwarding, and this runs once per event.
	n := l.n
	if n == 0 {
		l.at, l.seq, l.fn, l.payload = t, seq, fn, payload
		if !l.listed {
			l.list()
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
	l.eng.laneN++
}

// arm makes t, with sequence seq, the one entry of a clock's empty lane.
// A clock's entry is its next tick, so it stores no handler or payload.
func (l *Lane) arm(t Time, seq uint64) {
	l.at, l.seq, l.tail, l.n = t, seq, t, 1
	l.eng.laneN++
	if !l.listed {
		l.list()
	}
}

// list adds the lane to the engine's lanes list.
func (l *Lane) list() {
	l.listed = true
	l.eng.lanes = append(l.eng.lanes, l)
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

// pop removes the head entry, moving the next entry up from the ring, and
// returns the removed entry's handler and payload; the caller has read its
// time and counts it out of the engine's laneN. An emptied lane stays
// listed; the engine's next merge scan unlists it unless it refilled.
func (l *Lane) pop() (fn Handler, payload any) {
	fn, payload = l.fn, l.payload
	if n := l.n - 1; n != 0 {
		l.n = n
		l.advance()
	} else {
		l.n = 0
		l.fn, l.payload = nil, nil
	}
	return fn, payload
}

// advance moves the ring's first entry up to the head.
func (l *Lane) advance() {
	ev := &l.ring[l.head]
	l.at, l.seq, l.fn, l.payload = ev.time, ev.seq, ev.fn, ev.payload
	ev.fn, ev.payload = nil, nil
	l.head = (l.head + 1) & (len(l.ring) - 1)
}

// drop discards every pending entry (Engine.Restore, EventArena.Harvest);
// the ring stays.
func (l *Lane) drop() {
	clear(l.ring)
	l.fn, l.payload = nil, nil
	l.head, l.n = 0, 0
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
