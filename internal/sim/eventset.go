package sim

// The owned-event ledger: EventSet, and a tracked Link's two EventSets, one
// per direction. See checkpoint.go for how owned events cross a snapshot.

import (
	"cmp"
	"fmt"
	"slices"
)

// ownedEvent is one tracked pending event. A dispatched event stays in
// place as a tombstone until the set next compacts.
type ownedEvent struct {
	seq     uint64
	at      Time
	prio    Priority
	done    bool
	payload any
}

// EventSet gives closure-heavy components checkpointable scheduling: all
// events in a set share one dispatch function, the payload identifies the
// work, and the set tracks which events are pending so Save/Load can carry
// them across a snapshot. With snapshots disabled the set is a passthrough
// to the engine (one nil check per schedule).
//
// The engine issues sequence numbers in increasing order and a restore
// re-creates events below every number issued after it, so the tracked
// events form a list in sequence order: a new event is appended, a
// dispatched one is found by binary search and tombstoned, and the list is
// compacted on Save or once tombstones outnumber live events.
type EventSet struct {
	eng   *Engine
	label string
	fn    Handler
	pend  []ownedEvent // nil when snapshots are disabled
	live  int          // entries of pend not yet dispatched
}

// NewEventSet creates a set dispatching through fn with the given trace
// label. Tracking activates only if the engine's snapshots are enabled at
// creation time.
func NewEventSet(e *Engine, label string, fn Handler) *EventSet {
	if fn == nil {
		panic("sim: NewEventSet with nil dispatch")
	}
	s := &EventSet{eng: e, label: label, fn: fn}
	if e.SnapshotsEnabled() {
		s.pend = []ownedEvent{}
	}
	return s
}

// ScheduleAt schedules fn(payload) at absolute time t. The payload must
// have a registered snapshot codec when tracking is active.
func (s *EventSet) ScheduleAt(t Time, prio Priority, payload any) {
	if s.pend == nil {
		s.eng.ScheduleLabeledAt(t, prio, s.label, s.fn, payload)
		return
	}
	seq := s.eng.NextSeq()
	s.eng.ScheduleLabeledAt(t, prio, s.label, s.add(seq, t, prio, payload), payload)
}

// ScheduleOn schedules the set's dispatch function on payload at absolute
// time t on lane l, a monotone producer's lane bound to the set's engine,
// with the lane's priority and label (an entry that undercuts the lane's
// tail goes to the heap, as for any lane entry). With tracking active the
// event enters the ledger exactly as ScheduleAt's would, so tracked and
// untracked sets share this one path; a restored event goes to the heap,
// and the merge keeps it in order with the lane's later entries.
func (s *EventSet) ScheduleOn(l *Lane, t Time, payload any) {
	fn := s.fn
	if s.pend != nil {
		fn = s.add(s.eng.NextSeq(), t, l.prio, payload)
	}
	l.ScheduleAt(t, fn, payload)
}

// add appends an event, whose seq must follow every tracked one, to the
// ledger and returns its handler: retire the event, then run the set's
// dispatch function.
func (s *EventSet) add(seq uint64, at Time, prio Priority, payload any) Handler {
	if n := len(s.pend); n > 0 && s.pend[n-1].seq >= seq {
		panic(fmt.Sprintf("sim: EventSet %q event seq %d not after tracked seq %d", s.label, seq, s.pend[n-1].seq))
	}
	s.pend = append(s.pend, ownedEvent{seq: seq, at: at, prio: prio, payload: payload})
	s.live++
	return func(p any) {
		s.retire(seq)
		s.fn(p)
	}
}

// retire tombstones the dispatched event seq.
func (s *EventSet) retire(seq uint64) {
	i, ok := slices.BinarySearchFunc(s.pend, seq, func(ev ownedEvent, seq uint64) int { return cmp.Compare(ev.seq, seq) })
	if !ok || s.pend[i].done {
		panic(fmt.Sprintf("sim: EventSet %q dispatched untracked event seq %d", s.label, seq))
	}
	s.pend[i].done, s.pend[i].payload = true, nil
	s.live--
	if len(s.pend)-s.live > s.live {
		s.compact()
	}
}

// compact drops the tombstones and returns the live events, in sequence
// order.
func (s *EventSet) compact() []ownedEvent {
	k := 0
	for _, ev := range s.pend {
		if !ev.done {
			s.pend[k] = ev
			k++
		}
	}
	clear(s.pend[k:])
	s.pend = s.pend[:k]
	return s.pend
}

// reset forgets every tracked event: Engine.Restore has already discarded
// them from the queue.
func (s *EventSet) reset() {
	clear(s.pend)
	s.pend = s.pend[:0]
	s.live = 0
}

// PendingOwned implements PendingOwner for the set's owner.
func (s *EventSet) PendingOwned() int { return s.live }

// Save writes the set's pending events in sequence order.
func (s *EventSet) Save(enc *Encoder) { s.SaveWith(enc, 0, nil) }

// HeldEvent is a pending event its set's owner holds outside the ledger:
// one the owner will put on a lane under a reserved sequence number
// (Engine.ReserveSeqs, Lane.ScheduleReserved), with the payload it will
// carry then.
type HeldEvent struct {
	Seq     uint64
	At      Time
	Prio    Priority
	Payload any
}

// SaveWith is Save with the owner's n held events, which next returns one
// call at a time in sequence order, merged into the ledger's by sequence:
// the bytes are those of a set that had tracked every held event since
// its number was reserved, so Load re-creates them as tracked events and
// the owner starts with nothing held. A held event's payload need stay
// valid only until the next call.
func (s *EventSet) SaveWith(enc *Encoder, n int, next func() HeldEvent) {
	pend := s.compact()
	enc.U64(uint64(len(pend) + n))
	var h HeldEvent
	if n > 0 {
		h = next()
	}
	for len(pend)+n > 0 {
		if n == 0 || len(pend) > 0 && pend[0].seq < h.Seq {
			ev := &pend[0]
			pend = pend[1:]
			saveEvent(enc, ev.seq, ev.at, ev.prio, ev.payload)
			continue
		}
		saveEvent(enc, h.Seq, h.At, h.Prio, h.Payload)
		if n--; n > 0 {
			h = next()
		}
	}
}

func saveEvent(enc *Encoder, seq uint64, at Time, prio Priority, payload any) {
	enc.U64(seq)
	enc.Time(at)
	enc.I64(int64(prio))
	EncodePayload(enc, payload)
}

// Load re-creates the set's pending events from a snapshot. Restore-path
// only (the owning component's LoadState). Events the rebuilt model
// scheduled at construction time are forgotten first: Engine.Restore has
// already discarded them from the queue.
func (s *EventSet) Load(dec *Decoder) error {
	if s.pend == nil {
		return fmt.Errorf("sim: EventSet %q restore without snapshot tracking", s.label)
	}
	s.reset()
	return load(dec, func() (*EventSet, Priority) { return s, Priority(dec.I64()) })
}

// load re-creates a ledger's events from a snapshot: a count, then each
// event's seq, time, a field from which route decodes the event's set and
// priority, and payload.
func load(dec *Decoder, route func() (*EventSet, Priority)) error {
	n := dec.U64()
	for i := uint64(0); i < n; i++ {
		seq, at := dec.U64(), dec.Time()
		s, prio := route()
		payload, err := DecodePayload(dec)
		if err != nil {
			return err
		}
		s.eng.ScheduleRestoredAt(at, prio, seq, s.label, s.add(seq, at, prio, payload), payload)
	}
	return dec.Err()
}

// --- Link in-flight tracking ---

// PendingOwned implements PendingOwner for a tracked link: the number of
// in-flight deliveries.
func (l *Link) PendingOwned() int { return l.a.track.live + l.b.track.live }

// SaveState writes a tracked link's in-flight deliveries in sequence order,
// each with its direction, merging the two ports' sets. Payloads go through
// the codec registry.
func (l *Link) SaveState(enc *Encoder) {
	toB, toA := l.a.track.compact(), l.b.track.compact()
	enc.U64(uint64(len(toB) + len(toA)))
	for len(toB)+len(toA) > 0 {
		var ev ownedEvent
		b := len(toA) == 0 || len(toB) > 0 && toB[0].seq < toA[0].seq
		if b {
			ev, toB = toB[0], toB[1:]
		} else {
			ev, toA = toA[0], toA[1:]
		}
		enc.U64(ev.seq)
		enc.Time(ev.at)
		enc.Bool(b)
		EncodePayload(enc, ev.payload)
	}
}

// LoadState re-creates a tracked link's in-flight deliveries, forgetting
// any the rebuilt model put in flight at construction time (Engine.Restore
// has already discarded those from the queue).
func (l *Link) LoadState(dec *Decoder) error {
	l.a.track.reset()
	l.b.track.reset()
	return load(dec, func() (*EventSet, Priority) {
		if dec.Bool() {
			return l.a.track, l.b.prio
		}
		return l.b.track, l.a.prio
	})
}
