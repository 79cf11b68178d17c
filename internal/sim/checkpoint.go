package sim

// Engine checkpoint/restore: crash safety for long runs.
//
// A snapshot is taken at a quiescent barrier — between Run calls, when no
// handler is executing. The engine does not serialize its event queue
// (events hold closures, which have no stable encoding); instead every
// pending event must be *owned* by a registered Checkpointable component
// that re-creates it on restore, carrying its original insertion sequence
// number so that same-timestamp tie-breaking — and therefore the entire
// continuation — is bit-identical to a run that was never snapshotted.
// Snapshot verifies the ownership accounting (sum of PendingOwned over the
// registered components must equal Pending: the queue length plus one tick
// per armed clock) so a model that
// schedules an untracked closure fails loudly at snapshot time instead of
// silently dropping the event at restore time.
//
// Restore works against a freshly *rebuilt* model: the caller constructs
// the identical component graph (model construction is deterministic), then
// Restore discards the build-time event queue, resets the clock and
// counters from the snapshot, and replays each component's LoadState in
// registration order. Components re-create their pending events through
// ScheduleRestoredAt.
//
// Everything here is opt-in: until EnableSnapshots is called (before the
// model is built), registration is a no-op and the only cost on any hot
// path is a nil-map check in Port.SendDelayed.

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"reflect"
	"sort"
	"sync"
)

// Checkpointable is implemented by components that carry simulation state
// across a snapshot. SaveState writes the component's state with the
// deterministic binary Encoder; LoadState reads it back in the same order.
// A component whose state includes pending engine events must also
// implement PendingOwner and re-create those events in LoadState with
// Engine.ScheduleRestoredAt.
type Checkpointable interface {
	SaveState(enc *Encoder)
	LoadState(dec *Decoder) error
}

// PendingOwner reports how many of the engine's pending events a component
// owns (and will re-create on restore). Engine.Snapshot sums PendingOwned
// over all registered components and refuses to snapshot unless the sum
// equals Engine.Pending — the accounting that makes "no closure
// serialization" safe.
type PendingOwner interface {
	PendingOwned() int
}

// engineSnap is the engine's checkpoint registry, allocated only by
// EnableSnapshots.
type engineSnap struct {
	order     []string
	comps     map[string]Checkpointable
	restoring bool
}

// EnableSnapshots opts the engine into checkpoint tracking. It must be
// called before the model is built: components and links register (and
// begin tracking their in-flight events) at construction time only.
// Disabled engines pay nothing on the event hot path.
func (e *Engine) EnableSnapshots() {
	if e.snap == nil {
		e.snap = &engineSnap{comps: make(map[string]Checkpointable)}
	}
}

// SnapshotsEnabled reports whether EnableSnapshots has been called.
func (e *Engine) SnapshotsEnabled() bool { return e.snap != nil }

// Restoring reports whether a Restore is in progress (the only time
// ScheduleRestoredAt is legal).
func (e *Engine) Restoring() bool { return e.snap != nil && e.snap.restoring }

// RegisterCheckpoint adds a named component to the snapshot registry. The
// registration order is the save/load order and must be identical between
// the snapshotted build and the restoring rebuild, which it is for any
// deterministic model constructor. No-op when snapshots are disabled;
// duplicate names are a wiring bug and panic.
func (e *Engine) RegisterCheckpoint(name string, c Checkpointable) {
	if e.snap == nil {
		return
	}
	if _, dup := e.snap.comps[name]; dup {
		panic(fmt.Sprintf("sim: duplicate checkpoint registration %q", name))
	}
	e.snap.comps[name] = c
	e.snap.order = append(e.snap.order, name)
}

// NextSeq returns the sequence number the next scheduled event will be
// assigned. Components that own pending events read it immediately before
// scheduling so they can re-create the event with the same sequence on
// restore.
func (e *Engine) NextSeq() uint64 { return e.seq }

// pushAt enqueues an event with an explicit, previously assigned sequence
// number, without advancing the counter. Restore-path only.
func (e *Engine) pushAt(t Time, prio Priority, seq uint64, label string, fn Handler, payload any) {
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
		ev.label = label
	}
	e.q.Push(ev)
}

// ScheduleRestoredAt re-creates a pending event from a snapshot: fn runs at
// absolute time t with the event's original insertion sequence, so ties
// against other restored events break exactly as they would have in the
// uninterrupted run. Only legal from a LoadState call during Restore.
func (e *Engine) ScheduleRestoredAt(t Time, prio Priority, seq uint64, label string, fn Handler, payload any) {
	if !e.Restoring() {
		panic("sim: ScheduleRestoredAt outside Restore")
	}
	if fn == nil {
		panic("sim: ScheduleRestoredAt with nil handler")
	}
	if seq >= e.seq {
		panic(fmt.Sprintf("sim: restored event seq %d not below restored counter %d", seq, e.seq))
	}
	if t < e.now {
		panic(fmt.Sprintf("sim: restored event at %v, before now %v", t, e.now))
	}
	e.pushAt(t, prio, seq, label, fn, payload)
}

// ownedPending sums PendingOwned over the registered components.
func (e *Engine) ownedPending() int {
	owned := 0
	for _, name := range e.snap.order {
		if po, ok := e.snap.comps[name].(PendingOwner); ok {
			owned += po.PendingOwned()
		}
	}
	return owned
}

// Snapshot writes the engine's state — clock, counters, and every
// registered component's SaveState blob — into enc. It must be called at a
// quiescent barrier (between Run calls) and fails if any pending event is
// not owned by a registered component.
func (e *Engine) Snapshot(enc *Encoder) (err error) {
	if e.snap == nil {
		return fmt.Errorf("sim: snapshot on an engine without EnableSnapshots")
	}
	if owned, pending := e.ownedPending(), e.Pending(); owned != pending {
		return fmt.Errorf("sim: snapshot accounting: components own %d of %d pending events (an unowned closure was scheduled; route it through an EventSet or a Checkpointable owner)", owned, pending)
	}
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("sim: snapshot failed: %v", r)
		}
	}()
	enc.Time(e.now)
	enc.U64(e.seq)
	enc.U64(e.handled)
	enc.U64(uint64(e.PeakPending()))
	enc.U64(uint64(len(e.snap.order)))
	for _, name := range e.snap.order {
		enc.String(name)
		sub := NewEncoder()
		e.snap.comps[name].SaveState(sub)
		enc.Blob(sub.Bytes())
	}
	return nil
}

// Restore rebuilds the engine's state from a snapshot taken by Snapshot.
// The caller must first rebuild the identical model (same components, same
// registration order) on this engine; Restore discards the build-time event
// queue, resets time and counters, and replays every component's LoadState,
// during which components re-create their pending events. The snapshot is
// bytes from disk: what a LoadState rejects by panicking (an event sequence
// or time the counters rule out, a payload of the wrong type) comes back as
// an error, the way Snapshot treats SaveState.
func (e *Engine) Restore(dec *Decoder) (err error) {
	if e.snap == nil {
		return fmt.Errorf("sim: restore on an engine without EnableSnapshots")
	}
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("sim: restore failed: %v", r)
		}
	}()
	// Drop the build-time queue and clock lane: every pending event and
	// tick is re-created by its owning component from the snapshot.
	clear(e.lane)
	e.lane = e.lane[:0]
	for {
		ev := e.q.Pop()
		if ev == nil {
			break
		}
		ev.fn, ev.payload, ev.label = nil, nil, ""
		e.free = append(e.free, ev)
	}
	e.now = dec.Time()
	e.seq = dec.U64()
	e.handled = dec.U64()
	e.peak = int(dec.U64())
	e.stopped = false
	e.ClearInterrupt()
	n := dec.U64()
	if err := dec.Err(); err != nil {
		return fmt.Errorf("sim: restore header: %w", err)
	}
	if int(n) != len(e.snap.order) {
		return fmt.Errorf("sim: snapshot has %d components, model has %d (model shape differs from snapshot)", n, len(e.snap.order))
	}
	e.snap.restoring = true
	defer func() { e.snap.restoring = false }()
	for i, want := range e.snap.order {
		name := dec.String()
		blob := dec.Blob()
		if err := dec.Err(); err != nil {
			return fmt.Errorf("sim: restore component %d: %w", i, err)
		}
		if name != want {
			return fmt.Errorf("sim: snapshot component %d is %q, model registered %q (model shape differs from snapshot)", i, name, want)
		}
		sub := NewDecoder(blob)
		if err := e.snap.comps[want].LoadState(sub); err != nil {
			return fmt.Errorf("sim: restore %q: %w", want, err)
		}
		if err := sub.Err(); err != nil {
			return fmt.Errorf("sim: restore %q: %w", want, err)
		}
		if rest := sub.Remaining(); rest != 0 {
			return fmt.Errorf("sim: restore %q left %d bytes unread", want, rest)
		}
	}
	if owned, pending := e.ownedPending(), e.Pending(); owned != pending {
		return fmt.Errorf("sim: restore accounting: components own %d of %d pending events", owned, pending)
	}
	return nil
}

// --- Snapshot file container ---

// snapMagic identifies a gosst snapshot file.
var snapMagic = [8]byte{'G', 'O', 'S', 'S', 'T', 'S', 'N', 'P'}

// SnapshotVersion is the current snapshot container format version.
const SnapshotVersion uint16 = 1

// WriteSnapshot frames a snapshot body into w: magic, version, length,
// body, CRC32 (IEEE) of the body.
func WriteSnapshot(w io.Writer, body []byte) error {
	hdr := make([]byte, 8+2+8)
	copy(hdr, snapMagic[:])
	binary.LittleEndian.PutUint16(hdr[8:], SnapshotVersion)
	binary.LittleEndian.PutUint64(hdr[10:], uint64(len(body)))
	if _, err := w.Write(hdr); err != nil {
		return err
	}
	if _, err := w.Write(body); err != nil {
		return err
	}
	var sum [4]byte
	binary.LittleEndian.PutUint32(sum[:], crc32.ChecksumIEEE(body))
	_, err := w.Write(sum[:])
	return err
}

// ReadSnapshot reads and verifies a snapshot container, returning the body.
func ReadSnapshot(r io.Reader) ([]byte, error) {
	hdr := make([]byte, 8+2+8)
	if _, err := io.ReadFull(r, hdr); err != nil {
		return nil, fmt.Errorf("sim: snapshot header: %w", err)
	}
	if [8]byte(hdr[:8]) != snapMagic {
		return nil, fmt.Errorf("sim: not a snapshot file (bad magic)")
	}
	if v := binary.LittleEndian.Uint16(hdr[8:]); v != SnapshotVersion {
		return nil, fmt.Errorf("sim: snapshot version %d, this build reads %d", v, SnapshotVersion)
	}
	n := binary.LittleEndian.Uint64(hdr[10:])
	const maxSnapshot = 1 << 32
	if n > maxSnapshot {
		return nil, fmt.Errorf("sim: snapshot body length %d exceeds limit", n)
	}
	// The length is a claim until the bytes arrive: read incrementally so
	// memory is bounded by what the file holds, not by what its header says.
	var buf bytes.Buffer
	if _, err := io.CopyN(&buf, r, int64(n)); err != nil {
		if err == io.EOF && buf.Len() > 0 {
			err = io.ErrUnexpectedEOF
		}
		return nil, fmt.Errorf("sim: snapshot body: %w", err)
	}
	body := buf.Bytes()
	var sum [4]byte
	if _, err := io.ReadFull(r, sum[:]); err != nil {
		return nil, fmt.Errorf("sim: snapshot checksum: %w", err)
	}
	if got, want := crc32.ChecksumIEEE(body), binary.LittleEndian.Uint32(sum[:]); got != want {
		return nil, fmt.Errorf("sim: snapshot checksum mismatch (file corrupt): %08x != %08x", got, want)
	}
	return body, nil
}

// SaveTo snapshots the engine into w using the versioned, checksummed file
// container.
func (e *Engine) SaveTo(w io.Writer) error {
	enc := NewEncoder()
	if err := e.Snapshot(enc); err != nil {
		return err
	}
	return WriteSnapshot(w, enc.Bytes())
}

// LoadFrom restores the engine from a container written by SaveTo.
func (e *Engine) LoadFrom(r io.Reader) error {
	body, err := ReadSnapshot(r)
	if err != nil {
		return err
	}
	return e.Restore(NewDecoder(body))
}

// --- Deterministic binary encoding ---

// Encoder writes the snapshot wire format: unsigned varints (zigzag for
// signed), length-prefixed strings and blobs. The encoding has no
// map-order, pointer or host dependence, so the same state always produces
// the same bytes.
type Encoder struct{ buf []byte }

// NewEncoder returns an empty encoder.
func NewEncoder() *Encoder { return &Encoder{} }

// Bytes returns the encoded buffer.
func (e *Encoder) Bytes() []byte { return e.buf }

// Reset truncates the encoder for reuse, keeping its backing buffer. The
// speculative runner checkpoints every rank at each leg boundary through
// one persistent encoder per rank; resetting instead of reallocating keeps
// that hot path allocation-free once the buffer has grown to steady state.
func (e *Encoder) Reset() { e.buf = e.buf[:0] }

// U64 appends an unsigned varint.
func (e *Encoder) U64(v uint64) { e.buf = binary.AppendUvarint(e.buf, v) }

// I64 appends a zigzag-encoded signed varint.
func (e *Encoder) I64(v int64) { e.buf = binary.AppendVarint(e.buf, v) }

// Time appends a simulated timestamp.
func (e *Encoder) Time(t Time) { e.U64(uint64(t)) }

// Bool appends a boolean.
func (e *Encoder) Bool(b bool) {
	if b {
		e.buf = append(e.buf, 1)
	} else {
		e.buf = append(e.buf, 0)
	}
}

// F64 appends a float64 by its exact IEEE-754 bits.
func (e *Encoder) F64(v float64) { e.U64(math.Float64bits(v)) }

// String appends a length-prefixed string.
func (e *Encoder) String(s string) {
	e.U64(uint64(len(s)))
	e.buf = append(e.buf, s...)
}

// Blob appends a length-prefixed byte slice.
func (e *Encoder) Blob(b []byte) {
	e.U64(uint64(len(b)))
	e.buf = append(e.buf, b...)
}

// Decoder reads the Encoder's format with a sticky error: after the first
// malformed read every subsequent read returns a zero value, and Err
// reports the failure.
type Decoder struct {
	b   []byte
	err error
}

// NewDecoder reads from b.
func NewDecoder(b []byte) *Decoder { return &Decoder{b: b} }

// Err returns the first decode error, or nil.
func (d *Decoder) Err() error { return d.err }

// Remaining returns the number of unread bytes.
func (d *Decoder) Remaining() int { return len(d.b) }

func (d *Decoder) fail(what string) {
	if d.err == nil {
		d.err = fmt.Errorf("sim: snapshot decode: truncated or malformed %s", what)
	}
}

// U64 reads an unsigned varint.
func (d *Decoder) U64() uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.b)
	if n <= 0 {
		d.fail("uvarint")
		return 0
	}
	d.b = d.b[n:]
	return v
}

// I64 reads a zigzag-encoded signed varint.
func (d *Decoder) I64() int64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Varint(d.b)
	if n <= 0 {
		d.fail("varint")
		return 0
	}
	d.b = d.b[n:]
	return v
}

// Time reads a simulated timestamp.
func (d *Decoder) Time() Time { return Time(d.U64()) }

// Bool reads a boolean.
func (d *Decoder) Bool() bool {
	if d.err != nil {
		return false
	}
	if len(d.b) == 0 {
		d.fail("bool")
		return false
	}
	v := d.b[0]
	d.b = d.b[1:]
	return v != 0
}

// F64 reads a float64.
func (d *Decoder) F64() float64 { return math.Float64frombits(d.U64()) }

// String reads a length-prefixed string.
func (d *Decoder) String() string { return string(d.Blob()) }

// Blob reads a length-prefixed byte slice (aliasing the decoder's buffer).
func (d *Decoder) Blob() []byte {
	n := d.U64()
	if d.err != nil {
		return nil
	}
	if uint64(len(d.b)) < n {
		d.fail("blob")
		return nil
	}
	b := d.b[:n]
	d.b = d.b[n:]
	return b
}

// --- Payload codecs ---

// Payloads of tracked events (link messages, EventSet payloads) are
// serialized through a registry keyed by concrete type on encode and by
// codec name on decode. The builtin scalar types are pre-registered;
// component packages register their own message types in init.

type payloadCodec struct {
	name string
	enc  func(*Encoder, any)
	dec  func(*Decoder) (any, error)
}

var (
	payloadMu     sync.RWMutex
	payloadByType = map[reflect.Type]*payloadCodec{}
	payloadByName = map[string]*payloadCodec{}
)

// payloadNil names the nil payload in the wire format.
const payloadNil = "_nil"

// RegisterPayload adds a snapshot codec for the concrete type of sample
// under the given stable name. Duplicate names or types panic: both sides
// of the registry must stay unambiguous for restore to be well-defined.
func RegisterPayload(name string, sample any, enc func(*Encoder, any), dec func(*Decoder) (any, error)) {
	t := reflect.TypeOf(sample)
	if t == nil || name == "" || name == payloadNil {
		panic("sim: RegisterPayload needs a non-nil sample and a nonempty name")
	}
	payloadMu.Lock()
	defer payloadMu.Unlock()
	if _, dup := payloadByName[name]; dup {
		panic(fmt.Sprintf("sim: duplicate payload codec name %q", name))
	}
	if _, dup := payloadByType[t]; dup {
		panic(fmt.Sprintf("sim: duplicate payload codec for type %v", t))
	}
	c := &payloadCodec{name: name, enc: enc, dec: dec}
	payloadByType[t] = c
	payloadByName[name] = c
}

// EncodePayload writes a payload with its codec name. Unregistered payload
// types panic (recovered into an error by Engine.Snapshot) naming the type.
func EncodePayload(e *Encoder, v any) {
	if v == nil {
		e.String(payloadNil)
		return
	}
	payloadMu.RLock()
	c := payloadByType[reflect.TypeOf(v)]
	payloadMu.RUnlock()
	if c == nil {
		panic(fmt.Sprintf("sim: payload type %T has no snapshot codec (register one with sim.RegisterPayload)", v))
	}
	e.String(c.name)
	c.enc(e, v)
}

// DecodePayload reads a payload written by EncodePayload.
func DecodePayload(d *Decoder) (any, error) {
	name := d.String()
	if err := d.Err(); err != nil {
		return nil, err
	}
	if name == payloadNil {
		return nil, nil
	}
	payloadMu.RLock()
	c := payloadByName[name]
	payloadMu.RUnlock()
	if c == nil {
		return nil, fmt.Errorf("sim: snapshot payload codec %q not registered in this build", name)
	}
	return c.dec(d)
}

func init() {
	RegisterPayload("int", int(0),
		func(e *Encoder, v any) { e.I64(int64(v.(int))) },
		func(d *Decoder) (any, error) { return int(d.I64()), d.Err() })
	RegisterPayload("i64", int64(0),
		func(e *Encoder, v any) { e.I64(v.(int64)) },
		func(d *Decoder) (any, error) { return d.I64(), d.Err() })
	RegisterPayload("u64", uint64(0),
		func(e *Encoder, v any) { e.U64(v.(uint64)) },
		func(d *Decoder) (any, error) { return d.U64(), d.Err() })
	RegisterPayload("u32", uint32(0),
		func(e *Encoder, v any) { e.U64(uint64(v.(uint32))) },
		func(d *Decoder) (any, error) { return uint32(d.U64()), d.Err() })
	RegisterPayload("str", "",
		func(e *Encoder, v any) { e.String(v.(string)) },
		func(d *Decoder) (any, error) { return d.String(), d.Err() })
	RegisterPayload("bool", false,
		func(e *Encoder, v any) { e.Bool(v.(bool)) },
		func(d *Decoder) (any, error) { return d.Bool(), d.Err() })
	RegisterPayload("f64", float64(0),
		func(e *Encoder, v any) { e.F64(v.(float64)) },
		func(d *Decoder) (any, error) { return d.F64(), d.Err() })
	RegisterPayload("time", Time(0),
		func(e *Encoder, v any) { e.Time(v.(Time)) },
		func(d *Decoder) (any, error) { return d.Time(), d.Err() })
}

// --- EventSet: tracked closure scheduling ---

// setEvent is one tracked pending event.
type setEvent struct {
	at      Time
	prio    Priority
	payload any
}

// EventSet gives closure-heavy components checkpointable scheduling: all
// events in a set share one dispatch function, the payload identifies the
// work, and the set tracks which events are pending so Save/Load can carry
// them across a snapshot. With snapshots disabled the set is a passthrough
// to the engine (one nil-map check per schedule).
type EventSet struct {
	eng   *Engine
	label string
	fn    Handler
	pend  map[uint64]setEvent // nil when snapshots are disabled
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
		s.pend = make(map[uint64]setEvent)
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
	s.pend[seq] = setEvent{at: t, prio: prio, payload: payload}
	s.eng.ScheduleLabeledAt(t, prio, s.label, func(p any) {
		delete(s.pend, seq)
		s.fn(p)
	}, payload)
}

// PendingOwned implements PendingOwner for the set's owner.
func (s *EventSet) PendingOwned() int { return len(s.pend) }

// Save writes the set's pending events in sequence order.
func (s *EventSet) Save(enc *Encoder) {
	seqs := make([]uint64, 0, len(s.pend))
	for seq := range s.pend {
		seqs = append(seqs, seq)
	}
	sort.Slice(seqs, func(i, j int) bool { return seqs[i] < seqs[j] })
	enc.U64(uint64(len(seqs)))
	for _, seq := range seqs {
		ev := s.pend[seq]
		enc.U64(seq)
		enc.Time(ev.at)
		enc.I64(int64(ev.prio))
		EncodePayload(enc, ev.payload)
	}
}

// Load re-creates the set's pending events from a snapshot. Restore-path
// only (the owning component's LoadState). Events the rebuilt model
// scheduled at construction time are forgotten first: Engine.Restore has
// already discarded them from the queue.
func (s *EventSet) Load(dec *Decoder) error {
	if s.pend == nil {
		return fmt.Errorf("sim: EventSet %q restore without snapshot tracking", s.label)
	}
	clear(s.pend)
	n := dec.U64()
	for i := uint64(0); i < n; i++ {
		seq := dec.U64()
		at := dec.Time()
		prio := Priority(dec.I64())
		payload, err := DecodePayload(dec)
		if err != nil {
			return err
		}
		s.pend[seq] = setEvent{at: at, prio: prio, payload: payload}
		s.eng.ScheduleRestoredAt(at, prio, seq, s.label, func(p any) {
			delete(s.pend, seq)
			s.fn(p)
		}, payload)
	}
	return dec.Err()
}

// --- Link in-flight tracking ---

// linkEvent is one tracked in-flight delivery on a local link.
type linkEvent struct {
	at      Time
	toB     bool
	payload any
}

// trackForSnapshots turns on in-flight delivery tracking; called by
// Simulation.Connect when the engine has snapshots enabled.
func (l *Link) trackForSnapshots() {
	if l.inflight == nil {
		l.inflight = make(map[uint64]linkEvent)
	}
}

// trackSend schedules a tracked local delivery: the in-flight record is
// dropped when the delivery dispatches, so at any quiescent barrier the map
// holds exactly the deliveries still pending.
func (l *Link) trackSend(p *Port, delay Time, payload any) {
	e := l.engine
	peer := p.peer
	at := e.now + delay
	if at < e.now {
		at = TimeInfinity
	}
	seq := e.seq
	l.inflight[seq] = linkEvent{at: at, toB: peer == &l.b, payload: payload}
	e.ScheduleLabeled(delay, peer.prio, l.name, func(pl any) {
		delete(l.inflight, seq)
		peer.handler(pl)
	}, payload)
}

// PendingOwned implements PendingOwner: the number of in-flight deliveries.
func (l *Link) PendingOwned() int { return len(l.inflight) }

// SaveState writes the link's in-flight deliveries in sequence order.
// Payloads go through the codec registry; the fault interceptor has already
// run (interception happens at send time), so what is saved is what will be
// delivered.
func (l *Link) SaveState(enc *Encoder) {
	seqs := make([]uint64, 0, len(l.inflight))
	for seq := range l.inflight {
		seqs = append(seqs, seq)
	}
	sort.Slice(seqs, func(i, j int) bool { return seqs[i] < seqs[j] })
	enc.U64(uint64(len(seqs)))
	for _, seq := range seqs {
		ev := l.inflight[seq]
		enc.U64(seq)
		enc.Time(ev.at)
		enc.Bool(ev.toB)
		EncodePayload(enc, ev.payload)
	}
}

// LoadState re-creates the link's in-flight deliveries, forgetting any the
// rebuilt model put in flight at construction time (Engine.Restore has
// already discarded those from the queue).
func (l *Link) LoadState(dec *Decoder) error {
	if l.inflight == nil {
		return fmt.Errorf("sim: link %q restore without snapshot tracking", l.name)
	}
	clear(l.inflight)
	n := dec.U64()
	for i := uint64(0); i < n; i++ {
		seq := dec.U64()
		at := dec.Time()
		toB := dec.Bool()
		payload, err := DecodePayload(dec)
		if err != nil {
			return err
		}
		dst := &l.a
		if toB {
			dst = &l.b
		}
		l.inflight[seq] = linkEvent{at: at, toB: toB, payload: payload}
		l.engine.ScheduleRestoredAt(at, dst.prio, seq, l.name, func(pl any) {
			delete(l.inflight, seq)
			dst.handler(pl)
		}, payload)
	}
	return dec.Err()
}

// --- Clock checkpointing ---

// PendingOwned implements PendingOwner: an armed clock owns its pending tick.
func (c *Clock) PendingOwned() int {
	if c.armed {
		return 1
	}
	return 0
}

// SaveState writes the clock's cycle position and pending-tick identity.
// The handler list itself is not serialized: the rebuilt model re-registers
// the same handlers in the same order; the count is saved as a consistency
// check.
func (c *Clock) SaveState(enc *Encoder) {
	enc.U64(uint64(c.cycle))
	enc.Bool(c.armed)
	enc.U64(c.tickSeq)
	enc.U64(uint64(len(c.handlers)))
}

// LoadState restores the cycle position and, if the clock was armed, puts
// it back in the engine's clock lane with the tick's original sequence
// (Engine.Restore emptied the lane of build-time arms).
func (c *Clock) LoadState(dec *Decoder) error {
	cycle := Cycle(dec.U64())
	armed := dec.Bool()
	tickSeq := dec.U64()
	nh := dec.U64()
	if err := dec.Err(); err != nil {
		return err
	}
	if int(nh) != len(c.handlers) {
		return fmt.Errorf("sim: clock %s has %d handlers, snapshot had %d (handler registration diverged)", c.label, len(c.handlers), nh)
	}
	e := c.engine
	at := c.freq.CycleTime(cycle)
	if armed && (tickSeq >= e.seq || at < e.now) {
		return fmt.Errorf("sim: clock %s: restored tick (cycle %d at %v, seq %d) not after the restored engine (now %v, next seq %d)", c.label, cycle, at, tickSeq, e.now, e.seq)
	}
	c.cycle = cycle
	c.armed = armed
	c.nextAt = at
	c.tickSeq = tickSeq
	if armed {
		e.lane = append(e.lane, c)
	}
	return nil
}

// --- RNG checkpointing ---

// SaveState writes the generator's exact 256-bit state.
func (r *RNG) SaveState(enc *Encoder) {
	for _, s := range r.s {
		enc.U64(s)
	}
}

// LoadState restores the generator state.
func (r *RNG) LoadState(dec *Decoder) error {
	for i := range r.s {
		r.s[i] = dec.U64()
	}
	return dec.Err()
}
