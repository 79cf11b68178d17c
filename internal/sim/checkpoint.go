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
// registered components must equal Pending: the queue length plus the
// lanes' entries, one tick per armed clock among them) so a model that
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
// path is a nil check in Port.SendDelayed and EventSet.ScheduleAt. The wire
// format is in codec.go, the owned-event ledger in eventset.go.

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
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
	sub       Encoder // each component's blob, reused across snapshots
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

// ScheduleRestoredAt re-creates a pending event from a snapshot: fn runs at
// absolute time t with the event's original insertion sequence, so ties
// against other restored events break exactly as they would have in the
// uninterrupted run. Only legal from a LoadState call during Restore.
func (e *Engine) ScheduleRestoredAt(t Time, prio Priority, seq uint64, label string, fn Handler, payload any) {
	if e.snap == nil || !e.snap.restoring {
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
	e.pushAt(t, prio, label, fn, payload, seq)
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
		sub := &e.snap.sub
		sub.Reset()
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
	// Drop the build-time queue and lanes: every pending event and tick is
	// re-created by its owning component from the snapshot.
	e.discard()
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
