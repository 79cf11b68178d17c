package par

// Coordinated parallel snapshots: between Run calls every rank is parked at
// a window barrier — no handler is executing, outboxes have been exchanged,
// and every staged remote event a window covered has been dispatched — so
// the runner's whole state is the per-rank engine states plus the staging
// heaps. That is exactly what Snapshot captures. Restore works against a
// freshly rebuilt runner (same partition, same build order) and reproduces
// the continuation bit-for-bit: the staging heaps carry their original
// (time, sent, srcRank, seq) keys, and each engine's sequence counter is
// restored, so the canonical merge order is unchanged.

import (
	"fmt"
	"io"
	"sort"

	"sst/internal/sim"
)

// snapVersion guards the runner-level body layout inside the sim container.
// v2 added four per-rank counters of the retired speculative sync mode.
// The layout keeps them, and the header's mode name and fast-forward
// count, so every v2 file restores and every save stays byte-identical to
// one written while the mode existed: a save writes the mode "pairwise"
// and zero for the five counts, and a restore reads and discards them.
const snapVersion = 2

// EnableSnapshots opts every rank engine into checkpoint tracking and
// begins recording cross-rank port names (staged events are serialized by
// destination port name). It must be called before the model is built —
// before any Connect or component construction — and panics if links
// already exist.
func (r *Runner) EnableSnapshots() {
	if r.crossLinks > 0 {
		panic("par: EnableSnapshots after cross-rank links were connected")
	}
	if r.snapPorts == nil {
		r.snapPorts = make(map[string]*sim.Port)
		r.snapDups = make(map[string]bool)
	}
	for _, rk := range r.ranks {
		rk.sim.Engine().EnableSnapshots()
	}
}

// SnapshotsEnabled reports whether EnableSnapshots has been called.
func (r *Runner) SnapshotsEnabled() bool { return r.snapPorts != nil }

// recordSnapPort indexes a cross-rank port by name for staged-event
// serialization. Duplicate names are only an error if a staged event ever
// references one.
func (r *Runner) recordSnapPort(p *sim.Port) {
	name := p.Name()
	if _, dup := r.snapPorts[name]; dup {
		r.snapDups[name] = true
		return
	}
	r.snapPorts[name] = p
}

// NextEventTime returns the earliest pending work on any rank (engine queue
// or staged remote event), or TimeInfinity when the model is globally idle.
func (r *Runner) NextEventTime() sim.Time {
	next := sim.TimeInfinity
	for _, rk := range r.ranks {
		if t := rk.nextWork(); t < next {
			next = t
		}
	}
	return next
}

// Snapshot writes the runner's full state into enc. It must be called
// between Run calls (all ranks parked at a barrier) on a runner that was
// not interrupted: an interrupted runner returns before the exchange phase,
// leaving outboxes non-empty, and its ranks sit mid-window rather than at a
// consistent cut.
func (r *Runner) Snapshot(enc *sim.Encoder) error {
	if r.snapPorts == nil {
		return fmt.Errorf("par: snapshot on a runner without EnableSnapshots")
	}
	if r.interrupted.Load() {
		return fmt.Errorf("par: snapshot of an interrupted runner (ranks are mid-window; resume or rerun first)")
	}
	for _, rk := range r.ranks {
		if rk.sim.Engine().Interrupted() {
			return fmt.Errorf("par: snapshot with rank %d interrupted", rk.id)
		}
		if rk.err != nil {
			return fmt.Errorf("par: snapshot with rank %d in error state: %w", rk.id, rk.err)
		}
		for dst, ob := range rk.outboxes {
			if len(ob) != 0 {
				return fmt.Errorf("par: snapshot with rank %d outbox to %d non-empty (not at a window barrier)", rk.id, dst)
			}
		}
	}
	enc.U64(snapVersion)
	enc.U64(uint64(len(r.ranks)))
	enc.String("pairwise") // the v2 mode name
	enc.Time(r.now)
	enc.U64(r.windows)
	enc.U64(0) // the v2 fast-forward count
	for _, rk := range r.ranks {
		enc.U64(rk.sendSeq)
		enc.Time(rk.base)
		enc.U64(rk.events)
		enc.U64(rk.idleWindows)
		enc.U64(rk.skipped)
		for range 4 { // the v2 rollback, replay, fallback and promotion counts
			enc.U64(0)
		}
		// Staging heap, serialized in canonical order (the heap's own pop
		// order) so identical states write identical bytes.
		staged := append(remoteHeap(nil), rk.staging...)
		sort.Slice(staged, func(i, j int) bool { return remoteLess(&staged[i], &staged[j]) })
		enc.U64(uint64(len(staged)))
		for _, ev := range staged {
			name := ev.dst.Name()
			if r.snapDups[name] {
				return fmt.Errorf("par: staged event targets ambiguous port name %q (cross-rank link names must be unique for snapshots)", name)
			}
			if r.snapPorts[name] == nil {
				return fmt.Errorf("par: staged event targets unregistered port %q", name)
			}
			enc.String(name)
			enc.Time(ev.time)
			enc.Time(ev.sent)
			enc.U64(uint64(ev.srcRank))
			enc.U64(ev.seq)
			sim.EncodePayload(enc, ev.payload)
		}
		sub := sim.NewEncoder()
		if err := rk.sim.Engine().Snapshot(sub); err != nil {
			return fmt.Errorf("par: rank %d: %w", rk.id, err)
		}
		enc.Blob(sub.Bytes())
	}
	return nil
}

// Restore rebuilds the runner's state from a snapshot. The caller must
// first rebuild the identical model on a fresh runner (same rank count,
// same partition, same construction order) with EnableSnapshots on. A
// snapshot written by a speculative run restores like any other: at a
// barrier its state is committed, and its mode and counters are discarded.
func (r *Runner) Restore(dec *sim.Decoder) error {
	if r.snapPorts == nil {
		return fmt.Errorf("par: restore on a runner without EnableSnapshots")
	}
	if v := dec.U64(); v != snapVersion {
		return fmt.Errorf("par: snapshot runner-state version %d, this build reads %d", v, snapVersion)
	}
	if n := dec.U64(); int(n) != len(r.ranks) {
		return fmt.Errorf("par: snapshot has %d ranks, runner has %d", n, len(r.ranks))
	}
	_ = dec.String() // the v2 mode name
	r.now = dec.Time()
	r.windows = dec.U64()
	_ = dec.U64() // the v2 fast-forward count
	if err := dec.Err(); err != nil {
		return fmt.Errorf("par: restore header: %w", err)
	}
	r.interrupted.Store(false)
	for _, rk := range r.ranks {
		rk.sendSeq = dec.U64()
		rk.base = dec.Time()
		rk.events = dec.U64()
		rk.idleWindows = dec.U64()
		rk.skipped = dec.U64()
		for range 4 { // the v2 rollback, replay, fallback and promotion counts
			_ = dec.U64()
		}
		rk.err = nil
		rk.handled = 0
		for dst := range rk.outboxes {
			rk.outboxes[dst] = rk.outboxes[dst][:0]
		}
		rk.staging = rk.staging[:0]
		n := dec.U64()
		for i := uint64(0); i < n; i++ {
			name := dec.String()
			ev := remoteEvent{
				time:    dec.Time(),
				sent:    dec.Time(),
				srcRank: int(dec.U64()),
				seq:     dec.U64(),
			}
			payload, err := sim.DecodePayload(dec)
			if err != nil {
				return fmt.Errorf("par: restore rank %d staging: %w", rk.id, err)
			}
			if r.snapDups[name] {
				return fmt.Errorf("par: staged event targets ambiguous port name %q", name)
			}
			ev.dst = r.snapPorts[name]
			if ev.dst == nil {
				return fmt.Errorf("par: staged event targets port %q, which the rebuilt model does not have", name)
			}
			ev.payload = payload
			rk.staging.push(ev)
		}
		blob := dec.Blob()
		if err := dec.Err(); err != nil {
			return fmt.Errorf("par: restore rank %d: %w", rk.id, err)
		}
		if err := rk.sim.Engine().Restore(sim.NewDecoder(blob)); err != nil {
			return fmt.Errorf("par: restore rank %d: %w", rk.id, err)
		}
		rk.publish()
	}
	return dec.Err()
}

// SaveTo snapshots the runner into w using the sim package's versioned,
// checksummed file container.
func (r *Runner) SaveTo(w io.Writer) error {
	enc := sim.NewEncoder()
	if err := r.Snapshot(enc); err != nil {
		return err
	}
	return sim.WriteSnapshot(w, enc.Bytes())
}

// LoadFrom restores the runner from a container written by SaveTo.
func (r *Runner) LoadFrom(rd io.Reader) error {
	body, err := sim.ReadSnapshot(rd)
	if err != nil {
		return err
	}
	return r.Restore(sim.NewDecoder(body))
}
