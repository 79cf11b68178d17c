package par

// Optimistic (Time Warp-style) synchronization over the snapshot codec.
//
// In speculative mode every rank keeps executing past its conservative
// pairwise horizon, and the coordinator checkpoints its engine through the
// existing snapshot codec at each leg boundary. What makes this cheap to
// reason about — and what removes anti-messages entirely — is a held-release
// discipline for cross-rank traffic:
//
//   - Sends stay HELD in the sender's outbox while they are speculative.
//     Only the committed prefix (send time < the sender's base) is ever
//     released into the destination's staging heap, so no other rank can
//     observe state that might be rolled back. There is nothing to cancel,
//     hence no anti-messages.
//   - The commit frontier is conservative in the Chandy–Misra sense: rank
//     j's earliest possible *new* committed effect is bounded by
//     min(live next event, earliest staged arrival, earliest held send),
//     and rank i's horizon is the usual shortest-path reduction over those
//     bounds. Speculation helps precisely because draining local events
//     pushes the live next-event time far ahead, which widens everyone
//     else's horizon; conservative pairwise mode can only crawl one event
//     spacing plus one lookahead per round.
//   - A straggler is a staged arrival below a rank's speculative frontier
//     (it is never below its base — that would break conservation and is
//     checked as an internal invariant). The rank restores the newest
//     checkpoint at or below its base, re-stages everything delivered
//     since that checkpoint, clears its held outboxes, and replays. The
//     staging heap re-delivers the straggler merged with the re-staged
//     events in canonical (time, sent, srcRank, seq) order, so the
//     replayed timeline is exactly what a conservative run would have
//     produced.
//   - Replay regenerates sends the committed prefix already released; the
//     cross-rank deliver drops a send when the engine clock is below the
//     rank's base. The committed prefix replays deterministically — same
//     events, same sends, same sequence numbers (the send counter is
//     restored from the checkpoint) — so the dropped sends are precisely
//     the duplicates.
//
// Checkpoint storage is bounded like the arena caps elsewhere in the tree:
// at most specDepth checkpoints are retained per rank (a rank at the cap
// simply stops speculating past its conservative horizon until commits
// drain a slot), snapshot buffers are pooled and reused, and the
// delivered-event log is pruned whenever the rollback target advances.
//
// Every speculative run has a per-rank governor: a rank whose rollback
// count within a policy window crosses a threshold is demoted to its
// pairwise horizon for a cooldown, then re-promoted. Rollbacks depend only
// on simulation content — never on host timing — so demotion decisions,
// and therefore results, stay bit-identical run to run.

import (
	"fmt"

	"sst/internal/sim"
)

const (
	// defaultSpecLeap is how many multiples of a rank's inbound lookahead
	// one speculative leg may run past its frontier. Larger legs amortize
	// more barrier rounds but risk longer replays on a rollback.
	defaultSpecLeap = 8
	// defaultSpecDepth is how many engine checkpoints a rank retains; at
	// the cap the rank falls back to conservative legs until commits free
	// a slot, which is what bounds speculative memory.
	defaultSpecDepth = 4

	// Governor policy: govThreshold rollbacks within a govWindow-round
	// window demote the rank to conservative legs for govCooldown rounds.
	// All three count coordinator rounds, which are a pure function of
	// simulation content.
	govWindow    = 16
	govThreshold = 4
	govCooldown  = 64
)

// specCkpt is one rollback checkpoint: the engine snapshot taken at a leg
// boundary, plus the send counter and handled count needed to replay from
// it. at is the leg target (logical time); the engine clock inside the
// blob rests at the last event at or below it.
type specCkpt struct {
	at      sim.Time
	blob    []byte
	sendSeq uint64
	handled uint64
}

// specState is one rank's per-Run optimistic bookkeeping. Coordinator-owned;
// created at runSpeculative entry and dropped at exit.
type specState struct {
	// frontier is how far the engine has executed, speculatively or not.
	// Invariant: base <= frontier (base = min(horizon, frontier) clamped
	// monotone), and ckpts[0].at <= base, so the rollback target always
	// covers any straggler (arrivals are never below base).
	frontier sim.Time
	// ckpts is the time-ordered checkpoint list; ckpts[0] is the rollback
	// target. Length is capped at Runner.specDepth.
	ckpts []specCkpt
	// log holds every remote event delivered into the engine since
	// ckpts[0].at, in delivery order. A checkpoint at time T contains
	// exactly the deliveries below T (legs deliver strictly below their
	// target), so when the target advances to T the entries below T are
	// pruned, and on a rollback the remainder is pushed back into staging.
	log []remoteEvent
	// pool recycles checkpoint blobs; enc is the reusable snapshot encoder.
	pool [][]byte
	enc  *sim.Encoder
	// Governor state, in coordinator rounds.
	winStart     uint64
	winRollbacks int
	demotedUntil uint64
}

// specNextCommit bounds the earliest time this rank could still produce a
// new committed effect: its live engine queue, its staged arrivals, and
// its held (unreleased) sends. Everything else another rank could ever
// receive from it is causally downstream of one of these, at least one
// shortest-path latency away — including replays after a rollback, whose
// divergence starts at a straggler that is itself bounded through its
// sender's own specNextCommit (the standard transitive lookahead argument).
func (rk *rank) specNextCommit() sim.Time {
	next := rk.sim.Engine().NextEventTime()
	if t := rk.staging.minTime(); t < next {
		next = t
	}
	for _, ob := range rk.outboxes {
		// Outboxes are send-time ordered: sends are appended in engine
		// order and cleared on rollback.
		if len(ob) > 0 && ob[0].sent < next {
			next = ob[0].sent
		}
	}
	return next
}

// specCheckpoint snapshots the rank's engine as a rollback point at
// logical time at. The encoder and blob buffers are reused across legs so
// the steady state allocates nothing.
func (r *Runner) specCheckpoint(rk *rank, at sim.Time) error {
	sp := rk.spec
	if sp.enc == nil {
		sp.enc = sim.NewEncoder()
	}
	sp.enc.Reset()
	if err := rk.sim.Engine().Snapshot(sp.enc); err != nil {
		return fmt.Errorf("par: rank %d speculative checkpoint at %v: %w (speculative sync needs a fully checkpointable model)", rk.id, at, err)
	}
	var buf []byte
	if n := len(sp.pool); n > 0 {
		buf, sp.pool[n-1], sp.pool = sp.pool[n-1], nil, sp.pool[:n-1]
	}
	sp.ckpts = append(sp.ckpts, specCkpt{
		at:      at,
		blob:    append(buf[:0], sp.enc.Bytes()...),
		sendSeq: rk.sendSeq,
		handled: rk.sim.Engine().Handled(),
	})
	if n := len(sp.ckpts); n > rk.specPeakCkpts {
		rk.specPeakCkpts = n
	}
	bytes := 0
	for i := range sp.ckpts {
		bytes += len(sp.ckpts[i].blob)
	}
	if bytes > rk.specPeakBytes {
		rk.specPeakBytes = bytes
	}
	return nil
}

// specRecycle returns a checkpoint blob to the buffer pool, which is
// trimmed to the depth cap like the simulation arenas.
func (r *Runner) specRecycle(sp *specState, blob []byte) {
	if blob == nil || len(sp.pool) >= r.specDepth {
		return
	}
	sp.pool = append(sp.pool, blob[:0])
}

// specRelease moves the committed prefix of every outbox — sends with
// sent < base — into the destinations' staging heaps. Only these are ever
// visible to other ranks; speculative sends stay held.
func (r *Runner) specRelease(rk *rank) {
	for dst, ob := range rk.outboxes {
		n := 0
		for n < len(ob) && ob[n].sent < rk.base {
			n++
		}
		if n == 0 {
			continue
		}
		st := &r.ranks[dst].staging
		for i := 0; i < n; i++ {
			st.push(ob[i])
		}
		m := copy(ob, ob[n:])
		for i := m; i < len(ob); i++ {
			ob[i] = remoteEvent{} // release payload/port references
		}
		rk.outboxes[dst] = ob[:m]
	}
}

// specAdvanceCkpts moves the rollback target to the newest checkpoint at
// or below base, recycling the blobs it passes and pruning the
// delivered-event log below the new target (the target's snapshot already
// contains those deliveries). Pruning is tied to target advancement, never
// to base: a rollback may rewind below base, and the log must still cover
// everything delivered since the target.
func (r *Runner) specAdvanceCkpts(rk *rank) {
	sp := rk.spec
	advanced := false
	for len(sp.ckpts) > 1 && sp.ckpts[1].at <= rk.base {
		r.specRecycle(sp, sp.ckpts[0].blob)
		copy(sp.ckpts, sp.ckpts[1:])
		sp.ckpts[len(sp.ckpts)-1] = specCkpt{}
		sp.ckpts = sp.ckpts[:len(sp.ckpts)-1]
		advanced = true
	}
	if !advanced {
		return
	}
	cut := sp.ckpts[0].at
	n := 0
	for _, ev := range sp.log {
		if ev.time >= cut {
			sp.log[n] = ev
			n++
		}
	}
	for i := n; i < len(sp.log); i++ {
		sp.log[i] = remoteEvent{}
	}
	sp.log = sp.log[:n]
}

// specRollback restores the rank to its rollback target after a straggler
// arrival: engine state and send counter come from the checkpoint, held
// outboxes are discarded (replay regenerates them; the deliver drops the
// prefix the committed timeline already released), and everything
// delivered since the checkpoint goes back into staging, where the heap
// merges it with the straggler in canonical order.
func (r *Runner) specRollback(rk *rank) error {
	sp := rk.spec
	c0 := &sp.ckpts[0]
	eng := rk.sim.Engine()
	replayed := eng.Handled() - c0.handled
	if err := eng.Restore(sim.NewDecoder(c0.blob)); err != nil {
		return fmt.Errorf("par: rank %d rollback to %v: %w", rk.id, c0.at, err)
	}
	rk.sendSeq = c0.sendSeq
	for dst, ob := range rk.outboxes {
		for i := range ob {
			ob[i] = remoteEvent{}
		}
		rk.outboxes[dst] = ob[:0]
	}
	for _, ev := range sp.log {
		rk.staging.push(ev)
	}
	for i := range sp.log {
		sp.log[i] = remoteEvent{}
	}
	sp.log = sp.log[:0]
	for i := 1; i < len(sp.ckpts); i++ {
		r.specRecycle(sp, sp.ckpts[i].blob)
		sp.ckpts[i] = specCkpt{}
	}
	sp.ckpts = sp.ckpts[:1]
	sp.frontier = c0.at
	sp.winRollbacks++
	rk.rollbacks++
	rk.replayed += replayed
	return nil
}

// specDeliver schedules every staged arrival below the rank's leg target,
// recording each in the delivered log so a rollback can re-stage it. After
// the rollback phase every remaining staged event is at or above the
// frontier, and the engine clock is strictly below it, so ScheduleAt can
// never be asked to schedule into the past.
func (rk *rank) specDeliver() {
	sp := rk.spec
	for len(rk.staging) > 0 && rk.staging[0].time < rk.target {
		ev := rk.staging.pop()
		sp.log = append(sp.log, ev)
		if len(sp.log) > rk.specPeakLog {
			rk.specPeakLog = len(sp.log)
		}
		rk.schedule(ev)
	}
}

// specTarget picks rank i's leg target for this round: the conservative
// horizon when the governor has demoted the rank or it is at its
// checkpoint cap, otherwise up to specLeap inbound lookaheads past its
// frontier. Always clamped to until so Run(until) ends with every frontier
// committed (which is what lets Runner.Snapshot between Run calls work
// unchanged in speculative mode).
func (r *Runner) specTarget(rk *rank, la [][]sim.Time, round uint64, until sim.Time) sim.Time {
	sp := rk.spec
	h := rk.horizon
	if round >= sp.demotedUntil && sp.demotedUntil != 0 {
		sp.demotedUntil = 0
		sp.winStart, sp.winRollbacks = round, 0
		rk.promotions++
	}
	if sp.demotedUntil != 0 {
		return h
	}
	if round-sp.winStart >= govWindow {
		sp.winStart, sp.winRollbacks = round, 0
	}
	if sp.winRollbacks >= govThreshold {
		sp.demotedUntil = round + govCooldown
		rk.fallbacks++
		return h
	}
	if len(sp.ckpts) >= r.specDepth {
		return h
	}
	lain := r.rankLookahead(la, rk.id)
	if lain == sim.TimeInfinity {
		// Nothing can reach this rank; its horizon is already unconstrained.
		return h
	}
	t := sp.frontier + sim.Time(r.specLeap)*lain
	if t < sp.frontier { // overflow
		t = sim.TimeInfinity
	}
	if t < h {
		t = h
	}
	if t > until {
		t = until
	}
	return t
}

// runSpeculative is the optimistic counterpart of the conservative loop in
// Run. Round structure:
//
//  1. consistent cut: per-rank commit bounds (specNextCommit) and pairwise
//     horizons derived from them;
//  2. commit: advance each base to min(horizon, frontier), release the
//     held send prefix below it, advance rollback targets, prune logs;
//  3. rollback: any rank with a staged arrival below its frontier restores
//     its target checkpoint and re-stages its delivered log;
//  4. classify and dispatch: ranks with work below their leg target run a
//     leg on the worker goroutines (delivering covered staged arrivals
//     first); idle ranks extend their frontier to the conservative horizon
//     for free;
//  5. checkpoint: each dispatched rank snapshots at its new frontier if a
//     slot is free.
//
// The loop ends when every base reaches until.
func (r *Runner) runSpeculative(until sim.Time) (uint64, error) {
	if !r.SnapshotsEnabled() {
		return 0, fmt.Errorf("par: %s sync requires EnableSnapshots before the model is built (rollback needs a checkpointable model)", r.mode)
	}
	la := r.lookaheadMatrix()
	evStart := make([]uint64, len(r.ranks))
	total := func() uint64 {
		var n uint64
		for i, rk := range r.ranks {
			n += rk.sim.Engine().Handled() - evStart[i]
		}
		return n
	}
	for i, rk := range r.ranks {
		rk.specOn = true
		evStart[i] = rk.sim.Engine().Handled()
		rk.spec = &specState{frontier: rk.base}
	}
	defer func() {
		for _, rk := range r.ranks {
			rk.spec = nil
			rk.specOn = false
		}
	}()
	// The initial checkpoint doubles as the model-checkpointability probe:
	// a model with untracked pending events fails here, before any
	// speculation, with a clear error.
	for _, rk := range r.ranks {
		if err := r.specCheckpoint(rk, rk.base); err != nil {
			return 0, err
		}
	}

	w := r.startWorkers()
	defer w.stop()

	active := make([]*rank, 0, len(r.ranks))
	nw := make([]sim.Time, len(r.ranks))
	var round uint64
	for {
		round++
		if r.interrupted.Load() {
			return total(), fmt.Errorf("par: run interrupted at window %v: %w", r.now, sim.ErrInterrupted)
		}
		// Phase 1: consistent cut (all workers parked between rounds).
		for i, rk := range r.ranks {
			nw[i] = rk.specNextCommit()
		}
		for i := range r.ranks {
			r.ranks[i].horizon = r.horizonFor(i, la, nw, until)
		}
		// Phase 2: commit.
		progress := false
		for _, rk := range r.ranks {
			nb := rk.spec.frontier
			if rk.horizon < nb {
				nb = rk.horizon
			}
			if nb > rk.base {
				rk.base = nb
				progress = true
				r.specRelease(rk)
				r.specAdvanceCkpts(rk)
			}
		}
		done := true
		min := sim.TimeInfinity
		for _, rk := range r.ranks {
			if rk.base < until {
				done = false
			}
			if rk.base < min {
				min = rk.base
			}
		}
		if min > r.now && min != sim.TimeInfinity {
			r.now = min
		}
		if done {
			r.settle(until)
			break
		}
		// Phase 3: rollbacks. A staged arrival below the frontier means
		// speculation overshot; below base would mean conservation itself
		// broke, which is an internal invariant violation.
		for _, rk := range r.ranks {
			if t := rk.staging.minTime(); t < rk.spec.frontier {
				if t < rk.base {
					return total(), fmt.Errorf("par: internal: rank %d arrival at %v below committed base %v", rk.id, t, rk.base)
				}
				if err := r.specRollback(rk); err != nil {
					return total(), err
				}
				progress = true
			}
		}
		// Phase 4: classify and dispatch.
		active = active[:0]
		for _, rk := range r.ranks {
			if rk.base >= until {
				continue
			}
			t := r.specTarget(rk, la, round, until)
			if rk.nextWork() < t {
				rk.target = t
				active = append(active, rk)
				continue
			}
			if rk.horizon > rk.spec.frontier {
				rk.spec.frontier = rk.horizon
				rk.idleWindows++
				rk.skipped++
				progress = true
			}
		}
		if len(active) == 0 {
			if !progress {
				return total(), fmt.Errorf("par: internal: speculative coordinator made no progress at %v", r.now)
			}
			r.fastForwards++
			continue
		}
		for _, rk := range active {
			rk.specDeliver()
		}
		if err := r.dispatch(w, active); err != nil {
			return total(), err
		}
		// Phase 5: frontier + checkpoint.
		for _, rk := range active {
			rk.spec.frontier = rk.target
			if rk.handled == 0 {
				rk.idleWindows++
			}
			if rk.target != sim.TimeInfinity && len(rk.spec.ckpts) < r.specDepth {
				if err := r.specCheckpoint(rk, rk.target); err != nil {
					return total(), err
				}
			}
		}
		r.windows++
	}
	n := total()
	for i, rk := range r.ranks {
		rk.events += rk.sim.Engine().Handled() - evStart[i]
	}
	return n, nil
}
