// Package par is gosst's parallel discrete-event runtime: conservative
// barrier-synchronized PDES in the Structural Simulation Toolkit mold.
//
// The model graph is partitioned into ranks, each with its own sequential
// sim.Engine running in its own goroutine. Ranks only interact over links,
// and every cross-rank link has a declared nonzero latency, so link
// latencies bound how soon one rank can affect another (the lookahead).
// The coordinator advances each rank through half-open windows bounded by
// a conservative horizon, computed per rank from the other ranks'
// next-event-time snapshots plus a per-rank-pair lookahead matrix
// (all-pairs shortest latency paths over the partitioned link graph).
// Ranks with no work below their horizon are skipped without a dispatch,
// and every dispatched rank stops at its horizon, so nothing a rank
// executes is ever provisional. Remote events are staged per destination
// in canonical (time, send time, source rank, sequence) order and only
// scheduled once the destination's window covers them, so a parallel run
// is bit-for-bit deterministic — independent of goroutine scheduling and
// rank count.
package par

import (
	"errors"
	"fmt"
	"runtime/debug"
	"strings"
	"sync/atomic"
	"time"

	"sst/internal/sim"
)

// ErrStalled reports that the progress watchdog fired: no rank completed a
// synchronization window within the watchdog period. The wrapping error
// carries per-rank diagnostics (clock, pending events, outbox depth).
var ErrStalled = errors.New("par: runner stalled")

// defaultWatchdog is the zero-progress limit. A synchronization window that
// takes longer than this without any rank finishing is treated as a stall —
// a zero-delay event loop, a handler blocked on host I/O, or a
// mis-partitioned model — and Run returns a diagnostic error instead of
// hanging.
const defaultWatchdog = 30 * time.Second

// remoteEvent is one payload crossing a rank boundary. sent (the sender's
// clock at the Send call) participates in the canonical merge order: a
// sequential run inserts a delivery into the queue at send time, so
// same-arrival-time deliveries tie-break chronologically by send — the
// staging heap reproduces that regardless of which barrier round carried
// each event across.
type remoteEvent struct {
	time    sim.Time
	sent    sim.Time
	srcRank int
	seq     uint64
	dst     *sim.Port
	payload any
}

// rank is one partition: an engine plus per-destination outboxes.
type rank struct {
	id       int
	sim      *sim.Simulation
	outboxes [][]remoteEvent // indexed by destination rank
	sendSeq  uint64
	handled  uint64
	// base is how far this rank has conservatively advanced: every event
	// below base has been processed, and no future remote event can arrive
	// below it. horizon is the upper bound of the window being considered
	// this round. Both are coordinator-owned.
	base    sim.Time
	horizon sim.Time
	// staging holds remote events addressed to this rank that its window
	// has not yet reached, in canonical (time, sent, srcRank, seq) heap order.
	staging remoteHeap
	// deliver is the handler every staged event is scheduled with, the
	// method value made once, and spare recycles the copies it carries: a
	// closure per delivery would allocate. The coordinator takes from spare
	// between windows and the rank's goroutine returns to it within one.
	deliver sim.Handler
	spare   []*remoteEvent
	// Cumulative run metrics, updated only by the coordinator goroutine
	// between windows (never by the rank goroutine), so reading them after
	// Run returns is race-free.
	events      uint64
	idleWindows uint64
	skipped     uint64
	// err captures a panic raised by this rank's event handlers during a
	// window; the coordinator surfaces it after the barrier.
	err error

	// Snapshot fields published by the rank goroutine at each barrier
	// arrival and read by the watchdog for stall diagnostics. Atomics so
	// the coordinator may read them while other ranks still run.
	pubClock   atomic.Int64
	pubPending atomic.Int64
	pubOutbox  atomic.Int64
	pubWindows atomic.Uint64
}

// publish records the rank's post-window state for the stall watchdog.
func (rk *rank) publish() {
	eng := rk.sim.Engine()
	rk.pubClock.Store(int64(eng.Now()))
	rk.pubPending.Store(int64(eng.Pending()))
	depth := 0
	for _, ob := range rk.outboxes {
		depth += len(ob)
	}
	rk.pubOutbox.Store(int64(depth))
	rk.pubWindows.Add(1)
}

// runWindow advances the rank's engine through the half-open window
// [now, horizon), converting handler panics into rank errors so one broken
// component reports instead of killing the process. The empty window
// [0, 0) handles nothing.
func (rk *rank) runWindow(horizon sim.Time) {
	defer func() {
		if r := recover(); r != nil {
			rk.err = rankPanicError(rk.id, rk.sim.Engine().Now(), r)
		}
	}()
	switch horizon {
	case 0:
		rk.handled = 0
	case sim.TimeInfinity:
		rk.handled = rk.sim.Engine().Run(horizon)
	default:
		rk.handled = rk.sim.Engine().Run(horizon - 1)
	}
}

// deliverStaged schedules every staged remote event the rank's current
// window covers into its engine, in canonical (time, sent, srcRank, seq) order.
// Deferring delivery to the covering window — rather than scheduling at
// whichever barrier carried the event across — makes the engine insertion
// order, and therefore same-timestamp tie-breaking, independent of window
// boundaries. That is what keeps every rank count bit-identical.
func (rk *rank) deliverStaged() {
	for len(rk.staging) > 0 && rk.staging[0].time < rk.horizon {
		rk.schedule(rk.staging.pop())
	}
}

// schedule puts a staged remote event on the rank's engine at its arrival
// time, carried in a recycled copy.
func (rk *rank) schedule(ev remoteEvent) {
	var p *remoteEvent
	if k := len(rk.spare) - 1; k >= 0 {
		p, rk.spare = rk.spare[k], rk.spare[:k]
	} else {
		p = new(remoteEvent)
	}
	*p = ev
	rk.sim.Engine().ScheduleAt(ev.time, sim.PrioLink, rk.deliver, p)
}

// deliverRemote is the staged events' handler: it recycles the event and
// hands its payload to the destination port.
func (rk *rank) deliverRemote(pl any) {
	ev := pl.(*remoteEvent)
	dst, payload := ev.dst, ev.payload
	*ev = remoteEvent{}
	rk.spare = append(rk.spare, ev)
	dst.Deliver(payload)
}

// nextWork returns the earliest thing this rank could possibly do: its
// engine's next pending event or its earliest staged remote event.
func (rk *rank) nextWork() sim.Time {
	next := rk.sim.Engine().NextEventTime()
	if t := rk.staging.minTime(); t < next {
		next = t
	}
	return next
}

// ErrPanic marks a Run error that carries a rank's recovered event-handler
// panic, so a caller can tell that transient class from a model's errors.
var ErrPanic = errors.New("panic")

// rankPanicError formats a recovered handler panic, wrapping ErrPanic.
// Handlers wrapped with sim.Guard arrive as *sim.PanicError and the message
// names the component; bare panics fall back to the panic value plus the
// recovery-site stack.
func rankPanicError(id int, now sim.Time, r any) error {
	if pe, ok := r.(*sim.PanicError); ok {
		return fmt.Errorf("par: rank %d at %v: %w: %w\n%s", id, now, ErrPanic, pe, pe.Stack)
	}
	return fmt.Errorf("par: rank %d at %v: %w: %v\n%s", id, now, ErrPanic, r, debug.Stack())
}

// Runner coordinates the ranks.
type Runner struct {
	ranks      []*rank
	lookahead  sim.Time
	crossLinks int
	// minLat is the direct cross-rank adjacency (min latency per pair);
	// la is the derived all-pairs lookahead matrix, rebuilt when laDirty.
	minLat      [][]sim.Time
	la          [][]sim.Time
	laDirty     bool
	now         sim.Time
	interrupted atomic.Bool
	windows     uint64
	// watchdog is the zero-progress limit, fixed at defaultWatchdog
	// outside this package's tests.
	watchdog time.Duration

	// snapPorts indexes cross-rank ports by name for coordinated snapshots
	// (staged remote events serialize their destination by port name);
	// snapDups flags names that appeared more than once. Nil unless
	// EnableSnapshots was called. See snapshot.go.
	snapPorts map[string]*sim.Port
	snapDups  map[string]bool
}

// NewRunner creates nranks empty partitions.
func NewRunner(nranks int) (*Runner, error) {
	if nranks <= 0 {
		return nil, fmt.Errorf("par: need at least one rank")
	}
	r := &Runner{lookahead: sim.TimeInfinity, watchdog: defaultWatchdog}
	r.minLat = make([][]sim.Time, nranks)
	for i := range r.minLat {
		r.minLat[i] = make([]sim.Time, nranks)
		for j := range r.minLat[i] {
			r.minLat[i][j] = sim.TimeInfinity
		}
		r.minLat[i][i] = 0
	}
	for i := 0; i < nranks; i++ {
		rk := &rank{id: i, sim: sim.New(), outboxes: make([][]remoteEvent, nranks)}
		rk.deliver = rk.deliverRemote
		r.ranks = append(r.ranks, rk)
	}
	return r, nil
}

// NumRanks returns the partition count.
func (r *Runner) NumRanks() int { return len(r.ranks) }

// Rank returns partition i's simulation container; build that rank's
// components against it.
func (r *Runner) Rank(i int) *sim.Simulation { return r.ranks[i].sim }

// Now returns the global base time: every event below it has been
// processed on every rank.
func (r *Runner) Now() sim.Time { return r.now }

// Interrupt asks a running simulation to stop at the next opportunity:
// every rank engine is interrupted and the coordinator returns
// sim.ErrInterrupted after the current window's barrier. Safe to call from
// any goroutine (signal handlers in the CLIs use it).
func (r *Runner) Interrupt() {
	r.interrupted.Store(true)
	for _, rk := range r.ranks {
		rk.sim.Engine().Interrupt()
	}
}

// Lookahead returns the global synchronization floor (min cross-rank
// latency; 0 with no cross links). Pairwise horizons may run individual
// ranks through far wider windows — see horizonFor.
func (r *Runner) Lookahead() sim.Time {
	if r.crossLinks == 0 {
		return 0
	}
	return r.lookahead
}

// Connect creates a link of the given latency between rankA and rankB,
// returning the port on each side. Same-rank connections are ordinary
// local links; cross-rank connections must have nonzero latency, which
// feeds the runner's lookahead matrix.
func (r *Runner) Connect(name string, latency sim.Time, rankA, rankB int) (*sim.Port, *sim.Port, error) {
	if rankA < 0 || rankA >= len(r.ranks) || rankB < 0 || rankB >= len(r.ranks) {
		return nil, nil, fmt.Errorf("par: link %q connects invalid ranks %d,%d", name, rankA, rankB)
	}
	if rankA == rankB {
		a, b := r.ranks[rankA].sim.Connect(name, latency)
		return a, b, nil
	}
	if latency == 0 {
		return nil, nil, fmt.Errorf("par: cross-rank link %q needs nonzero latency (it is the lookahead)", name)
	}
	// The link object nominally lives on rankA's engine, but delivery is
	// routed through SetDeliver, so the home engine is never used for sends.
	a, b := sim.Connect(r.ranks[rankA].sim.Engine(), name, latency)
	if r.snapPorts != nil {
		r.recordSnapPort(a)
		r.recordSnapPort(b)
	}
	r.crossLinks++
	if latency < r.lookahead {
		r.lookahead = latency
	}
	r.recordLink(rankA, rankB, latency)
	ra, rb := r.ranks[rankA], r.ranks[rankB]
	a.Link().SetDeliver(func(from *sim.Port, delay sim.Time, payload any) {
		src, dstRank, dstPort := ra, rb.id, b
		if from == b {
			src, dstRank, dstPort = rb, ra.id, a
		}
		src.sendSeq++
		now := src.sim.Engine().Now()
		src.outboxes[dstRank] = append(src.outboxes[dstRank], remoteEvent{
			time:    now + delay,
			sent:    now,
			srcRank: src.id,
			seq:     src.sendSeq,
			dst:     dstPort,
			payload: payload,
		})
	})
	return a, b, nil
}

// horizonFor computes how far rank i may safely advance this round, from
// the snapshot of every rank's next-event time nw[j] (engine queue or
// staged remote, taken while all workers are parked): any event that can
// still reach rank i starts from some currently scheduled event at some
// rank j and travels at least the shortest-path latency la[j][i], so
// nothing can arrive before
//
//	min over j != i of  nw[j] + la[j][i]
//
// Traffic rank i itself originates can come back no sooner than a round
// trip, nw[i] + 2*min_j la[i][j], which is the i == j term. Using
// next-event times instead of rank clocks is what makes the horizon
// topology-aware in practice: a tightly-coupled cluster with nothing
// scheduled stops pacing everyone else, and loosely-coupled ranks get
// windows sized by their slow inbound links rather than by the busiest
// pair's tight one. The result is clamped to [rank base, until].
func (r *Runner) horizonFor(i int, la [][]sim.Time, nw []sim.Time, until sim.Time) sim.Time {
	rk := r.ranks[i]
	h := sim.TimeInfinity
	minIn := sim.TimeInfinity
	for j := range r.ranks {
		if j == i {
			continue
		}
		l := la[j][i]
		if l == sim.TimeInfinity {
			continue
		}
		if l < minIn {
			minIn = l
		}
		c := nw[j] + l
		if c < nw[j] { // overflow: that rank is unconstraining
			continue
		}
		if c < h {
			h = c
		}
	}
	// Round trip for traffic rank i itself originates (la is symmetric, so
	// min inbound == min outbound).
	if rt := 2 * minIn; minIn != sim.TimeInfinity && rt > minIn {
		if c := nw[i] + rt; c >= nw[i] && c < h {
			h = c
		}
	}
	if h > until {
		h = until
	}
	if h < rk.base {
		h = rk.base
	}
	return h
}

// Run advances the whole model until the given time (or until globally
// idle), returning total events handled. Events scheduled exactly at
// `until` are not processed (windows are half-open), so event counts match
// across rank counts. With one rank Run degenerates to a sequential run
// with no synchronization overhead.
func (r *Runner) Run(until sim.Time) (uint64, error) {
	if len(r.ranks) == 1 && r.crossLinks == 0 {
		rk := r.ranks[0]
		rk.err = nil
		rk.runWindow(until) // half-open: finite horizons run to until-1
		rk.publish()
		n := rk.handled
		rk.events += n
		if n == 0 {
			rk.idleWindows++
		}
		r.windows++
		if rk.err != nil {
			return n, rk.err
		}
		if rk.sim.Engine().Interrupted() || r.interrupted.Load() {
			r.now = rk.sim.Engine().Now()
			return n, fmt.Errorf("par: run interrupted at %v: %w", r.now, sim.ErrInterrupted)
		}
		r.now = until
		if until == sim.TimeInfinity {
			r.now = rk.sim.Engine().Now()
		}
		return n, nil
	}
	if r.crossLinks > 0 && (r.lookahead == 0 || r.lookahead == sim.TimeInfinity) {
		return 0, fmt.Errorf("par: no usable lookahead")
	}
	for _, rk := range r.ranks {
		rk.err = nil
	}
	la := r.lookaheadMatrix()
	w := r.startWorkers()
	defer w.stop()

	var total uint64
	active := make([]*rank, 0, len(r.ranks))
	nw := make([]sim.Time, len(r.ranks))
	for {
		// Horizon phase: snapshot every rank's next-event time (all
		// workers are parked between rounds, so this is a consistent
		// cut), compute every rank's conservative horizon from the
		// snapshot, then classify. A rank is dispatched only if it has
		// work below its horizon (local pending or staged remote);
		// otherwise its base advances for free (skip-idle).
		for i, rk := range r.ranks {
			nw[i] = rk.nextWork()
		}
		for i := range r.ranks {
			r.ranks[i].horizon = r.horizonFor(i, la, nw, until)
		}
		active = active[:0]
		for i, rk := range r.ranks {
			if rk.base >= until {
				continue
			}
			if nw[i] < rk.horizon {
				active = append(active, rk)
				continue
			}
			if rk.horizon > rk.base {
				rk.base = rk.horizon
				rk.idleWindows++
				rk.skipped++
			}
		}
		if len(active) == 0 {
			// The rank holding the earliest pending event always has it
			// below its own horizon (every other bound on it is that time
			// plus a positive latency), so an empty round means nothing is
			// pending before until: the run is over.
			for _, rk := range r.ranks {
				if rk.base < until {
					rk.base = until
				}
			}
			r.settle(until)
			break
		}
		// Delivery phase: schedule staged remote events now covered by
		// each active rank's window, in canonical heap order.
		for _, rk := range active {
			rk.deliverStaged()
		}
		// Parallel phase: each active rank runs its events strictly below
		// its horizon.
		if err := r.dispatch(w, active); err != nil {
			return total, err
		}
		// Exchange phase: sharded — only ranks that ran produced mail,
		// and each nonempty outbox batch goes straight into its
		// destination's staging heap. Heap pop order is the canonical
		// (time, sent, srcRank, seq) order regardless of which barrier round a
		// batch arrived in, so the drain order here need not be sorted.
		for _, src := range active {
			for dst, ob := range src.outboxes {
				if len(ob) == 0 {
					continue
				}
				st := &r.ranks[dst].staging
				for _, ev := range ob {
					st.push(ev)
				}
				src.outboxes[dst] = ob[:0]
			}
		}
		// Advance: only dispatched ranks move here (skipped ranks already
		// advanced in the horizon phase), then settle the global base.
		for _, rk := range active {
			total += rk.handled
			rk.events += rk.handled
			if rk.handled == 0 {
				rk.idleWindows++
			}
			if rk.horizon > rk.base {
				rk.base = rk.horizon
			}
		}
		r.windows++
		min := sim.TimeInfinity
		for _, rk := range r.ranks {
			if rk.base < min {
				min = rk.base
			}
		}
		if min > r.now {
			r.now = min
		}
		if r.now >= until {
			break
		}
	}
	return total, nil
}

// settle rests the global clock once every base has reached until: at
// until itself, or — for a run to global idleness — at the furthest rank.
func (r *Runner) settle(until sim.Time) {
	if until != sim.TimeInfinity {
		if r.now < until {
			r.now = until
		}
		return
	}
	for _, rk := range r.ranks {
		if c := rk.sim.Engine().Now(); c > r.now {
			r.now = c
		}
	}
}

// workers is one Run call's persistent rank goroutines: each is handed a
// horizon per window, which keeps per-window cost to a pair of channel operations instead of
// goroutine churn. A worker publishes a state snapshot and announces
// itself on the barrier channel after each window; the coordinator counts
// arrivals (with a watchdog) instead of blocking on an uninterruptible
// WaitGroup. The barrier holds one slot per rank so a worker never blocks
// on arrival, not even one that finishes after a stall was reported. The
// watchdog timer and the arrival marks are the Run's, reused by every
// window.
type workers struct {
	work    []chan sim.Time
	barrier chan int
	timer   *time.Timer
	arrived []bool
}

func (r *Runner) startWorkers() *workers {
	w := &workers{
		work:    make([]chan sim.Time, len(r.ranks)),
		barrier: make(chan int, len(r.ranks)),
		timer:   time.NewTimer(r.watchdog),
		arrived: make([]bool, len(r.ranks)),
	}
	stopTimer(w.timer)
	for i, rk := range r.ranks {
		w.work[i] = make(chan sim.Time)
		go func(rk *rank, ch <-chan sim.Time) {
			for bound := range ch {
				rk.runWindow(bound)
				rk.publish()
				w.barrier <- rk.id
			}
		}(rk, w.work[i])
	}
	return w
}

// stop ends the worker goroutines; a worker stuck past a stall is abandoned
// and exits once its window returns.
func (w *workers) stop() {
	for _, ch := range w.work {
		close(ch)
	}
}

// dispatch runs one window: every active rank executes its events strictly
// below rk.horizon on its worker, and the coordinator waits for all of them.
// A stall, any rank's handler panic (every failing rank's, joined — a
// corrupted simulation must not continue) or an interrupt ends the run.
func (r *Runner) dispatch(w *workers, active []*rank) error {
	for _, rk := range active {
		rk.err = nil
		w.work[rk.id] <- rk.horizon
	}
	if err := r.waitWindow(w, active); err != nil {
		return err
	}
	var rankErrs []error
	for _, rk := range active {
		if rk.err != nil {
			rankErrs = append(rankErrs, rk.err)
		}
	}
	if len(rankErrs) > 0 {
		return errors.Join(rankErrs...)
	}
	if r.interrupted.Load() {
		return fmt.Errorf("par: run interrupted at window %v: %w", r.now, sim.ErrInterrupted)
	}
	return nil
}

// waitWindow collects one barrier arrival per dispatched rank. A watchdog
// period with no arrivals counts as zero progress: the rank engines are
// interrupted (which unsticks even zero-delay event loops — the engine
// polls its interrupt flag every few events) and, once the surviving
// ranks check in or a grace period expires, a diagnostic ErrStalled is
// returned.
func (r *Runner) waitWindow(w *workers, active []*rank) error {
	need := len(active)
	arrived := w.arrived
	clear(arrived)
	got := 0
	timer := w.timer
	timer.Reset(r.watchdog)
	defer stopTimer(timer)
	stalled := false
	for got < need {
		select {
		case id := <-w.barrier:
			arrived[id] = true
			got++
			if !stalled {
				if !timer.Stop() {
					<-timer.C
				}
				timer.Reset(r.watchdog)
			}
		case <-timer.C:
			if stalled {
				// Grace period expired: some rank is blocked outside
				// the event loop (host I/O, a channel) and cannot be
				// interrupted. Report with what the ranks last
				// published; the stuck goroutines are abandoned.
				return r.stallError(active, arrived)
			}
			stalled = true
			for _, rk := range r.ranks {
				rk.sim.Engine().Interrupt()
			}
			timer.Reset(r.watchdog)
		}
	}
	if stalled {
		// Every rank checked in only after being interrupted: the window
		// made no progress for a full watchdog period — a stall, but one
		// with fully consistent diagnostics.
		return r.stallError(active, arrived)
	}
	return nil
}

// stopTimer stops t and drains a fire it may have left in its channel, so
// the next Reset starts a clean period.
func stopTimer(t *time.Timer) {
	if !t.Stop() {
		select {
		case <-t.C:
		default:
		}
	}
}

// stallError builds the zero-progress diagnostic: the window round that
// hung and each rank's last-published clock, pending-event count, outbox
// depth, and this round's base/horizon.
func (r *Runner) stallError(active []*rank, arrived []bool) error {
	dispatched := make([]bool, len(r.ranks))
	for _, rk := range active {
		dispatched[rk.id] = true
	}
	hi := r.now
	for _, rk := range r.ranks {
		if rk.horizon != sim.TimeInfinity && rk.horizon > hi {
			hi = rk.horizon
		}
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, "no rank completed the window [%v, %v) within %v (lookahead %v)",
		r.now, hi, r.watchdog, r.Lookahead())
	for _, rk := range r.ranks {
		fmt.Fprintf(&sb, "\n  rank %d: clock=%v pending=%d outbox=%d windows=%d base=%v horizon=%v",
			rk.id, sim.Time(rk.pubClock.Load()), rk.pubPending.Load(),
			rk.pubOutbox.Load(), rk.pubWindows.Load(), rk.base, rk.horizon)
		if !dispatched[rk.id] {
			sb.WriteString(" (skipped: no work below horizon)")
		} else if !arrived[rk.id] {
			sb.WriteString(" (did not respond to interrupt; state is from its last barrier)")
		}
	}
	return fmt.Errorf("%w: %s", ErrStalled, sb.String())
}

// RankMetrics is one rank's cumulative view of a parallel run.
type RankMetrics struct {
	// Rank is the partition index.
	Rank int `json:"rank"`
	// Events is the number of events this rank dispatched across all
	// windows of all Run calls.
	Events uint64 `json:"events"`
	// Windows counts the synchronization windows the rank actually ran
	// (skipped windows are not dispatched and do not count here).
	Windows uint64 `json:"windows"`
	// IdleWindows counts window rounds in which the rank dispatched
	// nothing — lookahead-limited stalls where the rank had no work while
	// other ranks had some, whether it was dispatched or skipped.
	IdleWindows uint64 `json:"idle_windows"`
	// SkippedWindows is the subset of IdleWindows where the coordinator
	// never dispatched the rank at all: with nothing below its horizon its
	// base time advanced for free instead of paying a barrier round trip.
	SkippedWindows uint64 `json:"skipped_windows"`
	// Lookahead is the rank's inbound synchronization slack: the minimum
	// pairwise lookahead over ranks that can reach it. Zero when no rank
	// can (then nothing ever constrains its horizon).
	Lookahead sim.Time `json:"lookahead_ps"`
	// Clock is the rank engine's clock at its last barrier arrival.
	Clock sim.Time `json:"clock_ps"`
}

// RunnerMetrics summarizes a parallel run for the observability layer.
type RunnerMetrics struct {
	// Windows is the number of synchronization rounds the coordinator
	// dispatched.
	Windows uint64 `json:"windows"`
	// Lookahead is the global conservative floor (min cross-rank link
	// latency; 0 with no cross links).
	Lookahead sim.Time `json:"lookahead_ps"`
	// Imbalance is max/mean of per-rank event counts: 1.0 is a perfectly
	// balanced partition, larger means some rank dominates the critical
	// path. Zero when no events ran.
	Imbalance float64 `json:"imbalance"`
	// Ranks holds the per-rank breakdown, indexed by rank.
	Ranks []RankMetrics `json:"ranks"`
}

// Metrics returns the run's synchronization and balance counters. Call it
// after Run returns; it reads coordinator-owned state and must not race a
// running simulation.
func (r *Runner) Metrics() RunnerMetrics {
	m := RunnerMetrics{
		Windows:   r.windows,
		Lookahead: r.Lookahead(),
		Ranks:     make([]RankMetrics, len(r.ranks)),
	}
	la := r.lookaheadMatrix()
	var total, max uint64
	for i, rk := range r.ranks {
		inbound := r.rankLookahead(la, i)
		if inbound == sim.TimeInfinity {
			inbound = 0
		}
		m.Ranks[i] = RankMetrics{
			Rank:           rk.id,
			Events:         rk.events,
			Windows:        rk.pubWindows.Load(),
			IdleWindows:    rk.idleWindows,
			SkippedWindows: rk.skipped,
			Lookahead:      inbound,
			Clock:          sim.Time(rk.pubClock.Load()),
		}
		total += rk.events
		if rk.events > max {
			max = rk.events
		}
	}
	if total > 0 {
		mean := float64(total) / float64(len(r.ranks))
		m.Imbalance = float64(max) / mean
	}
	return m
}

// RunAll advances until the model is globally idle.
func (r *Runner) RunAll() (uint64, error) { return r.Run(sim.TimeInfinity) }

// Finish runs every rank's component Finish hooks.
func (r *Runner) Finish() {
	for _, rk := range r.ranks {
		rk.sim.Finish()
	}
}
