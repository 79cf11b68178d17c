package core

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	"sst/internal/cache"
	"sst/internal/config"
	"sst/internal/iofault"
	"sst/internal/sim"
)

// Sweep-level parallelism. Every study in this package is a grid of fully
// independent design points: each point builds its own sim.Engine, its own
// component tree and its own stats.Registry, so points share no mutable
// state and may run on separate goroutines. runGrid — the one point
// executor every study calls — fans a sweep's points across a bounded
// worker pool and each worker writes its result back by point index, which
// keeps result ordering — and therefore every rendered Fig. 10/11/12 table —
// bit-identical to a sequential sweep regardless of worker count or
// goroutine scheduling. (The engines themselves stay single-threaded; only
// whole design points are concurrent.)
//
// All knobs travel in a SweepOptions value passed to each study, so two
// sweeps with different worker counts, contexts or metrics sinks can run
// concurrently in one process without stepping on shared state.

// SweepOptions configures one sweep invocation. The zero value is a valid
// default: GOMAXPROCS workers, background context, no metrics.
type SweepOptions struct {
	// Workers is the worker-goroutine count for independent design points;
	// <= 0 means GOMAXPROCS.
	Workers int

	// Context, when non-nil, is consulted between design points.
	// Cancelling it does not abort points already running — each point is a
	// self-contained simulation that finishes and keeps its result — but
	// every point not yet started is skipped with a per-point error, so an
	// interrupted sweep drains quickly and still renders everything it
	// completed.
	Context context.Context

	// Metrics, when non-nil, observes every design point's completion.
	// PointDone is called from worker goroutines, possibly concurrently;
	// implementations must be safe for concurrent use (obs.SweepCollector
	// is).
	Metrics SweepMetrics

	// Journal, when non-empty, is the path of an append-only JSONL journal
	// in which journal-aware studies (MemTechWidthSweep, the network
	// studies) durably record every completed design point. The file is
	// fsync'd per record, so a sweep killed at any instant — including
	// mid-write — can be resumed without repeating finished work.
	Journal string

	// Resume, with Journal set, loads the journal's successfully completed
	// points into the grid instead of re-running them; failed or missing
	// points run normally. A torn final line (crash mid-append) is
	// tolerated and truncated. Without Resume the journal starts fresh.
	Resume bool

	// PointTimeout, when > 0, bounds each design point's wall-clock time:
	// the per-point context passed to the point function expires after it,
	// and context-aware studies interrupt the point's engine so a hung
	// point is marked failed (with its error recorded) instead of wedging
	// a pool worker forever.
	PointTimeout time.Duration

	// Cache, when non-nil, memoizes completed design points content-
	// addressed by their fully-resolved configuration: a repeated or
	// overlapping grid re-simulates only what is new. The cache is safe
	// for concurrent use, so one instance may serve several sweeps (and
	// several workers) at once; a hit is field-for-field identical to a
	// fresh simulation by construction. See internal/cache and runGrid.
	Cache *cache.Cache

	// Retry re-runs transient point failures (recovered panics, and —
	// once, at a stretched deadline — PointTimeout expiries) with
	// seeded-deterministic exponential backoff; a point that exhausts the
	// budget is quarantined: marked Failed with an error wrapping
	// ErrQuarantined. The zero value disables retry. See RetryPolicy.
	Retry RetryPolicy

	// FS, when non-nil, is the host-storage seam every durable artifact of
	// the sweep (today: the journal) is written through; nil means the
	// real filesystem (iofault.Disk). The crash-point harness substitutes
	// an iofault.MemFS to enumerate crashes and inject I/O faults at every
	// write, fsync and rename.
	FS iofault.FS

	// Arena, when non-nil, gives each sweep worker a reusable PointArena
	// for the duration of the sweep: consecutive design points on a worker
	// share one event free list, cache backing pool and kernel batch-buffer
	// pool instead of growing fresh ones per point. Results are
	// bit-identical with or without an arena (the arena only moves scrubbed
	// storage, never state); nil means every point allocates fresh. One
	// pool may serve several sweeps and outlive them all — a resident
	// service passes the same pool to every job.
	Arena *ArenaPool
}

// ErrPointFailed marks a sweep error that stems from at least one failed
// (or timed-out, or skipped) design point, as opposed to the sweep being
// unable to run at all. Commands map it to a distinct exit code.
var ErrPointFailed = errors.New("sweep point failed")

// SweepMetrics receives one report per design point. It is the hook the
// observability layer plugs into instead of another package global.
type SweepMetrics interface {
	PointDone(PointReport)
}

// PointReport describes one completed (or failed, or skipped) design point.
type PointReport struct {
	// Index is the point's position in the sweep's grid order.
	Index int
	// Worker identifies the pool goroutine that ran the point (0-based).
	Worker int
	// Start and Wall are the host-time bounds of the point's execution.
	Start time.Time
	Wall  time.Duration
	// Attempts is how many times the point ran (1 = no retries). Zero for
	// points that never ran (skipped by sweep cancellation).
	Attempts int
	// Err is the point's failure (or skip reason), nil on success.
	Err error
}

// workers resolves the pool size: explicit option or GOMAXPROCS.
func (o SweepOptions) workers() int {
	if o.Workers > 0 {
		return o.Workers
	}
	return runtime.GOMAXPROCS(0)
}

// context resolves the sweep context: explicit option or background.
func (o SweepOptions) context() context.Context {
	if o.Context != nil {
		return o.Context
	}
	return context.Background()
}

// fs resolves the host-storage seam: explicit option or the real disk.
func (o SweepOptions) fs() iofault.FS {
	if o.FS != nil {
		return o.FS
	}
	return iofault.Disk
}

// grid is everything a study tells the point executor about its design
// points; runGrid owns the rest (resume, workers, arenas, deadlines, panic
// recovery, caching, retry, journaling, metrics). Cells are addressed by
// index in [0, n); run must confine its writes to its own locals — results
// travel back through runGrid's return values — which is what makes the
// fan-out race-free.
type grid[T any] struct {
	n int

	// run simulates cell i. ctx is the sweep context narrowed by
	// PointTimeout and carrying the worker's arena.
	run func(ctx context.Context, i int) (T, error)

	// key, when non-nil, content-addresses cell i in opts.Cache; it is
	// computed only when a cache is configured. clone deep-copies a value on
	// its way into and out of the cache, so neither a caller mutating a
	// result nor a later hit can alias a stored value; nil means T has no
	// shared state to copy.
	key   func(i int) (string, error)
	clone func(T) T

	// name, when non-nil, makes the study journal-aware: it is cell i's
	// stable identity in opts.Journal (an on-disk format — never change a
	// study's names) and T must round-trip through encoding/json exactly.
	name func(i int) string

	// label, when non-nil, names cell i in its failures: a PointTimeout
	// expiry reads "<label> timed out after …" and — unless bareErrs — any
	// other failure "<label>: …". First lines of failures are journaled, so
	// a journal-aware study's labels are on-disk format too.
	label    func(i int) string
	bareErrs bool
}

// machineGrid is the grid of whole-node design points: cell i simulates
// cfgs[i], content-addressed by the config's canonical hash.
func machineGrid(cfgs []*config.MachineConfig) grid[*NodeResult] {
	return grid[*NodeResult]{
		n:   len(cfgs),
		run: func(ctx context.Context, i int) (*NodeResult, error) { return RunMachineCtx(ctx, cfgs[i]) },
		key: func(i int) (string, error) { return cfgs[i].CanonicalHash() },
		clone: func(r *NodeResult) *NodeResult {
			cp := *r // value struct: shallow copy is deep
			return &cp
		},
	}
}

// attempt runs cell i once: PointTimeout, panic recovery, cache lookup,
// simulation, cache store, failure labelling. A panic becomes a per-point
// error (naming the component when the model used sim.Guard) wrapping
// ErrPanicked, so the retry policy can tell the transient class from
// deterministic failures and one exploding point costs exactly one grid
// cell, never the process. A hit is a copy of the stored value and runs
// nothing; a miss simulates and stores a copy. Key and codec failures are
// real errors — the config would not simulate, or the result type cannot
// round-trip — while file-tier I/O failures never reach here: the cache
// degrades itself to in-memory-only (a sweep must not fail because its
// accelerator's disk did).
func (g *grid[T]) attempt(ctx context.Context, opts SweepOptions, i int, timeout time.Duration) (v T, err error) {
	var zero T
	defer func() {
		r := recover()
		if r == nil {
			return
		}
		v = zero
		if pe, ok := r.(*sim.PanicError); ok {
			err = fmt.Errorf("core: point %d: %w: %w\n%s", i, ErrPanicked, pe, pe.Stack)
			return
		}
		err = fmt.Errorf("core: point %d %w: %v\n%s", i, ErrPanicked, r, debug.Stack())
	}()
	if timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, timeout)
		defer cancel()
	}
	var key string
	if opts.Cache != nil && g.key != nil {
		if key, err = g.key(i); err == nil {
			if hit, ok := opts.Cache.Get(key); ok {
				return g.clone(hit.(T)), nil
			}
		}
	}
	if err == nil {
		v, err = g.run(ctx, i)
	}
	if err == nil && key != "" {
		err = opts.Cache.Put(key, g.clone(v), 0)
	}
	if err == nil {
		return v, nil
	}
	switch {
	case g.label == nil:
	case errors.Is(ctx.Err(), context.DeadlineExceeded):
		// A hung point cut off by PointTimeout is a point failure, not an
		// interruption: carry the deadline error, not the engine's
		// interrupt sentinel.
		err = fmt.Errorf("%s timed out after %v: %w (%v)", g.label(i), opts.PointTimeout, context.DeadlineExceeded, err)
	case !g.bareErrs:
		err = fmt.Errorf("%s: %w", g.label(i), err)
	}
	return zero, err
}

// runGrid is the point executor: the life of every design point of every
// study, in this order — resume lookup, worker pool with a per-worker
// arena, attempts under the retry policy (see attempt), journal record,
// metrics report. It returns the cells' values and errors by index, both
// always of length g.n (a failed, skipped or panicked cell keeps T's zero
// value), plus the per-point errors joined in point order, so error text is
// as deterministic as the results. Every point runs even when earlier
// points fail. An error with an all-nil error slice means the sweep could
// not run at all (an unopenable or unrestorable journal).
//
// With opts.Journal set and a journal-aware grid, every finished point is
// durably recorded — retries included — and with opts.Resume the journal's
// successful points are restored instead of re-run; failed or missing
// points run normally. Points skipped by sweep cancellation are not
// journaled — they never ran — so a later resume picks them up. A journal
// write failure becomes the point's error (wrapping ErrJournal) rather
// than a silent skip; when the point itself also failed, the two errors
// are joined so neither is lost.
func runGrid[T any](opts SweepOptions, g grid[T]) ([]T, []error, error) {
	out := make([]T, g.n)
	errs := make([]error, g.n)
	restored := make([]bool, g.n)
	if g.clone == nil {
		g.clone = func(v T) T { return v }
	}
	var j *Journal
	if opts.Journal != "" && g.name != nil {
		var err error
		if j, err = OpenJournalFS(opts.fs(), opts.Journal, opts.Resume); err != nil {
			return out, errs, err
		}
		defer j.Close()
		for i := 0; opts.Resume && i < g.n; i++ {
			ent, ok := j.Completed(g.name(i))
			if !ok || ent.Err != "" {
				continue // missing or failed: re-run
			}
			if err := json.Unmarshal(ent.Result, &out[i]); err != nil {
				return out, errs, fmt.Errorf("core: journal: restoring point %q: %w", g.name(i), err)
			}
			restored[i] = true
		}
	}
	ctx := opts.context()
	var (
		next atomic.Int64
		wg   sync.WaitGroup
	)
	for worker := range min(opts.workers(), g.n) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// Each worker borrows one PointArena for its whole run of points
			// and threads it down through the context; the arena goes back to
			// the pool — reset — when the worker drains. See arena.go.
			ctx := ctx
			if opts.Arena != nil {
				a := opts.Arena.Get()
				defer opts.Arena.Put(a)
				ctx = context.WithValue(ctx, arenaKey{}, a)
			}
			for i := int(next.Add(1)) - 1; i < g.n; i = int(next.Add(1)) - 1 {
				start := time.Now()
				attempts := 1
				var err error
				switch {
				case ctx.Err() != nil:
					// The sweep context is already dead: the point never runs,
					// carries no outcome to journal, and reports zero attempts.
					attempts = 0
					err = fmt.Errorf("core: point %d skipped: %w", i, ctx.Err())
				case restored[i]:
				default:
					retry := retrier{pol: opts.Retry, base: opts.PointTimeout, point: i}
					timeout, again := retry.base, true
					for a := 1; again; a++ {
						out[i], err = g.attempt(ctx, opts, i, timeout)
						timeout, again, err = retry.next(ctx, a, err)
					}
					attempts += len(retry.recs)
					if j != nil {
						err = j.recordPoint(g.name(i), out[i], retry.recs, err)
					}
				}
				errs[i] = err
				if opts.Metrics != nil {
					opts.Metrics.PointDone(PointReport{
						Index: i, Worker: worker,
						Start: start, Wall: time.Since(start),
						Attempts: attempts,
						Err:      err,
					})
				}
			}
		}()
	}
	wg.Wait()
	return out, errs, errors.Join(errs...)
}

// RunMachines runs independent machine configs across the sweep worker
// pool, returning results in config order. It is the batch counterpart of
// RunMachine for callers (the ablation benchmarks, external drivers) whose
// variants have no data dependencies between them. On error the slice is
// still returned: failed configs leave nil entries, completed ones keep
// their results, and the error joins the per-config failures in order.
func RunMachines(cfgs []*config.MachineConfig, opts SweepOptions) ([]*NodeResult, error) {
	out, _, err := runGrid(opts, machineGrid(cfgs))
	return out, err
}
