package core

import (
	"context"
	"sync"

	"sst/internal/frontend"
	"sst/internal/mem"
	"sst/internal/sim"
)

// Per-worker simulation arenas. Every design point in a sweep builds a full
// node model — engine, caches, kernel streams — and throws it away, which
// makes a long sweep's allocation profile the same work done over and over:
// the event free list regrows, cache backing arrays reallocate, kernel
// batch buffers re-ramp. A PointArena keeps that working set alive between
// points: each sweep worker owns one arena and hands it to consecutive
// points, so the second and every later point on a worker runs against
// warmed storage.
//
// Safety comes from move semantics, not sharing. Lending storage to a point
// empties the arena (sim.EventArena.Lend, mem.LinePool.get,
// frontend.OpPool.get all move buffers out), and only an orderly close
// hands it back — scrubbed. A point that panics or times out mid-build
// simply never returns its storage: the arena is left smaller, never
// poisoned, and Reset restores the invariants either way. That is what
// keeps arena-reusing sweeps bit-identical to arena-free ones (see
// TestSweepArenaDeterminism).

// PointArena is one worker's reusable allocation pool for machine and
// network design points. The zero value is not usable; call NewPointArena.
// An arena must only be used by one point at a time — in a sweep, one
// worker goroutine — and is not safe for concurrent use.
type PointArena struct {
	// Events recycles engine event structs and queue backing.
	Events *sim.EventArena
	// Ops recycles kernel-stream batch buffers.
	Ops *frontend.OpPool
	// Lines recycles cache backing arrays.
	Lines *mem.LinePool

	// points counts how many design points the arena has served.
	points int
}

// maxPooledOpBufs bounds the batch buffers Reset keeps: enough to saturate
// every stream of a many-core threaded node (each stream circulates ~13
// buffers), small enough that an idle worker's arena stays a few MB.
const maxPooledOpBufs = 64

// NewPointArena returns an empty arena.
func NewPointArena() *PointArena {
	return &PointArena{
		Events: sim.NewEventArena(),
		Ops:    &frontend.OpPool{},
		Lines:  &mem.LinePool{},
	}
}

// Reset prepares the arena for its next design point: pooled storage is
// trimmed to the steady-state caps so one pathological point (a huge
// pending-event spike, an unusually wide node) cannot make every later
// point carry its high-water mark. It must be called between points —
// ArenaPool.Put does — and is safe after a point that panicked or timed
// out: a dead point can only have kept storage, never returned bad state.
func (a *PointArena) Reset() {
	a.Ops.Trim(maxPooledOpBufs)
	a.Lines.Trim(mem.DefaultLinePoolSlabs)
	a.points++
}

// Points reports how many design points the arena has served (one per
// Reset), a reuse statistic for service metrics.
func (a *PointArena) Points() int { return a.points }

// ArenaPool hands PointArenas to sweep workers and takes them back reset.
// It is safe for concurrent use, so one pool may serve several sweeps — a
// resident service reuses one pool across jobs, which is what keeps the
// service's allocation rate flat no matter how many jobs it serves.
type ArenaPool struct {
	mu   sync.Mutex
	free []*PointArena
	// made counts arenas ever created; served counts points run through
	// the pool's arenas. served - made is the reuse the pool delivered.
	made   int
	served int
}

// NewArenaPool returns an empty pool.
func NewArenaPool() *ArenaPool { return &ArenaPool{} }

// Get returns a ready arena, creating one when the pool is empty.
func (p *ArenaPool) Get() *PointArena {
	p.mu.Lock()
	defer p.mu.Unlock()
	if n := len(p.free) - 1; n >= 0 {
		a := p.free[n]
		p.free[n] = nil
		p.free = p.free[:n]
		return a
	}
	p.made++
	return NewPointArena()
}

// Put resets a and returns it to the pool for the next worker.
func (p *ArenaPool) Put(a *PointArena) {
	if a == nil {
		return
	}
	a.Reset()
	p.mu.Lock()
	defer p.mu.Unlock()
	p.served += a.points
	a.points = 0
	p.free = append(p.free, a)
}

// Stats reports how many arenas the pool ever created and how many design
// points they served in total. served >> made means the reuse is working.
func (p *ArenaPool) Stats() (made, served int) {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.made, p.served
}

// arenaKey carries a worker's PointArena through the context chain from
// runGrid down to BuildNode, so study signatures — and every
// caller that runs points without a sweep — stay unchanged.
type arenaKey struct{}

// arenaFrom extracts the worker's arena, nil when the sweep runs without
// one (SweepOptions.Arena unset) or the caller is outside a sweep.
func arenaFrom(ctx context.Context) *PointArena {
	a, _ := ctx.Value(arenaKey{}).(*PointArena)
	return a
}
