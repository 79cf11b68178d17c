package mem

import (
	"sst/internal/sim"
	"sst/internal/stats"
)

// Bus is a snooping coherence bus: several caches (and optionally cache-less
// masters) share one path to a lower device. Every transaction snoops the
// other attached caches, implementing MESI:
//
//   - read with a dirty peer   → peer writes back, supplies cache-to-cache
//   - read with any clean peer → fill Shared from below
//   - read with no peer        → fill Exclusive from below
//   - read-for-ownership/upgrade → invalidate peers (writing back dirty data)
//
// Transactions to the same line are serialized, exactly as a physical bus
// serializes them: without this, two concurrent misses to one line would
// each snoop before the other's fill and both install Exclusive.
//
// Bandwidth is modelled by per-byte occupancy of the shared bus; latency by
// a fixed per-transaction delay.
type Bus struct {
	name    string
	engine  *sim.Engine
	lower   Device
	latency sim.Time
	perByte sim.Time
	freeAt  sim.Time
	ports   []*BusPort
	lineSerializer

	transactions *stats.Counter
	c2cTransfers *stats.Counter
	invals       *stats.Counter
	writebacks   *stats.Counter
	busyTime     *stats.Counter
}

// lineSerializer serializes same-line transactions for a coherence fabric
// (Bus, Directory): a key present in pending means a transaction owns the
// line, and its slice holds the queued transaction bodies. conflicts
// counts transactions that had to queue.
type lineSerializer struct {
	pending   map[uint64][]func()
	conflicts *stats.Counter
}

func newLineSerializer(scope *stats.Scope) lineSerializer {
	return lineSerializer{pending: make(map[uint64][]func()), conflicts: scope.Counter("line_conflicts")}
}

// acquire runs body now if no transaction owns line addr, else queues it.
// Every body must call release(addr) exactly once when its transaction is
// globally visible.
func (l *lineSerializer) acquire(addr uint64, body func()) {
	if q, busy := l.pending[addr]; busy {
		l.conflicts.Inc()
		l.pending[addr] = append(q, body)
		return
	}
	l.pending[addr] = nil
	body()
}

// release ends the current transaction on addr and starts the next queued
// one, if any.
func (l *lineSerializer) release(addr uint64) {
	q, ok := l.pending[addr]
	if !ok {
		return
	}
	if len(q) == 0 {
		delete(l.pending, addr)
		return
	}
	next := q[0]
	l.pending[addr] = q[1:]
	next()
}

// NewBus builds a bus in front of lower. bytesPerSecond of 0 means
// unlimited bandwidth. scope may be nil.
func NewBus(engine *sim.Engine, name string, latency sim.Time, bytesPerSecond float64, lower Device, scope *stats.Scope) *Bus {
	b := &Bus{
		name:    name,
		engine:  engine,
		lower:   lower,
		latency: latency,
	}
	if bytesPerSecond > 0 {
		b.perByte = sim.Time(float64(sim.Second) / bytesPerSecond)
		if b.perByte == 0 {
			b.perByte = 1
		}
	}
	if scope == nil {
		scope = stats.NewRegistry().Scope(name)
	}
	b.transactions = scope.Counter("transactions")
	b.c2cTransfers = scope.Counter("cache_to_cache")
	b.invals = scope.Counter("invalidations")
	b.writebacks = scope.Counter("writebacks")
	b.busyTime = scope.Counter("busy_ps")
	b.lineSerializer = newLineSerializer(scope)
	return b
}

// Name returns the bus's instance name.
func (b *Bus) Name() string { return b.name }

// Port attaches a master to the bus. Pass the cache for snooped masters,
// or nil for cache-less masters (then optionally AttachCache later).
func (b *Bus) Port(c *Cache) *BusPort {
	p := &BusPort{bus: b, cache: c}
	if c != nil {
		c.busPort = p
	}
	b.ports = append(b.ports, p)
	return p
}

// occupy claims the shared bus for size bytes; it returns the queuing delay
// before the transaction begins and the transfer (hold) time.
func (b *Bus) occupy(size int) (delay, hold sim.Time) {
	b.transactions.Inc()
	now := b.engine.Now()
	start := now
	if b.freeAt > start {
		start = b.freeAt
	}
	hold = b.perByte * sim.Time(size)
	b.freeAt = start + hold
	b.busyTime.Add(uint64(hold))
	return start - now, hold
}

// snoopOthers visits every attached cache except skip.
func (b *Bus) snoopOthers(skip *BusPort, visit func(c *Cache)) {
	for _, p := range b.ports {
		if p == skip || p.cache == nil {
			continue
		}
		visit(p.cache)
	}
}

// AttachCache binds a cache to a port created with Port(nil). This resolves
// the construction cycle: the port must exist to build the cache (it is the
// cache's lower device), and the cache must exist to be snooped.
func (p *BusPort) AttachCache(c *Cache) {
	p.cache = c
	c.busPort = p
}

// BusPort is one master's connection to the bus. It implements Device,
// Fetcher, Upgrader and WritebackSink, so a Cache can use it directly as
// its lower level.
type BusPort struct {
	bus   *Bus
	cache *Cache
}

var (
	_ Device        = (*BusPort)(nil)
	_ Fetcher       = (*BusPort)(nil)
	_ Upgrader      = (*BusPort)(nil)
	_ WritebackSink = (*BusPort)(nil)
)

// Fetch implements Fetcher: a coherent line fill.
func (p *BusPort) Fetch(op Op, addr uint64, size int, done func(excl bool)) {
	b := p.bus
	b.acquire(addr, func() {
		qd, hold := b.occupy(size)
		// done runs before release: the requester must install its
		// line before the next queued transaction snoops.
		finish := func(excl bool) {
			done(excl)
			b.release(addr)
		}
		if op == Write {
			// Read-for-ownership: invalidate peers.
			dirtyPeer := false
			b.snoopOthers(p, func(c *Cache) {
				had, dirty := c.snoopInvalidate(addr)
				if had {
					b.invals.Inc()
				}
				if dirty {
					dirtyPeer = true
				}
			})
			if dirtyPeer {
				// Peer supplies the data cache-to-cache while
				// its writeback drains below.
				b.c2cTransfers.Inc()
				b.writebacks.Inc()
				b.lower.Access(Write, addr, size, nil)
				b.engine.Schedule(qd+hold+b.latency, func(any) { finish(true) }, nil)
				return
			}
			b.engine.Schedule(qd+b.latency, func(any) {
				b.lower.Access(Read, addr, size, func() {
					b.engine.Schedule(hold, func(any) { finish(true) }, nil)
				})
			}, nil)
			return
		}
		// Shared read.
		anyPeer, dirtyPeer := false, false
		b.snoopOthers(p, func(c *Cache) {
			had, dirty := c.snoopRead(addr)
			anyPeer = anyPeer || had
			dirtyPeer = dirtyPeer || dirty
		})
		if dirtyPeer {
			b.c2cTransfers.Inc()
			b.writebacks.Inc()
			b.lower.Access(Write, addr, size, nil)
			b.engine.Schedule(qd+hold+b.latency, func(any) { finish(false) }, nil)
			return
		}
		excl := !anyPeer
		b.engine.Schedule(qd+b.latency, func(any) {
			b.lower.Access(Read, addr, size, func() {
				b.engine.Schedule(hold, func(any) { finish(excl) }, nil)
			})
		}, nil)
	})
}

// Upgrade implements Upgrader: invalidate all other sharers.
func (p *BusPort) Upgrade(addr uint64, size int, done func()) {
	b := p.bus
	b.acquire(addr, func() {
		qd, hold := b.occupy(8) // command-only transaction
		b.snoopOthers(p, func(c *Cache) {
			if had, _ := c.snoopInvalidate(addr); had {
				b.invals.Inc()
			}
		})
		b.engine.Schedule(qd+hold+b.latency, func(any) {
			done()
			b.release(addr)
		}, nil)
	})
}

// WriteBack implements WritebackSink: posted dirty eviction to memory.
func (p *BusPort) WriteBack(addr uint64, size int) {
	b := p.bus
	b.acquire(addr, func() {
		qd, hold := b.occupy(size)
		b.writebacks.Inc()
		b.engine.Schedule(qd+hold+b.latency, func(any) {
			b.lower.Access(Write, addr, size, nil)
			b.release(addr)
		}, nil)
	})
}

// Access implements Device for cache-less masters (PIM cores, NICs): reads
// are coherent fetches, writes invalidate sharers and go to memory.
func (p *BusPort) Access(op Op, addr uint64, size int, done func()) {
	if op == Read {
		p.Fetch(Read, addr, size, func(bool) {
			if done != nil {
				done()
			}
		})
		return
	}
	b := p.bus
	b.acquire(addr, func() {
		qd, hold := b.occupy(size)
		b.snoopOthers(p, func(c *Cache) {
			if had, _ := c.snoopInvalidate(addr); had {
				b.invals.Inc()
			}
		})
		b.engine.Schedule(qd+hold+b.latency, func(any) {
			b.lower.Access(Write, addr, size, func() {
				if done != nil {
					done()
				}
				b.release(addr)
			})
		}, nil)
	})
}
