package mem

import (
	"sst/internal/sim"
	"sst/internal/stats"
)

// Directory is a directory-based coherence controller: the scalable
// alternative to the snooping Bus. Where the bus broadcasts every
// transaction to every cache, the directory tracks each line's exact owner
// and sharer set and sends point-to-point messages only where copies
// exist — the message count scales with sharing, not with core count.
//
// Protocol (MESI, full-map directory):
//
//   - read, line owned M/E     → forward to owner, owner downgrades to S
//     and supplies data (dirty data also written back); fill Shared
//   - read, line shared        → fill Shared from below
//   - read, line idle          → fill Exclusive from below
//   - RFO/upgrade              → invalidate exactly the sharer set
//   - owner writeback          → directory entry cleared
//
// Clean evictions are silent (standard): the directory may later send an
// invalidation to a cache that no longer holds the line, which is
// harmless. Same-line transactions are serialized exactly as on the bus.
type Directory struct {
	name   string
	engine *sim.Engine
	lower  Device
	// latency is the one-way requester↔directory message time; snoops
	// (directory↔owner/sharer) pay it again.
	latency sim.Time
	ports   []*DirPort

	entries map[uint64]*dirEntry
	lineSerializer

	transactions *stats.Counter
	snoopsSent   *stats.Counter
	invals       *stats.Counter
	forwards     *stats.Counter
	writebacks   *stats.Counter
}

// dirEntry tracks one line: an exclusive owner port (M/E, -1 if none) and
// a sharer bitmask (S copies).
type dirEntry struct {
	addr    uint64
	owner   int
	sharers uint64
}

// NewDirectory builds a directory controller in front of lower. Up to 64
// ports are supported (full-map bitmask). scope may be nil.
func NewDirectory(engine *sim.Engine, name string, latency sim.Time, lower Device, scope *stats.Scope) *Directory {
	d := &Directory{
		name:    name,
		engine:  engine,
		lower:   lower,
		latency: latency,
		entries: make(map[uint64]*dirEntry),
	}
	if scope == nil {
		scope = stats.NewRegistry().Scope(name)
	}
	d.transactions = scope.Counter("transactions")
	d.snoopsSent = scope.Counter("snoops_sent")
	d.invals = scope.Counter("invalidations")
	d.forwards = scope.Counter("forwards")
	d.writebacks = scope.Counter("writebacks")
	d.lineSerializer = newLineSerializer(scope)
	return d
}

// Name returns the controller's instance name.
func (d *Directory) Name() string { return d.name }

// Port attaches a cache (or nil for a cache-less master).
func (d *Directory) Port(c *Cache) *DirPort {
	if len(d.ports) >= 64 {
		panic("mem: directory supports at most 64 ports")
	}
	p := &DirPort{dir: d, id: len(d.ports), cache: c}
	d.ports = append(d.ports, p)
	return p
}

func (d *Directory) entry(addr uint64) *dirEntry {
	e := d.entries[addr]
	if e == nil {
		e = &dirEntry{addr: addr, owner: -1}
		d.entries[addr] = e
	}
	return e
}

// invalidateSharers snoops exactly the recorded copies (except skip) and
// reports whether any was dirty. Sharer snoops run in parallel, so the
// latency cost is one round trip regardless of count.
func (d *Directory) invalidateSharers(e *dirEntry, skip int) (had, dirty bool) {
	visit := func(id int) {
		if id == skip || id < 0 || id >= len(d.ports) {
			return
		}
		c := d.ports[id].cache
		if c == nil {
			return
		}
		d.snoopsSent.Inc()
		h, dr := c.snoopInvalidate(e.addr)
		if h {
			d.invals.Inc()
			had = true
		}
		if dr {
			dirty = true
		}
	}
	if e.owner >= 0 {
		visit(e.owner)
	}
	for id := 0; id < len(d.ports); id++ {
		if e.sharers&(1<<uint(id)) != 0 {
			visit(id)
		}
	}
	e.owner = -1
	e.sharers = 0
	return had, dirty
}

// DirPort is one cache's connection; it implements the same lower-level
// interfaces as BusPort, so caches work unmodified over a directory.
type DirPort struct {
	dir   *Directory
	id    int
	cache *Cache
}

var (
	_ Device        = (*DirPort)(nil)
	_ Fetcher       = (*DirPort)(nil)
	_ Upgrader      = (*DirPort)(nil)
	_ WritebackSink = (*DirPort)(nil)
)

// AttachCache binds a cache built with this port as its lower device.
func (p *DirPort) AttachCache(c *Cache) { p.cache = c }

// Fetch implements Fetcher.
func (p *DirPort) Fetch(op Op, addr uint64, size int, done func(excl bool)) {
	d := p.dir
	d.acquire(addr, func() {
		d.transactions.Inc()
		e := d.entry(addr)
		finish := func(excl bool) {
			done(excl)
			d.release(addr)
		}
		if op == Write {
			// RFO: invalidate the exact copy set.
			_, dirty := d.invalidateSharers(e, p.id)
			e.owner = p.id
			if dirty {
				d.writebacks.Inc()
				d.lower.Access(Write, addr, size, nil)
				// Dirty owner forwards cache-to-cache: requester
				// pays two message hops, no memory read.
				d.forwards.Inc()
				d.engine.Schedule(2*d.latency, func(any) { finish(true) }, nil)
				return
			}
			d.engine.Schedule(d.latency, func(any) {
				d.lower.Access(Read, addr, size, func() {
					d.engine.Schedule(d.latency, func(any) { finish(true) }, nil)
				})
			}, nil)
			return
		}
		// Shared read.
		if e.owner >= 0 && e.owner != p.id {
			// Forward to the owner; it downgrades and supplies.
			oc := d.ports[e.owner].cache
			d.snoopsSent.Inc()
			var dirty bool
			if oc != nil {
				_, dirty = oc.snoopRead(addr)
			}
			e.sharers |= 1 << uint(e.owner)
			e.owner = -1
			e.sharers |= 1 << uint(p.id)
			d.forwards.Inc()
			if dirty {
				d.writebacks.Inc()
				d.lower.Access(Write, addr, size, nil)
			}
			// Three message hops: requester→dir→owner→requester.
			d.engine.Schedule(3*d.latency, func(any) { finish(false) }, nil)
			return
		}
		excl := e.sharers&^(1<<uint(p.id)) == 0 && e.owner < 0
		if excl {
			e.owner = p.id
		} else {
			e.sharers |= 1 << uint(p.id)
		}
		d.engine.Schedule(d.latency, func(any) {
			d.lower.Access(Read, addr, size, func() {
				d.engine.Schedule(d.latency, func(any) { finish(excl) }, nil)
			})
		}, nil)
	})
}

// Upgrade implements Upgrader.
func (p *DirPort) Upgrade(addr uint64, size int, done func()) {
	d := p.dir
	d.acquire(addr, func() {
		d.transactions.Inc()
		e := d.entry(addr)
		d.invalidateSharers(e, p.id)
		e.owner = p.id
		d.engine.Schedule(2*d.latency, func(any) {
			done()
			d.release(addr)
		}, nil)
	})
}

// WriteBack implements WritebackSink: the owner returns dirty data.
func (p *DirPort) WriteBack(addr uint64, size int) {
	d := p.dir
	d.acquire(addr, func() {
		d.transactions.Inc()
		d.writebacks.Inc()
		e := d.entry(addr)
		if e.owner == p.id {
			e.owner = -1
		}
		d.engine.Schedule(d.latency, func(any) {
			d.lower.Access(Write, addr, size, nil)
			d.release(addr)
		}, nil)
	})
}

// Access implements Device for cache-less masters.
func (p *DirPort) Access(op Op, addr uint64, size int, done func()) {
	if op == Read {
		p.Fetch(Read, addr, size, func(bool) {
			if done != nil {
				done()
			}
		})
		return
	}
	d := p.dir
	d.acquire(addr, func() {
		d.transactions.Inc()
		e := d.entry(addr)
		d.invalidateSharers(e, p.id)
		d.engine.Schedule(d.latency, func(any) {
			d.lower.Access(Write, addr, size, func() {
				if done != nil {
					done()
				}
				d.release(addr)
			})
		}, nil)
	})
}
