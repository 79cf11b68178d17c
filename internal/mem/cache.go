package mem

import (
	"fmt"

	"sst/internal/sim"
	"sst/internal/stats"
)

// ReplKind selects the cache replacement policy.
type ReplKind uint8

const (
	// LRU evicts the least-recently-used way.
	LRU ReplKind = iota
	// FIFO evicts the oldest-filled way.
	FIFO
	// RandomRepl evicts a uniformly random way.
	RandomRepl
)

func (r ReplKind) String() string {
	switch r {
	case LRU:
		return "lru"
	case FIFO:
		return "fifo"
	case RandomRepl:
		return "random"
	default:
		return fmt.Sprintf("repl(%d)", uint8(r))
	}
}

// Line coherence states (MESI).
type state uint8

const (
	invalid state = iota
	shared
	exclusive
	modified
)

// CacheConfig describes one cache level.
type CacheConfig struct {
	Name      string
	SizeBytes int
	LineBytes int
	Assoc     int
	// HitLatency is the lookup/response time.
	HitLatency sim.Time
	// Occupancy is how long each access holds a port (throughput limit);
	// zero means unlimited throughput.
	Occupancy sim.Time
	// MSHRs bounds outstanding misses; further misses stall.
	MSHRs int
	// WriteBack selects write-back + write-allocate when true,
	// write-through + no-allocate when false.
	WriteBack bool
	Repl      ReplKind
	// PrefetchNextLine enables a tagged next-line prefetcher: misses
	// prefetch the following PrefetchDegree lines, and the first demand
	// hit on a prefetched line prefetches further ahead, so steady
	// streams keep the prefetcher running at full depth.
	PrefetchNextLine bool
	// PrefetchDegree is how many lines ahead to fetch (default 1).
	PrefetchDegree int
	// Seed feeds the random replacement policy.
	Seed uint64
}

// Validate checks structural invariants and fills defaults.
func (c *CacheConfig) Validate() error {
	if c.LineBytes <= 0 || c.LineBytes&(c.LineBytes-1) != 0 {
		return fmt.Errorf("cache %s: line size %d not a power of two", c.Name, c.LineBytes)
	}
	if c.Assoc <= 0 {
		return fmt.Errorf("cache %s: associativity must be positive", c.Name)
	}
	if c.SizeBytes <= 0 || c.SizeBytes%(c.LineBytes*c.Assoc) != 0 {
		return fmt.Errorf("cache %s: size %d not divisible into %d-way sets of %dB lines",
			c.Name, c.SizeBytes, c.Assoc, c.LineBytes)
	}
	sets := c.SizeBytes / (c.LineBytes * c.Assoc)
	if sets&(sets-1) != 0 {
		return fmt.Errorf("cache %s: set count %d not a power of two", c.Name, sets)
	}
	if c.MSHRs == 0 {
		c.MSHRs = 8
	}
	if c.PrefetchNextLine && c.PrefetchDegree <= 0 {
		c.PrefetchDegree = 1
	}
	return nil
}

// line is one cache line's tag state.
type line struct {
	tag   uint64 // line address (addr >> lineShift)
	st    state
	used  uint64 // LRU stamp
	fill  uint64 // FIFO stamp
	valid bool
	// pref marks a line brought in by the prefetcher and not yet
	// demand-referenced; the first demand hit triggers further
	// prefetching (tagged prefetch).
	pref bool
}

// mshr tracks one outstanding miss and its waiters. MSHRs are recycled
// through the cache's free list, so each carries closures bound once at
// first allocation (fillFn/fillTrueFn/fetchFn/upgradeFn) instead of
// allocating fresh ones per miss — the miss path is the cache's hottest
// allocation site and the closure set is identical every time.
type mshr struct {
	cache    *Cache
	op       Op
	tag      uint64
	lineAddr uint64
	start    sim.Time // miss issue time, for the latency histogram
	write    bool     // fill target state is modified
	upgrade  bool     // line present in S, waiting for exclusivity
	prefetch bool     // fill initiated by the prefetcher, no demand waiter yet
	slot     int      // index in the cache's mshrFile while outstanding
	waiters  []func()

	fillFn     func(excl bool) // lower fill completion (Fetcher path)
	fillTrueFn func()          // lower fill completion (plain Device path)
	fetchFn    sim.Handler     // deferred lowerFetch after lookup latency
	upgradeFn  func()          // upgrade completion
}

// mshrFile is a cache's table of outstanding misses: a tag array scanned
// linearly, which beats hashing at MSHR counts (at most 32 in every shipped
// configuration), with each entry's index kept in its mshr so removal is a
// swap with the last entry.
type mshrFile struct {
	tags []uint64
	ms   []*mshr
}

// newMSHRFile sizes the file for n MSHRs. The count comes from a config,
// so the up-front capacity is capped; a larger file grows as misses fill it.
func newMSHRFile(n int) mshrFile {
	n = min(max(n, 0), 64)
	return mshrFile{tags: make([]uint64, 0, n), ms: make([]*mshr, 0, n)}
}

func (f *mshrFile) len() int { return len(f.tags) }

// find returns the outstanding miss on tag, or nil.
func (f *mshrFile) find(tag uint64) *mshr {
	for i, t := range f.tags {
		if t == tag {
			return f.ms[i]
		}
	}
	return nil
}

// add records m, whose tag must not already be outstanding.
func (f *mshrFile) add(m *mshr) {
	m.slot = len(f.tags)
	f.tags = append(f.tags, m.tag)
	f.ms = append(f.ms, m)
}

// remove drops m from the file.
func (f *mshrFile) remove(m *mshr) {
	i, last := m.slot, len(f.tags)-1
	f.tags[i], f.ms[i] = f.tags[last], f.ms[last]
	f.ms[i].slot = i
	f.ms[last] = nil
	f.tags, f.ms = f.tags[:last], f.ms[:last]
}

// stalled is an access waiting for a free MSHR.
type stalled struct {
	op       Op
	lineAddr uint64
	done     func()
}

// Fetcher is the extended lower-level interface that communicates the fill
// state. When the cache's lower device implements it (the coherence bus
// does), read fills learn whether they may be Exclusive.
type Fetcher interface {
	Fetch(op Op, addr uint64, size int, done func(excl bool))
}

// Upgrader invalidates other sharers so an S line can become M.
type Upgrader interface {
	Upgrade(addr uint64, size int, done func())
}

// WritebackSink accepts evicted dirty lines (posted).
type WritebackSink interface {
	WriteBack(addr uint64, size int)
}

// LinePool recycles cache line backing arrays across cache constructions —
// the sweep arena hands one to consecutive design points so each point's
// caches reuse the previous point's tag arrays instead of allocating a few
// hundred kilobytes per build. Slabs are keyed by exact length and zeroed
// on reuse, so a recycled cache starts cold exactly like a fresh one. Not
// safe for concurrent use; a pool belongs to one sweep worker.
type LinePool struct {
	slabs map[int][][]line
}

// get returns a zeroed slab of exactly n lines.
func (p *LinePool) get(n int) []line {
	if p != nil && p.slabs != nil {
		if list := p.slabs[n]; len(list) > 0 {
			s := list[len(list)-1]
			list[len(list)-1] = nil
			p.slabs[n] = list[:len(list)-1]
			clear(s)
			return s
		}
	}
	return make([]line, n)
}

// put accepts a retired slab.
func (p *LinePool) put(s []line) {
	if p == nil || len(s) == 0 {
		return
	}
	if p.slabs == nil {
		p.slabs = make(map[int][][]line)
	}
	p.slabs[len(s)] = append(p.slabs[len(s)], s)
}

// Len reports how many slabs the pool holds across all sizes.
func (p *LinePool) Len() int {
	n := 0
	for _, list := range p.slabs {
		n += len(list)
	}
	return n
}

// DefaultLinePoolSlabs bounds how many slabs Trim keeps per size class:
// enough for the deepest node the sweeps build (per-core L1s plus a shared
// L2), small enough that a long-lived pool tracks the current sweep's
// shapes instead of accumulating every size it has ever seen.
const DefaultLinePoolSlabs = 12

// Trim drops slabs beyond max per size class, releasing them to the
// garbage collector. Long-lived pools (a sweep worker's arena between
// points) call it so one unusually wide design point cannot make every
// later point carry its backing arrays.
func (p *LinePool) Trim(max int) {
	if p == nil {
		return
	}
	if max < 0 {
		max = 0
	}
	for n, list := range p.slabs {
		if len(list) <= max {
			continue
		}
		for i := max; i < len(list); i++ {
			list[i] = nil
		}
		p.slabs[n] = list[:max]
	}
}

// Cache is a set-associative, non-blocking (MSHR-based) cache with MESI
// states. It implements Device for its upper level and drives a lower
// Device (another cache, a bus port, or a memory adapter).
type Cache struct {
	cfg       CacheConfig
	engine    *sim.Engine
	lower     Device
	sets      [][]line
	lineShift uint
	setMask   uint64
	stamp     uint64
	rng       *sim.RNG

	mshrs    mshrFile
	mshrFree []*mshr
	// stalls[stallHead:] are the accesses waiting for a free MSHR, oldest
	// first.
	stalls    []stalled
	stallHead int
	portFree  sim.Time
	// resp carries responses: each is due at start + HitLatency, and
	// start = max(now, portFree) never decreases, so they are monotone (an
	// upgrade completing without a coherence domain below falls back to
	// the heap when it undercuts the queue).
	resp sim.Lane

	// backing is the contiguous line array behind sets; linePool, when
	// non-nil, is where ReleaseLines returns it at teardown.
	backing  []line
	linePool *LinePool

	// hooks used by the coherence bus.
	busPort *BusPort

	// Statistics.
	hits, misses    *stats.Counter
	readHits        *stats.Counter
	readMisses      *stats.Counter
	writeHits       *stats.Counter
	writeMisses     *stats.Counter
	evictions       *stats.Counter
	writebacks      *stats.Counter
	upgrades        *stats.Counter
	prefetches      *stats.Counter
	secondaryMisses *stats.Counter
	mshrStalls      *stats.Counter
	snoopInvals     *stats.Counter
	missLatency     *stats.Histogram
}

// NewCache builds a cache above the given lower device. scope may be nil.
func NewCache(engine *sim.Engine, cfg CacheConfig, lower Device, scope *stats.Scope) (*Cache, error) {
	return NewCachePool(engine, cfg, lower, scope, nil)
}

// NewCachePool is NewCache drawing its line backing array from pool (nil
// behaves like NewCache). Call ReleaseLines at teardown to hand the array
// back for the next construction.
func NewCachePool(engine *sim.Engine, cfg CacheConfig, lower Device, scope *stats.Scope, pool *LinePool) (*Cache, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if lower == nil {
		return nil, fmt.Errorf("cache %s: nil lower device", cfg.Name)
	}
	c := &Cache{
		cfg:      cfg,
		engine:   engine,
		lower:    lower,
		mshrs:    newMSHRFile(cfg.MSHRs),
		rng:      sim.NewRNG(cfg.Seed ^ 0xcafe),
		linePool: pool,
	}
	c.resp.Init(engine, sim.PrioLink, cfg.Name)
	for s := uint(0); ; s++ {
		if 1<<s == cfg.LineBytes {
			c.lineShift = s
			break
		}
	}
	nsets := cfg.SizeBytes / (cfg.LineBytes * cfg.Assoc)
	c.setMask = uint64(nsets - 1)
	c.sets = make([][]line, nsets)
	c.backing = pool.get(nsets * cfg.Assoc)
	for i := range c.sets {
		c.sets[i] = c.backing[i*cfg.Assoc : (i+1)*cfg.Assoc]
	}
	if scope == nil {
		scope = stats.NewRegistry().Scope(cfg.Name)
	}
	c.hits = scope.Counter("hits")
	c.misses = scope.Counter("misses")
	c.readHits = scope.Counter("read_hits")
	c.readMisses = scope.Counter("read_misses")
	c.writeHits = scope.Counter("write_hits")
	c.writeMisses = scope.Counter("write_misses")
	c.evictions = scope.Counter("evictions")
	c.writebacks = scope.Counter("writebacks")
	c.upgrades = scope.Counter("upgrades")
	c.prefetches = scope.Counter("prefetches")
	c.secondaryMisses = scope.Counter("secondary_misses")
	c.mshrStalls = scope.Counter("mshr_stalls")
	c.snoopInvals = scope.Counter("snoop_invalidations")
	c.missLatency = scope.Histogram("miss_latency_ps")
	return c, nil
}

// Name returns the cache's instance name.
func (c *Cache) Name() string { return c.cfg.Name }

// Config returns the cache configuration.
func (c *Cache) Config() CacheConfig { return c.cfg }

// HitRate returns hits/(hits+misses), or 0 before any access.
func (c *Cache) HitRate() float64 {
	total := c.hits.Count() + c.misses.Count()
	if total == 0 {
		return 0
	}
	return float64(c.hits.Count()) / float64(total)
}

// Hits and Misses expose raw counts for harnesses.
func (c *Cache) Hits() uint64   { return c.hits.Count() }
func (c *Cache) Misses() uint64 { return c.misses.Count() }

// Access implements Device: it splits the access into lines and completes
// when the last line completes.
func (c *Cache) Access(op Op, addr uint64, size int, done func()) {
	lineSize := uint64(c.cfg.LineBytes)
	first := addr &^ (lineSize - 1)
	last := addr
	if size > 0 {
		last = addr + uint64(size) - 1
	}
	last &^= lineSize - 1
	n := int((last-first)/lineSize) + 1
	if n == 1 {
		c.accessLine(op, first, done)
		return
	}
	var sub func()
	if done != nil {
		remaining := n
		sub = func() {
			remaining--
			if remaining == 0 {
				done()
			}
		}
	}
	for a := first; ; a += lineSize {
		c.accessLine(op, a, sub)
		if a == last {
			break
		}
	}
}

// portDelay models limited access throughput: each access occupies the
// cache's port for cfg.Occupancy.
func (c *Cache) portDelay() sim.Time {
	now := c.engine.Now()
	start := now
	if c.portFree > start {
		start = c.portFree
	}
	c.portFree = start + c.cfg.Occupancy
	return start - now
}

// runPayload invokes its payload, a func(). Scheduling (runPayload, done)
// instead of wrapping done in a fresh closure keeps the response path
// allocation-free: func values are pointer-shaped, so storing one in the
// event's `any` payload does not box.
func runPayload(p any) { p.(func())() }

// respond schedules done after the hit latency plus port queuing.
func (c *Cache) respond(extra sim.Time, done func()) {
	if done == nil {
		return
	}
	c.resp.Schedule(c.cfg.HitLatency+extra, runPayload, done)
}

// newMSHR takes an MSHR from the free list (or allocates one) and binds
// its identity fields. The completion closures are created once per object
// and survive recycling; they read the miss's current fields at call time.
func (c *Cache) newMSHR(op Op, tag, lineAddr uint64) *mshr {
	var m *mshr
	if n := len(c.mshrFree) - 1; n >= 0 {
		m = c.mshrFree[n]
		c.mshrFree[n] = nil
		c.mshrFree = c.mshrFree[:n]
	} else {
		m = &mshr{cache: c}
		m.fillFn = func(excl bool) { m.cache.finishFill(m, excl) }
		m.fillTrueFn = func() { m.cache.finishFill(m, true) }
		m.fetchFn = func(any) { m.cache.lowerFetch(m) }
		m.upgradeFn = func() { m.cache.finishUpgrade(m) }
	}
	m.op, m.tag, m.lineAddr, m.start = op, tag, lineAddr, c.engine.Now()
	return m
}

// freeMSHR recycles a retired MSHR. The waiters backing array is kept so
// steady-state misses append into existing capacity.
func (c *Cache) freeMSHR(m *mshr) {
	for i := range m.waiters {
		m.waiters[i] = nil
	}
	m.waiters = m.waiters[:0]
	m.write, m.upgrade, m.prefetch = false, false, false
	c.mshrFree = append(c.mshrFree, m)
}

func (c *Cache) accessLine(op Op, lineAddr uint64, done func()) {
	qd := c.portDelay()
	tag := lineAddr >> c.lineShift
	set := c.sets[tag&c.setMask]
	c.stamp++

	// Hit path.
	for i := range set {
		ln := &set[i]
		if !ln.valid || ln.tag != tag {
			continue
		}
		if ln.pref {
			ln.pref = false
			c.prefetchAhead(lineAddr)
		}
		if op == Read {
			c.hits.Inc()
			c.readHits.Inc()
			ln.used = c.stamp
			c.respond(qd, done)
			return
		}
		// Write hit.
		if !c.cfg.WriteBack {
			// Write-through: forward posted write, line stays clean.
			c.hits.Inc()
			c.writeHits.Inc()
			ln.used = c.stamp
			c.lowerWrite(lineAddr)
			c.respond(qd, done)
			return
		}
		switch ln.st {
		case modified, exclusive:
			c.hits.Inc()
			c.writeHits.Inc()
			ln.st = modified
			ln.used = c.stamp
			c.respond(qd, done)
		case shared:
			// Upgrade: needs exclusivity before completing.
			c.hits.Inc()
			c.writeHits.Inc()
			ln.used = c.stamp
			c.startUpgrade(tag, lineAddr, done)
		}
		return
	}

	// Miss path.
	if pending := c.mshrs.find(tag); pending != nil {
		// Secondary miss: piggyback on the outstanding fill. A demand
		// access promotes a prefetch fill and keeps the stream going.
		if pending.prefetch {
			pending.prefetch = false
			c.prefetchAhead(lineAddr)
		}
		c.secondaryMisses.Inc()
		if op == Write && c.cfg.WriteBack && !pending.write {
			// A read fill can't satisfy a write's need for M;
			// approximate by promoting the fill to exclusive intent.
			pending.write = true
		}
		if done != nil {
			pending.waiters = append(pending.waiters, done)
		}
		return
	}
	if op == Write && !c.cfg.WriteBack {
		// Write-through, no allocate: posted write below, done after
		// lookup.
		c.misses.Inc()
		c.writeMisses.Inc()
		c.lowerWrite(lineAddr)
		c.respond(qd, done)
		return
	}
	c.startMiss(op, tag, lineAddr, done)
	if c.cfg.PrefetchNextLine {
		c.prefetchAhead(lineAddr)
	}
}

// prefetchAhead issues tagged next-line prefetches for the configured
// degree beyond lineAddr.
func (c *Cache) prefetchAhead(lineAddr uint64) {
	for k := 1; k <= c.cfg.PrefetchDegree; k++ {
		c.maybePrefetch(lineAddr + uint64(k*c.cfg.LineBytes))
	}
}

// startMiss allocates an MSHR (stalling when none are free) and fetches the
// line from below. Statistics are counted here, after the capacity check,
// so a stalled access is counted once when it finally proceeds — the retry
// re-enters accessLine, which may even turn it into a hit if a concurrent
// fill brought the line in.
func (c *Cache) startMiss(op Op, tag, lineAddr uint64, done func()) {
	if c.mshrs.len() >= c.cfg.MSHRs {
		c.mshrStalls.Inc()
		c.pushStall(stalled{op: op, lineAddr: lineAddr, done: done})
		return
	}
	c.misses.Inc()
	if op == Read {
		c.readMisses.Inc()
	} else {
		c.writeMisses.Inc()
	}
	m := c.newMSHR(op, tag, lineAddr)
	m.write = op == Write && c.cfg.WriteBack
	if done != nil {
		m.waiters = append(m.waiters, done)
	}
	c.mshrs.add(m)
	// Charge the lookup latency before the fetch leaves this level.
	c.engine.ScheduleLabeled(c.cfg.HitLatency, sim.PrioLink, c.cfg.Name, m.fetchFn, nil)
}

// startUpgrade requests exclusivity for a Shared line.
func (c *Cache) startUpgrade(tag, lineAddr uint64, done func()) {
	if pending := c.mshrs.find(tag); pending != nil {
		pending.write = true
		if done != nil {
			pending.waiters = append(pending.waiters, done)
		}
		return
	}
	c.upgrades.Inc()
	up, ok := c.lower.(Upgrader)
	if !ok {
		// No coherence domain below: exclusivity is free.
		if ln := c.findLine(tag); ln != nil {
			ln.st = modified
		}
		c.respond(0, done)
		return
	}
	m := c.newMSHR(Write, tag, lineAddr)
	m.write, m.upgrade = true, true
	if done != nil {
		m.waiters = append(m.waiters, done)
	}
	c.mshrs.add(m)
	up.Upgrade(lineAddr, c.cfg.LineBytes, m.upgradeFn)
}

// finishUpgrade completes an exclusivity request: the Shared line becomes
// Modified and the waiters run.
func (c *Cache) finishUpgrade(m *mshr) {
	c.mshrs.remove(m)
	if ln := c.findLine(m.tag); ln != nil {
		ln.st = modified
	}
	for _, w := range m.waiters {
		w()
	}
	c.retryStalls()
	c.freeMSHR(m)
}

// finishFill installs the fetched line, responds to all waiters, and
// retries stalled accesses.
func (c *Cache) finishFill(m *mshr, excl bool) {
	tag := m.tag
	c.mshrs.remove(m)
	c.missLatency.Observe(uint64(c.engine.Now() - m.start))
	ln := c.victim(tag)
	ln.valid = true
	ln.tag = tag
	ln.used = c.stamp
	ln.fill = c.stamp
	ln.pref = m.prefetch
	switch {
	case m.write:
		ln.st = modified
	case excl:
		ln.st = exclusive
	default:
		ln.st = shared
	}
	for _, w := range m.waiters {
		w()
	}
	c.retryStalls()
	c.freeMSHR(m)
}

// pushStall queues an access behind a full MSHR file. A queue that never
// drains is compacted in place rather than grown past its dead prefix.
func (c *Cache) pushStall(s stalled) {
	if len(c.stalls) == cap(c.stalls) && c.stallHead > 0 {
		n := copy(c.stalls, c.stalls[c.stallHead:])
		clear(c.stalls[n:])
		c.stalls, c.stallHead = c.stalls[:n], 0
	}
	c.stalls = append(c.stalls, s)
}

// retryStalls re-runs accesses that were blocked on a full MSHR file. It
// dequeues by index and clears each slot, so retired callbacks are not
// pinned and a drained queue reuses its backing array.
func (c *Cache) retryStalls() {
	for c.stallHead < len(c.stalls) && c.mshrs.len() < c.cfg.MSHRs {
		s := c.stalls[c.stallHead]
		c.stalls[c.stallHead] = stalled{}
		c.stallHead++
		if c.stallHead == len(c.stalls) {
			c.stalls, c.stallHead = c.stalls[:0], 0
		}
		c.accessLine(s.op, s.lineAddr, s.done)
	}
}

// victim selects and evicts a way in tag's set, issuing a writeback if the
// victim is dirty.
func (c *Cache) victim(tag uint64) *line {
	set := c.sets[tag&c.setMask]
	// Prefer an invalid way.
	for i := range set {
		if !set[i].valid {
			return &set[i]
		}
	}
	var v *line
	switch c.cfg.Repl {
	case FIFO:
		v = &set[0]
		for i := range set {
			if set[i].fill < v.fill {
				v = &set[i]
			}
		}
	case RandomRepl:
		v = &set[c.rng.Intn(len(set))]
	default: // LRU
		v = &set[0]
		for i := range set {
			if set[i].used < v.used {
				v = &set[i]
			}
		}
	}
	c.evictions.Inc()
	if v.st == modified {
		c.writebacks.Inc()
		c.lowerWriteBack(v.tag << c.lineShift)
	}
	v.valid = false
	v.st = invalid
	return v
}

// maybePrefetch issues a next-line read fill if the line is absent and an
// MSHR is free.
func (c *Cache) maybePrefetch(lineAddr uint64) {
	tag := lineAddr >> c.lineShift
	if c.findLine(tag) != nil {
		return
	}
	if c.mshrs.len() >= c.cfg.MSHRs || c.mshrs.find(tag) != nil {
		return
	}
	c.prefetches.Inc()
	m := c.newMSHR(Read, tag, lineAddr)
	m.prefetch = true
	c.mshrs.add(m)
	c.lowerFetch(m)
}

func (c *Cache) findLine(tag uint64) *line {
	set := c.sets[tag&c.setMask]
	for i := range set {
		if set[i].valid && set[i].tag == tag {
			return &set[i]
		}
	}
	return nil
}

// lowerFetch fetches the miss's line from the lower device, adapting plain
// Devices (which cannot have other sharers, so fills are exclusive).
func (c *Cache) lowerFetch(m *mshr) {
	if f, ok := c.lower.(Fetcher); ok {
		f.Fetch(m.op, m.lineAddr, c.cfg.LineBytes, m.fillFn)
		return
	}
	c.lower.Access(Read, m.lineAddr, c.cfg.LineBytes, m.fillTrueFn)
}

// lowerWrite forwards a posted write-through write.
func (c *Cache) lowerWrite(lineAddr uint64) {
	c.lower.Access(Write, lineAddr, c.cfg.LineBytes, nil)
}

// lowerWriteBack forwards an evicted dirty line.
func (c *Cache) lowerWriteBack(addr uint64) {
	if ws, ok := c.lower.(WritebackSink); ok {
		ws.WriteBack(addr, c.cfg.LineBytes)
		return
	}
	c.lower.Access(Write, addr, c.cfg.LineBytes, nil)
}

// --- snooping (called by the coherence bus) ---

// snoopRead downgrades a local copy to Shared; reports presence and whether
// the copy was dirty (in which case the bus writes it back).
func (c *Cache) snoopRead(lineAddr uint64) (had, dirty bool) {
	tag := lineAddr >> c.lineShift
	ln := c.findLine(tag)
	if ln == nil {
		return false, false
	}
	dirty = ln.st == modified
	ln.st = shared
	return true, dirty
}

// snoopInvalidate drops a local copy; reports presence and dirtiness.
func (c *Cache) snoopInvalidate(lineAddr uint64) (had, dirty bool) {
	tag := lineAddr >> c.lineShift
	ln := c.findLine(tag)
	if ln == nil {
		return false, false
	}
	c.snoopInvals.Inc()
	dirty = ln.st == modified
	ln.valid = false
	ln.st = invalid
	return true, dirty
}

// ReleaseLines returns the cache's line backing array to its LinePool and
// detaches the sets, so a torn-down model cannot alias the next point's
// tags. Only call when the cache will no longer be accessed; no-op without
// a pool, idempotent.
func (c *Cache) ReleaseLines() {
	if c.linePool == nil || c.backing == nil {
		return
	}
	c.linePool.put(c.backing)
	c.backing = nil
	c.sets = nil
}

// Contents returns (valid lines, dirty lines) for invariant checks in tests.
func (c *Cache) Contents() (valid, dirty int) {
	for _, set := range c.sets {
		for i := range set {
			if set[i].valid {
				valid++
				if set[i].st == modified {
					dirty++
				}
			}
		}
	}
	return valid, dirty
}
