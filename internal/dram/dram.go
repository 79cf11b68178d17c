package dram

import (
	"fmt"

	"sst/internal/sim"
	"sst/internal/stats"
)

// request is one in-flight line transfer. Requests are recycled through the
// Memory's free list; ch and dataEnd carry what the completion handler
// needs so one shared handler serves every request without a per-issue
// closure.
type request struct {
	addr    uint64
	write   bool
	done    func()
	arrive  sim.Time
	row     uint64
	bank    int
	ch      *channel
	dataEnd sim.Time
}

// bank tracks one DRAM bank's row-buffer and timing state.
type bank struct {
	openRow  int64 // -1 when precharged/closed
	readyAt  sim.Time
	openedAt sim.Time // last activate, for tRAS enforcement
}

// channel is one independent command/data bus with its own scheduler.
type channel struct {
	id        int
	queue     []*request
	inflight  int
	banks     []bank
	busFreeAt sim.Time
	kickArmed bool

	refreshArmed bool
	lastAccess   sim.Time

	// done carries the channel's completions: each issued request's
	// dataEnd starts no earlier than busFreeAt, the previous dataEnd, so
	// they are strictly increasing and the lane never falls back to the
	// heap.
	done sim.Lane

	// kickFn/refreshFn are the channel's retry and refresh events, bound
	// once at construction so arming them never allocates.
	kickFn    sim.Handler
	refreshFn sim.Handler
}

// Memory is a multi-channel DRAM subsystem driven by the simulation engine.
// Access is the single entry point; completion callbacks fire when the data
// burst finishes.
type Memory struct {
	name   string
	cfg    Config
	engine *sim.Engine
	chans  []*channel

	lineShift   uint
	lineMask    uint64
	linesPerRow int

	transfer sim.Time

	// freeReqs recycles request structs; completeFn is the shared
	// completion handler (payload: the *request), bound once.
	freeReqs   []*request
	completeFn sim.Handler

	// Statistics.
	reads, writes   *stats.Counter
	rowHits         *stats.Counter
	rowMisses       *stats.Counter
	rowConflicts    *stats.Counter
	refreshes       *stats.Counter
	bytes           *stats.Counter
	latency         *stats.Histogram
	queueOcc        *stats.Accumulator
	dynamicJ        float64
	lastEnergyCheck sim.Time
	backgroundJ     float64
}

// New builds a memory subsystem. The scope may be nil to skip statistics.
func New(engine *sim.Engine, name string, cfg Config, scope *stats.Scope) (*Memory, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	m := &Memory{
		name:   name,
		cfg:    cfg,
		engine: engine,
	}
	for s := uint(0); ; s++ {
		if 1<<s == cfg.LineBytes {
			m.lineShift = s
			break
		}
		if 1<<s > cfg.LineBytes {
			return nil, fmt.Errorf("dram %s: line size %d not a power of two", name, cfg.LineBytes)
		}
	}
	m.lineMask = ^uint64(cfg.LineBytes - 1)
	m.linesPerRow = cfg.RowBytes / cfg.LineBytes
	m.transfer = cfg.lineTransferTime()
	m.completeFn = func(p any) { m.complete(p.(*request)) }
	m.chans = make([]*channel, cfg.Channels)
	for i := range m.chans {
		ch := &channel{id: i, banks: make([]bank, cfg.BanksPerChannel)}
		for b := range ch.banks {
			ch.banks[b].openRow = -1
		}
		ch.kickFn = func(any) {
			ch.kickArmed = false
			m.kick(ch)
		}
		ch.refreshFn = func(any) { m.refresh(ch) }
		ch.done.Init(engine, sim.PrioLink, name)
		m.chans[i] = ch
	}
	if scope == nil {
		reg := stats.NewRegistry()
		scope = reg.Scope(name)
	}
	m.reads = scope.Counter("reads")
	m.writes = scope.Counter("writes")
	m.rowHits = scope.Counter("row_hits")
	m.rowMisses = scope.Counter("row_misses")
	m.rowConflicts = scope.Counter("row_conflicts")
	m.refreshes = scope.Counter("refreshes")
	m.bytes = scope.Counter("bytes")
	m.latency = scope.Histogram("latency_ps")
	m.queueOcc = scope.Accumulator("queue_occupancy")
	return m, nil
}

// Name returns the component name.
func (m *Memory) Name() string { return m.name }

// Config returns the memory configuration.
func (m *Memory) Config() Config { return m.cfg }

// map splits a line address into (channel, bank, row).
func (m *Memory) mapAddr(addr uint64) (ch, bk int, row uint64) {
	line := addr >> m.lineShift
	nch := uint64(m.cfg.Channels)
	nbk := uint64(m.cfg.BanksPerChannel)
	lpr := uint64(m.linesPerRow)
	switch m.cfg.Mapping {
	case MapSequential:
		// {channel, bank} change only every full row:
		// row-major fill of one bank at a time.
		ch = int(line / (lpr * nbk) % nch)
		bk = int(line / lpr % nbk)
		row = line / (lpr * nbk * nch)
	default: // MapInterleave
		ch = int(line % nch)
		l2 := line / nch
		bk = int(l2 % nbk)
		row = l2 / nbk / lpr
	}
	return ch, bk, row
}

// Access requests a line-sized transfer at addr. done (which may be nil for
// posted writes) fires when the data burst completes. Accesses larger than
// a line must be split by the caller (the cache always does).
func (m *Memory) Access(addr uint64, write bool, done func()) {
	now := m.engine.Now()
	chIdx, bk, row := m.mapAddr(addr)
	var req *request
	if n := len(m.freeReqs) - 1; n >= 0 {
		req, m.freeReqs[n] = m.freeReqs[n], nil
		m.freeReqs = m.freeReqs[:n]
	} else {
		req = new(request)
	}
	req.addr, req.write, req.done, req.arrive, req.row, req.bank = addr&m.lineMask, write, done, now, row, bk
	ch := m.chans[chIdx]
	if write {
		m.writes.Inc()
	} else {
		m.reads.Inc()
	}
	ch.queue = append(ch.queue, req)
	m.queueOcc.Observe(float64(len(ch.queue)))
	ch.lastAccess = now
	m.armRefresh(ch)
	m.kick(ch)
}

// kick issues as many queued requests as the channel window allows.
func (m *Memory) kick(ch *channel) {
	now := m.engine.Now()
	for ch.inflight < m.cfg.WindowPerChannel && len(ch.queue) > 0 {
		idx := m.pick(ch, now)
		if idx < 0 {
			// Nothing issueable yet: arm a kick at the earliest
			// bank-ready time.
			m.armKick(ch, now)
			return
		}
		req := ch.queue[idx]
		ch.queue = append(ch.queue[:idx], ch.queue[idx+1:]...)
		m.issue(ch, req, now)
	}
}

// pick selects the next request index per the scheduling policy, or -1 if
// no queued request's bank is ready at now.
func (m *Memory) pick(ch *channel, now sim.Time) int {
	if m.cfg.Scheduler == FCFS {
		if ch.banks[ch.queue[0].bank].readyAt <= now {
			return 0
		}
		return -1
	}
	// FR-FCFS: oldest ready row hit, else oldest ready request.
	fallback := -1
	for i, r := range ch.queue {
		b := &ch.banks[r.bank]
		if b.readyAt > now {
			continue
		}
		if b.openRow >= 0 && uint64(b.openRow) == r.row {
			return i
		}
		if fallback < 0 {
			fallback = i
		}
	}
	return fallback
}

// issue commits a request to its bank and schedules completion.
func (m *Memory) issue(ch *channel, req *request, now sim.Time) {
	b := &ch.banks[req.bank]
	start := now
	if b.readyAt > start {
		start = b.readyAt
	}
	var cmdLat sim.Time
	switch {
	case b.openRow >= 0 && uint64(b.openRow) == req.row:
		// Row hit: column access only.
		m.rowHits.Inc()
		cmdLat = m.cfg.cycles(m.cfg.TCAS)
	case b.openRow < 0:
		// Row closed: activate then column access.
		m.rowMisses.Inc()
		cmdLat = m.cfg.cycles(m.cfg.TRCD + m.cfg.TCAS)
		b.openedAt = start
		m.dynamicJ += m.cfg.Energy.ActivateJ
	default:
		// Row conflict: precharge (respecting tRAS), activate, column.
		m.rowConflicts.Inc()
		if minOpen := b.openedAt + m.cfg.cycles(m.cfg.TRAS); start < minOpen {
			start = minOpen
		}
		cmdLat = m.cfg.cycles(m.cfg.TRP + m.cfg.TRCD + m.cfg.TCAS)
		b.openedAt = start + m.cfg.cycles(m.cfg.TRP)
		m.dynamicJ += m.cfg.Energy.ActivateJ
	}
	dataStart := start + cmdLat
	if dataStart < ch.busFreeAt {
		dataStart = ch.busFreeAt
	}
	dataEnd := dataStart + m.transfer
	ch.busFreeAt = dataEnd
	b.openRow = int64(req.row)
	b.readyAt = dataEnd
	ch.inflight++
	m.dynamicJ += m.cfg.Energy.PerByteJ * float64(m.cfg.LineBytes)
	m.bytes.Add(uint64(m.cfg.LineBytes))

	req.ch, req.dataEnd = ch, dataEnd
	ch.done.ScheduleAt(dataEnd, m.completeFn, req)
}

// complete finishes one transfer: the request is recycled before its done
// callback runs, so a callback that immediately issues a new access reuses
// the same struct.
func (m *Memory) complete(req *request) {
	ch := req.ch
	ch.inflight--
	m.latency.Observe(uint64(req.dataEnd - req.arrive))
	done := req.done
	req.done, req.ch = nil, nil
	m.freeReqs = append(m.freeReqs, req)
	if done != nil {
		done()
	}
	m.kick(ch)
}

// armKick schedules a retry at the earliest time any queued request's bank
// becomes ready.
func (m *Memory) armKick(ch *channel, now sim.Time) {
	if ch.kickArmed {
		return
	}
	earliest := sim.TimeInfinity
	for _, r := range ch.queue {
		if t := ch.banks[r.bank].readyAt; t < earliest {
			earliest = t
		}
	}
	if earliest == sim.TimeInfinity || earliest <= now {
		// Banks are ready but the window is full; the completion
		// callback will kick us.
		return
	}
	ch.kickArmed = true
	m.engine.ScheduleLabeledAt(earliest, sim.PrioLink, m.name, ch.kickFn, nil)
}

// armRefresh starts the periodic refresh machinery for a channel. Refresh
// self-disarms after a full idle interval so an idle memory doesn't keep
// the event queue alive forever; rows are closed at disarm, which is what
// a real controller's idle power-down does too.
func (m *Memory) armRefresh(ch *channel) {
	if ch.refreshArmed || m.cfg.TREFI == 0 {
		return
	}
	ch.refreshArmed = true
	m.engine.ScheduleLabeled(m.cfg.TREFI, sim.PrioLink, m.name, ch.refreshFn, nil)
}

func (m *Memory) refresh(ch *channel) {
	now := m.engine.Now()
	m.refreshes.Inc()
	m.dynamicJ += m.cfg.Energy.RefreshJ
	dur := m.cfg.cycles(m.cfg.TRFC)
	for i := range ch.banks {
		b := &ch.banks[i]
		b.openRow = -1
		if b.readyAt < now+dur {
			b.readyAt = now + dur
		}
	}
	ch.refreshArmed = false
	if now-ch.lastAccess < m.cfg.TREFI {
		m.armRefresh(ch)
	}
}

// QueueDepth returns the number of queued (not yet issued) requests.
func (m *Memory) QueueDepth() int {
	n := 0
	for _, ch := range m.chans {
		n += len(ch.queue) + ch.inflight
	}
	return n
}

// EnergyJ returns total energy including background power integrated up to
// the current simulation time.
func (m *Memory) EnergyJ() float64 {
	elapsed := m.engine.Now().Seconds()
	return m.dynamicJ + m.cfg.Energy.BackgroundW*elapsed*float64(m.cfg.Channels)
}

// AvgPowerW returns average power over the simulation so far.
func (m *Memory) AvgPowerW() float64 {
	s := m.engine.Now().Seconds()
	if s == 0 {
		return 0
	}
	return m.EnergyJ() / s
}

// RowHitRate returns the fraction of accesses that hit an open row.
func (m *Memory) RowHitRate() float64 {
	total := m.rowHits.Count() + m.rowMisses.Count() + m.rowConflicts.Count()
	if total == 0 {
		return 0
	}
	return float64(m.rowHits.Count()) / float64(total)
}

// BytesTransferred returns the data volume moved so far.
func (m *Memory) BytesTransferred() uint64 { return m.bytes.Count() }

// AchievedBandwidth returns bytes/s averaged over the run so far.
func (m *Memory) AchievedBandwidth() float64 {
	s := m.engine.Now().Seconds()
	if s == 0 {
		return 0
	}
	return float64(m.bytes.Count()) / s
}
