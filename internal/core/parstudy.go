package core

import (
	"fmt"
	"time"

	"sst/internal/par"
	"sst/internal/sim"
	"sst/internal/stats"
)

// The parallel-simulation study exercises the poster's scalability claim:
// the same multi-node model is partitioned over 1..N ranks and the host
// wall-clock time per simulated event is measured, under every registered
// synchronization mode — conservative global and pairwise windows plus the
// optimistic speculative and adaptive modes. On a multi-core host the
// windows execute concurrently; on any host the study also verifies that
// neither the partitioning nor the sync mode changes the event count
// (bit-level determinism is covered by internal/par's tests).

// latticeNode is a self-driving model node: it burns host CPU per event
// (standing in for component model code) and exchanges messages with its
// ring neighbor. It is checkpointable so the optimistic sync modes, which
// roll ranks back through engine snapshots, can run the lattice.
type latticeNode struct {
	name     string
	out      *sim.Port
	received uint64
	sink     float64
}

func (l *latticeNode) Name() string { return l.name }

func (l *latticeNode) SaveState(enc *sim.Encoder) {
	enc.U64(l.received)
	enc.F64(l.sink)
}

func (l *latticeNode) LoadState(dec *sim.Decoder) error {
	l.received = dec.U64()
	l.sink = dec.F64()
	return dec.Err()
}

func (l *latticeNode) recv(payload any) {
	l.received++
}

// burn is the stand-in for component model code: a fixed dose of host CPU
// per handled event.
func (l *latticeNode) burn() {
	for k := 0; k < 60; k++ {
		l.sink += float64(k) * 1.0000001
	}
}

// Heterogeneous lattice constants: a duty-cycled chatty pair coupled by
// one tight link plus a bursty periphery on links an order of magnitude
// slower. This is the configuration where topology-aware (pairwise) sync
// beats a global window: the tight link pins the global lookahead to
// tightLat for every rank forever, while pairwise horizons are computed
// from next-event times — so whenever the chatty pair is in the quiet part
// of its duty cycle, periphery ranks get windows sized by their slow
// inbound links and run a whole burst per dispatch instead of crawling
// through it tightLat at a time.
const (
	hetTightLat   = 250 * sim.Nanosecond
	hetSlowLat    = 2 * sim.Microsecond
	hetChatStep   = 2 * sim.Nanosecond   // chatty pair compute-event spacing
	hetChatOn     = 5 * sim.Microsecond  // chatty active slice per period
	hetChatPeriod = 20 * sim.Microsecond // chatty duty-cycle period
	hetBurstLen   = 16                   // events per periphery burst
	hetBurstStep  = 50 * sim.Nanosecond
	hetBurstGap   = 8 * sim.Microsecond // burst start to next burst start
)

// BuildLatticeHetero partitions a heterogeneous-latency lattice over the
// runner: nodes 0 and 1 exchange messages every tightLat across the one
// tight link and run dense compute events, while the remaining nodes sit
// on slow ring links and wake only for short event bursts.
func BuildLatticeHetero(r *par.Runner, nodes int) ([]*latticeNode, error) {
	if nodes < 4 {
		return nil, fmt.Errorf("core: heterogeneous lattice needs at least 4 nodes, got %d", nodes)
	}
	nranks := r.NumRanks()
	type half struct{ a, b *sim.Port }
	halves := make([]half, nodes)
	for i := 0; i < nodes; i++ {
		lat := hetSlowLat
		if i == 0 {
			lat = hetTightLat // the node0-node1 link
		}
		ra := i % nranks
		rb := ((i + 1) % nodes) % nranks
		a, b, err := r.Connect(fmt.Sprintf("het%d", i), lat, ra, rb)
		if err != nil {
			return nil, err
		}
		halves[i] = half{a, b}
	}
	out := make([]*latticeNode, nodes)
	for i := 0; i < nodes; i++ {
		out[i] = &latticeNode{name: fmt.Sprintf("node%d", i), out: halves[i].a}
		halves[(i-1+nodes)%nodes].b.SetHandler(out[i].recv)
		r.Rank(i % nranks).Add(out[i])
	}
	// The chatty pair: dense local events, a message across the tight link
	// every tightLat, active hetChatOn out of every hetChatPeriod. Node 1
	// replies on the tight link's far port rather than its slow ring
	// out-port, so the chat stays on the 250ns path. The quiet stretch is
	// what the pairwise horizons exploit: the pair's next events sit a
	// whole period ahead, so it stops capping everyone else's windows.
	// Both drivers are checkpoint-owned components (their event chains live
	// in EventSets, their counters in SaveState) rather than raw closures,
	// so an optimistic rank can snapshot and roll the lattice back.
	halves[0].a.SetHandler(out[0].recv) // node 1 -> node 0 replies
	for i, cfg := range []struct {
		port  *sim.Port
		start sim.Time
	}{{halves[0].a, 0}, {halves[0].b, sim.Nanosecond}} {
		rk := r.Rank(i % nranks)
		c := &hetChat{
			name: fmt.Sprintf("chat%d", i), node: out[i], port: cfg.port,
			eng: rk.Engine(), per: int(hetTightLat / hetChatStep),
		}
		c.set = sim.NewEventSet(c.eng, c.name, c.work)
		rk.Add(c)
		c.set.ScheduleAt(cfg.start, sim.PrioLink, 0)
	}
	// The periphery: hetBurstLen events spaced hetBurstStep, one ring
	// message at the end of each burst, then silence until the next burst.
	for i := 2; i < nodes; i++ {
		rk := r.Rank(i % nranks)
		p := &hetBurst{name: fmt.Sprintf("burst%d", i), node: out[i], eng: rk.Engine()}
		p.set = sim.NewEventSet(p.eng, p.name, p.work)
		rk.Add(p)
		p.set.ScheduleAt(sim.Time(i%7)*sim.Nanosecond, sim.PrioLink, 0)
	}
	return out, nil
}

// hetChat drives one side of the chatty pair as a checkpointable component:
// the pending tick lives in its EventSet and the duty-cycle counter rides
// in its saved state.
type hetChat struct {
	name  string
	node  *latticeNode
	port  *sim.Port
	eng   *sim.Engine
	set   *sim.EventSet
	per   int
	count int
}

func (c *hetChat) Name() string                     { return c.name }
func (c *hetChat) SaveState(enc *sim.Encoder)       { enc.I64(int64(c.count)); c.set.Save(enc) }
func (c *hetChat) LoadState(dec *sim.Decoder) error { c.count = int(dec.I64()); return c.set.Load(dec) }
func (c *hetChat) PendingOwned() int                { return c.set.PendingOwned() }

func (c *hetChat) work(any) {
	c.node.burn()
	c.count++
	if c.count%c.per == 0 {
		c.port.Send(c.node.received)
	}
	now := c.eng.Now()
	if phase := now % hetChatPeriod; phase+hetChatStep >= hetChatOn {
		c.set.ScheduleAt(now+hetChatPeriod-phase, sim.PrioLink, 0)
		return
	}
	c.set.ScheduleAt(now+hetChatStep, sim.PrioLink, 0)
}

// hetBurst drives one periphery node's duty-cycled bursts, checkpoint-owned
// like hetChat.
type hetBurst struct {
	name string
	node *latticeNode
	eng  *sim.Engine
	set  *sim.EventSet
	k    int
}

func (p *hetBurst) Name() string                     { return p.name }
func (p *hetBurst) SaveState(enc *sim.Encoder)       { enc.I64(int64(p.k)); p.set.Save(enc) }
func (p *hetBurst) LoadState(dec *sim.Decoder) error { p.k = int(dec.I64()); return p.set.Load(dec) }
func (p *hetBurst) PendingOwned() int                { return p.set.PendingOwned() }

func (p *hetBurst) work(any) {
	p.node.burn()
	p.k++
	now := p.eng.Now()
	if p.k%hetBurstLen == 0 {
		p.node.out.Send(p.node.received)
		p.set.ScheduleAt(now+hetBurstGap-sim.Time(hetBurstLen-1)*hetBurstStep, sim.PrioLink, 0)
		return
	}
	p.set.ScheduleAt(now+hetBurstStep, sim.PrioLink, 0)
}

// ParallelScalingResult is the parallel-scaling study's Result: the
// rendered table plus, per rank count, the host wall time and the total
// dispatched window count under each sync mode. WallSeconds refers to the
// default (pairwise) mode; the legacy Global fields alias the per-mode maps
// for existing consumers.
type ParallelScalingResult struct {
	TableResult
	WallSeconds       map[int]float64
	WallSecondsGlobal map[int]float64
	Windows           map[int]uint64
	WindowsGlobal     map[int]uint64
	// Per-sync-mode maps keyed by par.SyncMode.String() then rank count,
	// covering the optimistic modes the legacy fields predate.
	WallSecondsMode map[string]map[int]float64
	WindowsMode     map[string]map[int]uint64
	RollbacksMode   map[string]map[int]uint64
}

// ParallelScalingStudy runs the heterogeneous lattice at each rank count
// for the given simulated horizon under all four sync modes, reporting
// host wall time, dispatched windows, rollbacks and simulated events. The
// event count must be invariant across every (ranks, mode) cell, and on
// multi-rank runs the pairwise mode must not dispatch more windows than
// the global mode — both are checked here, not just reported.
//
// Unlike the design-space sweeps this study stays sequential on purpose:
// each point measures host wall-clock and already spawns one goroutine per
// rank, so running points through the sweep worker pool would contend for
// cores and corrupt the very timings being reported. opts.Workers is
// therefore ignored; opts.Context is still consulted between points so a
// cancelled sweep stops promptly.
func ParallelScalingStudy(rankCounts []int, nodes int, horizon sim.Time, opts SweepOptions) (*ParallelScalingResult, error) {
	return ParallelScalingStudyModes(rankCounts, nodes, horizon, opts,
		[]par.SyncMode{par.SyncGlobal, par.SyncPairwise, par.SyncSpeculative, par.SyncAdaptive})
}

// ParallelScalingStudyModes is ParallelScalingStudy restricted to a chosen
// subset of sync modes (the sst-net -sync flag). Absent modes report zero
// in the fixed table columns and are missing from the per-mode maps; the
// speedup baseline is pairwise when selected, otherwise the first mode.
func ParallelScalingStudyModes(rankCounts []int, nodes int, horizon sim.Time, opts SweepOptions, modes []par.SyncMode) (*ParallelScalingResult, error) {
	if len(modes) == 0 {
		return nil, fmt.Errorf("core: parallel scaling study needs at least one sync mode")
	}
	baseMode := modes[0]
	for _, m := range modes {
		if m == par.SyncPairwise {
			baseMode = m
		}
	}
	t := stats.NewTable(
		fmt.Sprintf("Parallel simulation scaling: %d-node heterogeneous lattice, %v horizon", nodes, horizon),
		"ranks", "events", "wall_ms_global", "wall_ms_pairwise", "wall_ms_spec", "wall_ms_adaptive",
		"windows_global", "windows_pairwise", "windows_spec", "rollbacks_spec", "speedup_vs_1rank")
	ctx := opts.context()
	res := &ParallelScalingResult{
		WallSeconds:       map[int]float64{},
		WallSecondsGlobal: map[int]float64{},
		Windows:           map[int]uint64{},
		WindowsGlobal:     map[int]uint64{},
		WallSecondsMode:   map[string]map[int]float64{},
		WindowsMode:       map[string]map[int]uint64{},
		RollbacksMode:     map[string]map[int]uint64{},
	}
	for _, m := range modes {
		res.WallSecondsMode[m.String()] = map[int]float64{}
		res.WindowsMode[m.String()] = map[int]uint64{}
		res.RollbacksMode[m.String()] = map[int]uint64{}
	}
	type cell struct {
		wall      float64
		windows   uint64
		events    uint64
		rollbacks uint64
	}
	run := func(nr int, mode par.SyncMode) (cell, error) {
		r, err := par.NewRunner(nr)
		if err != nil {
			return cell{}, err
		}
		r.SetSyncMode(mode)
		if mode.Speculative() {
			// Optimistic execution rolls ranks back through engine
			// snapshots, so these cells run with checkpoint tracking on —
			// its bookkeeping cost is part of the mode's measured price.
			r.EnableSnapshots()
		}
		if _, err := BuildLatticeHetero(r, nodes); err != nil {
			return cell{}, err
		}
		start := time.Now()
		events, err := r.Run(horizon)
		if err != nil {
			return cell{}, err
		}
		w := time.Since(start).Seconds()
		m := r.Metrics()
		var dispatched uint64
		for _, rk := range m.Ranks {
			dispatched += rk.Windows
		}
		return cell{wall: w, windows: dispatched, events: events, rollbacks: m.Rollbacks}, nil
	}
	var base float64
	var baseEvents uint64
	for _, nr := range rankCounts {
		if err := ctx.Err(); err != nil {
			return nil, fmt.Errorf("core: parallel scaling study cancelled: %w", err)
		}
		cells := map[par.SyncMode]cell{}
		has := func(m par.SyncMode) bool { _, ok := cells[m]; return ok }
		for _, mode := range modes {
			c, err := run(nr, mode)
			if err != nil {
				return nil, fmt.Errorf("core: %v sync at %d ranks: %w", mode, nr, err)
			}
			cells[mode] = c
		}
		g, p := cells[par.SyncGlobal], cells[par.SyncPairwise]
		bc := cells[baseMode]
		if nr == rankCounts[0] {
			base = bc.wall
			baseEvents = bc.events
		}
		for _, mode := range modes {
			if ev := cells[mode].events; ev != baseEvents {
				return nil, fmt.Errorf("core: partitioning or sync mode changed event count at %d ranks: %v %d, reference %d",
					nr, mode, ev, baseEvents)
			}
		}
		if nr > 1 && has(par.SyncGlobal) && has(par.SyncPairwise) && p.windows > g.windows {
			return nil, fmt.Errorf("core: pairwise sync dispatched more windows than global at %d ranks: %d vs %d",
				nr, p.windows, g.windows)
		}
		if has(par.SyncPairwise) {
			res.WallSeconds[nr] = p.wall
			res.Windows[nr] = p.windows
		}
		if has(par.SyncGlobal) {
			res.WallSecondsGlobal[nr] = g.wall
			res.WindowsGlobal[nr] = g.windows
		}
		for _, mode := range modes {
			res.WallSecondsMode[mode.String()][nr] = cells[mode].wall
			res.WindowsMode[mode.String()][nr] = cells[mode].windows
			res.RollbacksMode[mode.String()][nr] = cells[mode].rollbacks
		}
		s, a := cells[par.SyncSpeculative], cells[par.SyncAdaptive]
		t.AddRow(nr, bc.events, g.wall*1e3, p.wall*1e3, s.wall*1e3, a.wall*1e3,
			g.windows, p.windows, s.windows, s.rollbacks, base/bc.wall)
	}
	res.TableResult = TableResult{Tab: t}
	return res, nil
}
