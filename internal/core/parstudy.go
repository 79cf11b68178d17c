package core

import (
	"context"
	"errors"
	"fmt"
	"time"

	"sst/internal/par"
	"sst/internal/sim"
	"sst/internal/stats"
)

// The parallel-simulation study exercises the poster's scalability claim:
// the same multi-node model is partitioned over 1..N ranks and the host
// wall-clock time per simulated event is measured. On a multi-core host
// the windows execute concurrently; on any host the study also verifies
// that the partitioning does not change the event count (bit-level
// determinism is covered by internal/par's tests).

// latticeNode is a self-driving model node: it burns host CPU per event
// (standing in for component model code) and exchanges messages with its
// ring neighbor.
type latticeNode struct {
	name     string
	out      *sim.Port
	received uint64
	sink     float64
}

func (l *latticeNode) Name() string { return l.name }

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
// slower. This is the configuration where topology-aware (pairwise)
// horizons pay: the tight link would pin one global window to tightLat for
// every rank forever, while pairwise horizons are computed
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

// ErrLatticeSize is BuildLatticeHetero's refusal of a lattice with no
// room for the chatty pair and a periphery, a configuration mistake.
var ErrLatticeSize = errors.New("core: heterogeneous lattice needs at least 4 nodes")

// BuildLatticeHetero partitions a heterogeneous-latency lattice over the
// runner: nodes 0 and 1 exchange messages every tightLat across the one
// tight link and run dense compute events, while the remaining nodes sit
// on slow ring links and wake only for short event bursts.
func BuildLatticeHetero(r *par.Runner, nodes int) ([]*latticeNode, error) {
	if nodes < 4 {
		return nil, fmt.Errorf("%w, got %d", ErrLatticeSize, nodes)
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
	halves[0].a.SetHandler(out[0].recv) // node 1 -> node 0 replies
	for i, cfg := range []struct {
		port  *sim.Port
		start sim.Time
	}{{halves[0].a, 0}, {halves[0].b, sim.Nanosecond}} {
		rk := r.Rank(i % nranks)
		c := &hetChat{
			hetDriver: hetDriver{name: fmt.Sprintf("chat%d", i), node: out[i], eng: rk.Engine()},
			port:      cfg.port, per: int(hetTightLat / hetChatStep),
		}
		c.set = sim.NewEventSet(c.eng, c.name, c.work)
		rk.Add(c)
		c.set.ScheduleAt(cfg.start, sim.PrioLink, 0)
	}
	// The periphery: hetBurstLen events spaced hetBurstStep, one ring
	// message at the end of each burst, then silence until the next burst.
	for i := 2; i < nodes; i++ {
		rk := r.Rank(i % nranks)
		p := &hetBurst{hetDriver{name: fmt.Sprintf("burst%d", i), node: out[i], eng: rk.Engine()}}
		p.set = sim.NewEventSet(p.eng, p.name, p.work)
		rk.Add(p)
		p.set.ScheduleAt(sim.Time(i%7)*sim.Nanosecond, sim.PrioLink, 0)
	}
	return out, nil
}

// hetDriver is a self-rescheduling event chain: its pending event lives in
// its EventSet and n counts the events it has handled.
type hetDriver struct {
	name string
	node *latticeNode
	eng  *sim.Engine
	set  *sim.EventSet
	n    int
}

func (d *hetDriver) Name() string { return d.name }

// hetChat drives one side of the chatty pair.
type hetChat struct {
	hetDriver
	port *sim.Port
	per  int
}

func (c *hetChat) work(any) {
	c.node.burn()
	c.n++
	if c.n%c.per == 0 {
		c.port.Send(c.node.received)
	}
	now := c.eng.Now()
	if phase := now % hetChatPeriod; phase+hetChatStep >= hetChatOn {
		c.set.ScheduleAt(now+hetChatPeriod-phase, sim.PrioLink, 0)
		return
	}
	c.set.ScheduleAt(now+hetChatStep, sim.PrioLink, 0)
}

// hetBurst drives one periphery node's duty-cycled bursts.
type hetBurst struct{ hetDriver }

func (p *hetBurst) work(any) {
	p.node.burn()
	p.n++
	now := p.eng.Now()
	if p.n%hetBurstLen == 0 {
		p.node.out.Send(p.node.received)
		p.set.ScheduleAt(now+hetBurstGap-sim.Time(hetBurstLen-1)*hetBurstStep, sim.PrioLink, 0)
		return
	}
	p.set.ScheduleAt(now+hetBurstStep, sim.PrioLink, 0)
}

// ParallelScalingResult is the parallel-scaling study's Result: the
// rendered table plus, per rank count, the host wall time and the total
// dispatched window count.
type ParallelScalingResult struct {
	TableResult
	WallSeconds map[int]float64
	Windows     map[int]uint64
}

// ParallelScalingStudy runs the heterogeneous lattice at each rank count
// for the given simulated horizon, reporting host wall time, dispatched
// windows and simulated events. The event count must be invariant across
// rank counts; that is checked here, not just reported.
//
// Unlike the design-space sweeps this study stays sequential on purpose:
// each point measures host wall-clock and already spawns one goroutine per
// rank, so running points through the sweep worker pool would contend for
// cores and corrupt the very timings being reported. opts.Workers is
// therefore ignored; cancelling opts.Context interrupts the running cell,
// and the study returns an error wrapping the context's error.
func ParallelScalingStudy(rankCounts []int, nodes int, horizon sim.Time, opts SweepOptions) (*ParallelScalingResult, error) {
	t := stats.NewTable(
		fmt.Sprintf("Parallel simulation scaling: %d-node heterogeneous lattice, %v horizon", nodes, horizon),
		"ranks", "events", "wall_ms_pairwise", "windows_pairwise", "speedup_vs_1rank")
	ctx := opts.context()
	res := &ParallelScalingResult{WallSeconds: map[int]float64{}, Windows: map[int]uint64{}}
	var base float64
	var baseEvents uint64
	for _, nr := range rankCounts {
		r, err := par.NewRunner(nr)
		if err != nil {
			return nil, err
		}
		if _, err := BuildLatticeHetero(r, nodes); err != nil {
			return nil, err
		}
		start := time.Now()
		events, err := runScalingCell(ctx, r, horizon)
		if err != nil {
			if ctx.Err() != nil {
				return nil, fmt.Errorf("core: parallel scaling study cancelled: %w", ctx.Err())
			}
			return nil, fmt.Errorf("core: %d ranks: %w", nr, err)
		}
		wall := time.Since(start).Seconds()
		var windows uint64
		for _, rk := range r.Metrics().Ranks {
			windows += rk.Windows
		}
		if nr == rankCounts[0] {
			base, baseEvents = wall, events
		}
		if events != baseEvents {
			return nil, fmt.Errorf("core: partitioning changed event count at %d ranks: %d, reference %d",
				nr, events, baseEvents)
		}
		res.WallSeconds[nr], res.Windows[nr] = wall, windows
		t.AddRow(nr, events, wall*1e3, windows, base/wall)
	}
	res.TableResult = TableResult{Tab: t}
	return res, nil
}

// runScalingCell runs one scaling cell to the horizon; cancelling ctx
// interrupts it mid-run, as System.Run does.
func runScalingCell(ctx context.Context, r *par.Runner, horizon sim.Time) (uint64, error) {
	defer context.AfterFunc(ctx, r.Interrupt)()
	if err := ctx.Err(); err != nil {
		return 0, err
	}
	return r.Run(horizon)
}
