package noc

import (
	"fmt"

	"sst/internal/sim"
	"sst/internal/stats"
)

// DetailedNetwork is the high-fidelity counterpart to Network: the same
// topologies and NIC API, but with credit-based flow control over bounded
// input buffers (virtual cut-through). Packets occupy real buffer space at
// every hop, transmit only when the downstream buffer has room, and block
// upstream when it does not — so congestion spreads backwards through the
// network (tree saturation, head-of-line blocking), which the fast model's
// unbounded queues cannot express. This is SST's multi-fidelity trade: the
// fast model for breadth, the detailed model when flow control matters.
//
// Channel-dependency restriction: bounded buffers introduce routing
// deadlock on topologies whose channel-dependency graph has cycles under
// their routing function. Mesh dimension-order, fat-tree up/down,
// butterfly, hypercube e-cube and crossbar routing are cycle-free; tori
// close dependency cycles on their wraparound links, so torus channels get
// the classic dateline fix: two virtual channels per link, with packets
// promoted from VC0 to VC1 when they cross a wrap link, breaking the cycle
// (Dally & Seitz).
type DetailedNetwork struct {
	name   string
	engine *sim.Engine
	topo   Topology
	cfg    NetConfig
	// bufBytes is each input buffer's capacity.
	bufBytes int

	links map[[2]int]*dchan
	nics  []*DetailedNIC

	packets   *stats.Counter
	messages  *stats.Counter
	bytes     *stats.Counter
	msgLat    *stats.Histogram
	blockedPs *stats.Counter
	peakBuf   *stats.Gauge
}

// dchan is a directed channel from router `from` to router `to`: the wire
// (serialization via busyUntil, shared by both VCs) plus two virtual
// channels' input buffers at `to` and their credit-wait queues. Non-torus
// topologies only ever use VC0.
type dchan struct {
	from, to  int
	busyUntil sim.Time
	bufUsed   [2]int
	waiting   [2][]*dpacket
}

// dpacket is one in-flight packet.
type dpacket struct {
	src, dst int
	size     int
	msgSize  int
	last     bool
	payload  any
	sentAt   sim.Time
	// at is the router whose input buffer currently holds the packet.
	at int
	// hold is the channel whose buffer the packet occupies (nil while in
	// the source NIC's unbounded injection queue) and holdVC which of its
	// virtual channels.
	hold   *dchan
	holdVC int
	// vc is the packet's current virtual channel: 0 until it crosses the
	// current dimension's torus dateline (wrap link), then 1. It resets
	// to 0 on every dimension change (per-dimension datelines), the
	// classic Dally–Seitz construction: dimension-order routing makes
	// cross-dimension dependencies acyclic, and the dateline breaks the
	// cycle within each ring.
	vc        int
	lastDim   int
	blockedAt sim.Time
}

// NewDetailedNetwork builds the detailed model. bufBytes of 0 defaults to
// two max-size packets per input buffer.
func NewDetailedNetwork(engine *sim.Engine, name string, topo Topology, cfg NetConfig, bufBytes int, scope *stats.Scope) (*DetailedNetwork, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if bufBytes == 0 {
		bufBytes = 2 * cfg.MaxPacketBytes
	}
	if bufBytes < cfg.MaxPacketBytes {
		return nil, fmt.Errorf("noc: buffer %dB smaller than a packet (%dB)", bufBytes, cfg.MaxPacketBytes)
	}
	d := &DetailedNetwork{
		name:     name,
		engine:   engine,
		topo:     topo,
		cfg:      cfg,
		bufBytes: bufBytes,
		links:    make(map[[2]int]*dchan),
	}
	for _, l := range topo.Links() {
		d.links[[2]int{l[0], l[1]}] = &dchan{from: l[0], to: l[1]}
		d.links[[2]int{l[1], l[0]}] = &dchan{from: l[1], to: l[0]}
	}
	d.nics = make([]*DetailedNIC, topo.NumNodes())
	for i := range d.nics {
		d.nics[i] = &DetailedNIC{net: d, node: i}
	}
	if scope == nil {
		scope = stats.NewRegistry().Scope(name)
	}
	d.packets = scope.Counter("packets")
	d.messages = scope.Counter("messages")
	d.bytes = scope.Counter("bytes")
	d.msgLat = scope.Histogram("message_latency_ps")
	d.blockedPs = scope.Counter("credit_blocked_ps")
	d.peakBuf = scope.Gauge("buffer_occupancy")
	return d, nil
}

// Name returns the component name.
func (d *DetailedNetwork) Name() string { return d.name }

// Topology returns the simulated topology.
func (d *DetailedNetwork) Topology() Topology { return d.topo }

// NIC returns node i's interface.
func (d *DetailedNetwork) NIC(i int) *DetailedNIC { return d.nics[i] }

// MessageLatencyMean returns the mean end-to-end latency (ps).
func (d *DetailedNetwork) MessageLatencyMean() float64 { return d.msgLat.Mean() }

// BytesDelivered returns delivered payload bytes.
func (d *DetailedNetwork) BytesDelivered() uint64 { return d.bytes.Count() }

// Messages returns delivered message count.
func (d *DetailedNetwork) Messages() uint64 { return d.messages.Count() }

// CreditBlockedTime returns accumulated packet-time spent blocked on
// credits — the congestion signal the fast model cannot produce.
func (d *DetailedNetwork) CreditBlockedTime() sim.Time {
	return sim.Time(d.blockedPs.Count())
}

// PeakBufferOccupancy returns the high-water mark across input buffers.
func (d *DetailedNetwork) PeakBufferOccupancy() int64 { return d.peakBuf.Peak() }

// tryForward moves packet p onward from router p.at. The packet keeps
// holding its current buffer until it acquires space downstream (virtual
// cut-through with backpressure).
func (d *DetailedNetwork) tryForward(p *dpacket) {
	r := p.at
	nxt := d.topo.Route(r, p.dst)
	if nxt < 0 {
		// Ejection is unbounded: free the buffer and deliver.
		d.release(p)
		d.deliver(p)
		return
	}
	ch := d.links[[2]int{r, nxt}]
	if ch == nil {
		panic(fmt.Sprintf("noc: detailed route %d->%d without a link", r, nxt))
	}
	vc := p.vc
	if dim, wrap := d.hopDim(r, nxt); dim >= 0 {
		if dim != p.lastDim {
			// New dimension: fresh dateline, back to VC0.
			p.lastDim = dim
			vc = 0
		}
		if wrap {
			// Crossing this dimension's dateline: escape VC.
			vc = 1
		}
	}
	if ch.bufUsed[vc]+p.size > d.bufBytes {
		if p.blockedAt == 0 {
			p.blockedAt = d.engine.Now()
		}
		ch.waiting[vc] = append(ch.waiting[vc], p)
		return
	}
	d.transmit(p, ch, vc)
}

// hopDim classifies a torus hop: which dimension it moves in (0/1/2, or
// -1 for non-torus topologies) and whether it is that ring's wraparound
// (dateline) link.
func (d *DetailedNetwork) hopDim(r, nxt int) (dim int, wrap bool) {
	t, ok := d.topo.(*Torus3D)
	if !ok {
		return -1, false
	}
	x1, y1, z1 := t.Coords(r)
	x2, y2, z2 := t.Coords(nxt)
	wrap1 := func(a, b, n int) bool {
		if n < 3 {
			return false // rings of size <=2 have no distinct wrap
		}
		return (a == 0 && b == n-1) || (a == n-1 && b == 0)
	}
	switch {
	case x1 != x2:
		return 0, wrap1(x1, x2, t.X)
	case y1 != y2:
		return 1, wrap1(y1, y2, t.Y)
	default:
		return 2, wrap1(z1, z2, t.Z)
	}
}

// transmit claims downstream buffer space on the given VC, frees the
// packet's current buffer, and schedules arrival at ch.to.
func (d *DetailedNetwork) transmit(p *dpacket, ch *dchan, vc int) {
	now := d.engine.Now()
	if p.blockedAt != 0 {
		d.blockedPs.Add(uint64(now - p.blockedAt))
		p.blockedAt = 0
	}
	ch.bufUsed[vc] += p.size
	d.peakBuf.Set(int64(ch.bufUsed[vc]))
	d.release(p) // cut-through: upstream space frees as we claim downstream
	p.hold = ch
	p.holdVC = vc
	p.vc = vc
	start := now
	if ch.busyUntil > start {
		start = ch.busyUntil
	}
	ser := serialize(p.size, d.cfg.LinkBandwidth)
	ch.busyUntil = start + ser
	arrive := start + ser + d.cfg.LinkLatency + d.cfg.RouterLatency
	d.engine.ScheduleAt(arrive, sim.PrioLink, func(any) {
		p.at = ch.to
		d.tryForward(p)
	}, nil)
}

// release frees the buffer p occupies and hands the freed credits to
// waiters of that virtual channel in FIFO order.
func (d *DetailedNetwork) release(p *dpacket) {
	ch := p.hold
	if ch == nil {
		return
	}
	vc := p.holdVC
	p.hold = nil
	ch.bufUsed[vc] -= p.size
	for len(ch.waiting[vc]) > 0 {
		w := ch.waiting[vc][0]
		if ch.bufUsed[vc]+w.size > d.bufBytes {
			break
		}
		ch.waiting[vc] = ch.waiting[vc][1:]
		d.transmit(w, ch, vc)
	}
}

// deliver completes a packet at its destination.
func (d *DetailedNetwork) deliver(p *dpacket) {
	d.packets.Inc()
	if !p.last {
		return
	}
	d.messages.Inc()
	d.bytes.Add(uint64(p.msgSize))
	d.msgLat.Observe(uint64(d.engine.Now() - p.sentAt))
	nic := d.nics[p.dst]
	if nic.recv != nil {
		nic.recv(p.src, p.msgSize, p.payload)
	}
}

// DetailedNIC mirrors the fast model's NIC API.
type DetailedNIC struct {
	net    *DetailedNetwork
	node   int
	freeAt sim.Time
	recv   func(src, size int, payload any)
}

// Node returns the NIC's node id.
func (nc *DetailedNIC) Node() int { return nc.node }

// SetReceiver installs the message-delivery callback.
func (nc *DetailedNIC) SetReceiver(fn func(src, size int, payload any)) { nc.recv = fn }

// SendTimed mirrors NIC.SendTimed: injection-bandwidth-limited
// segmentation into the fabric, returning the time the last byte is
// injected. The source queue is unbounded (the standard open-loop
// assumption); bounded buffers begin at the first router.
func (nc *DetailedNIC) SendTimed(dst, size int, payload any) sim.Time {
	d := nc.net
	now := d.engine.Now()
	size = max(size, 1)
	injectAt := max(now, nc.freeAt)
	srcRouter := d.topo.RouterOf(nc.node)
	for remaining := size; remaining > 0; {
		pk := min(remaining, d.cfg.MaxPacketBytes)
		remaining -= pk
		p := &dpacket{
			src: nc.node, dst: dst, size: pk,
			last: remaining == 0, sentAt: now, msgSize: size,
		}
		if p.last {
			p.payload = payload
		}
		injectAt += serialize(pk, d.cfg.InjectionBandwidth)
		at := injectAt + d.cfg.LinkLatency
		if nc.node == dst {
			d.engine.ScheduleAt(at, sim.PrioLink, func(any) { d.deliver(p) }, nil)
			continue
		}
		d.engine.ScheduleAt(at, sim.PrioLink, func(any) {
			p.at = srcRouter
			d.tryForward(p)
		}, nil)
	}
	nc.freeAt = injectAt
	return injectAt
}
