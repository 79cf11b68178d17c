package noc

import (
	"cmp"
	"fmt"
	"math"
	"slices"

	"sst/internal/par"
	"sst/internal/sim"
	"sst/internal/stats"
)

// NetConfig sets the physical parameters of a network.
type NetConfig struct {
	// LinkBandwidth is router-to-router bandwidth, bytes/s.
	LinkBandwidth float64
	// LinkLatency is the wire/pipeline latency per hop.
	LinkLatency sim.Time
	// RouterLatency is the per-hop arbitration/switching delay.
	RouterLatency sim.Time
	// InjectionBandwidth is the node-to-router (NIC) bandwidth, bytes/s.
	// This is the knob the bandwidth-degradation study scales down.
	InjectionBandwidth float64
	// MaxPacketBytes segments messages; 0 defaults to 4 KiB.
	MaxPacketBytes int
}

// Validate fills defaults and checks ranges.
func (c *NetConfig) Validate() error {
	if c.LinkBandwidth <= 0 || c.InjectionBandwidth <= 0 {
		return fmt.Errorf("noc: bandwidths must be positive")
	}
	if c.MaxPacketBytes == 0 {
		c.MaxPacketBytes = 4 << 10
	}
	if c.MaxPacketBytes < 64 {
		return fmt.Errorf("noc: packet size %d too small", c.MaxPacketBytes)
	}
	return nil
}

// DefaultConfig resembles a mid-2000s MPP interconnect: 3.2 GB/s links,
// 100 ns hop latency.
func DefaultConfig() NetConfig {
	return NetConfig{
		LinkBandwidth:      3.2e9,
		LinkLatency:        100 * sim.Nanosecond,
		RouterLatency:      50 * sim.Nanosecond,
		InjectionBandwidth: 3.2e9,
		MaxPacketBytes:     4 << 10,
	}
}

// packet is one wormhole-approximated transfer unit. Exactly one pending
// event references a packet at any time: it is the event payload itself on
// one rank and travels by value across ranks. A packet is recycled through
// its rank's free list once delivered or copied onto another rank.
type packet struct {
	src, dst int
	size     int // this packet's bytes
	msgSize  int // whole message's bytes (reported on the last packet)
	last     bool
	payload  any
	sentAt   sim.Time
	hops     int
	at       int // router the packet's next event runs at; -1 delivers it (loopback)
}

// dlink is a directed link's serialization state, owned by the rank of its
// source router. Its arrivals at the next router leave in freeAt order, a
// constant latency after serialization, so they ride the link's own lane.
type dlink struct {
	freeAt sim.Time
	bytes  uint64
	lane   sim.Lane
}

// outLink is one of a router's outgoing directed links: the router it
// leads to, its state and, when the next router lives on another rank,
// the sending port of the rank channel a packet crosses on.
type outLink struct {
	next int
	link *dlink
	xmit *sim.Port
}

// deliverHop is a next-hop table entry that delivers to the router's NIC.
const deliverHop = math.MaxUint16

// maxNextHop bounds the next-hop table's entries, one per (router, node),
// at 128 MiB.
const maxNextHop = 1 << 26

// Network is the analytic interconnect: topology, routers, FIFO links with
// unbounded queues, and NICs. It runs on one engine (NewNetwork) or with its
// routers partitioned across the ranks of a par.Runner
// (NewPartitionedNetwork); both run the same hop, deliver and segmentation
// code, and a packet crossing a partition boundary travels through the
// runner's deterministic mailboxes. All in-fabric work is scheduled through
// one sim.EventSet per rank, and each rank's checkpoint writes its NICs'
// uncut packets among the set's events, so on snapshot-enabled engines
// in-flight packets are plain data and the network checkpoints at any rank
// count. Every NIC and every directed link is a monotone producer — a NIC
// injects at max(now, freeAt), a link delivers at freeAt plus a constant
// latency — so each schedules on its own sim.Lane: a link through the
// rank's set, a NIC under sequence numbers reserved at send time.
type Network struct {
	name string
	topo Topology
	cfg  NetConfig
	part []int // router -> rank

	// links[a] lists router a's outgoing links in topology order.
	links [][]outLink
	// nextHop[r*nodes+d] is Route(r, d) precomputed: the index into
	// links[r] of the link toward node d, or deliverHop.
	nextHop []uint16
	nodes   int
	nics    []*NIC
	ranks   []*netRank
	// injFull and linkFull are a full-size packet's injection and link
	// serialization.
	injFull, linkFull sim.Time
}

// netRank is one rank's slice of the network: its engine, its pending
// fabric events and every piece of link, NIC and statistics state that
// engine mutates. It is the rank's checkpoint owner (see checkpoint.go).
type netRank struct {
	net      *Network
	eng      *sim.Engine
	evs      *sim.EventSet
	label    string    // trace label of the rank's fabric events
	links    []*dlink  // directed links whose source router lives here
	nics     []*NIC    // NICs homed here, ascending node id
	free     []*packet // recycled packets
	uncut    int       // packets reserved by the rank's NICs and not yet injected
	held     []heldMsg // SaveState's buffer, reused by every save
	reg      *stats.Registry
	messages *stats.Counter
	bytes    *stats.Counter
	msgLat   *stats.Histogram
}

// NewNetwork builds the network on a single engine. The scope argument is
// unused: the network keeps its statistics with its checkpoint state.
func NewNetwork(engine *sim.Engine, name string, topo Topology, cfg NetConfig, _ *stats.Scope) (*Network, error) {
	return newNetwork(name, topo, cfg, []*sim.Engine{engine}, make([]int, topo.NumRouters()))
}

// NewPartitionedNetwork builds the network across the runner's ranks.
// partition maps each router to a rank (nil partitions round-robin); a
// node's NIC lives on its router's rank, and traffic generators must send
// from that rank's engine. The per-hop latency (link + router) is the
// cross-rank lookahead: a packet leaving rank A can never affect rank B
// sooner. On a snapshot-enabled runner (par.Runner.EnableSnapshots before
// this call) every rank's slice registers as checkpoint owner "dnoc".
func NewPartitionedNetwork(runner *par.Runner, topo Topology, cfg NetConfig, partition func(router int) int) (*Network, error) {
	hopLat := cfg.LinkLatency + cfg.RouterLatency
	if hopLat == 0 {
		return nil, fmt.Errorf("noc: zero per-hop latency leaves no lookahead")
	}
	nranks := runner.NumRanks()
	if partition == nil {
		partition = func(r int) int { return r % nranks }
	}
	part := make([]int, topo.NumRouters())
	for r := range part {
		if part[r] = partition(r); part[r] < 0 || part[r] >= nranks {
			return nil, fmt.Errorf("noc: router %d partitioned to invalid rank %d", r, part[r])
		}
	}
	engines := make([]*sim.Engine, nranks)
	for i := range engines {
		engines[i] = runner.Rank(i).Engine()
	}
	n, err := newNetwork("dnoc", topo, cfg, engines, part)
	if err != nil {
		return nil, err
	}
	// One mailbox channel per ordered rank pair that any link crosses; only
	// a→b traffic uses the a→b channel. Each link that crosses ranks keeps
	// its channel's sending port.
	xmit := make([][]*sim.Port, nranks)
	for a := range xmit {
		xmit[a] = make([]*sim.Port, nranks)
	}
	for _, l := range topo.Links() {
		for _, ab := range [2][2]int{{part[l[0]], part[l[1]]}, {part[l[1]], part[l[0]]}} {
			a, b := ab[0], ab[1]
			if a == b || xmit[a][b] != nil {
				continue
			}
			pa, pb, err := runner.Connect(fmt.Sprintf("dnoc-%d-%d", a, b), hopLat, a, b)
			if err != nil {
				return nil, err
			}
			pa.SetHandler(func(any) {})
			pb.SetHandler(n.ranks[b].arrive)
			xmit[a][b] = pa
		}
	}
	for r, outs := range n.links {
		for i, o := range outs {
			if a, b := part[r], part[o.next]; a != b {
				outs[i].xmit = xmit[a][b]
			}
		}
	}
	return n, nil
}

// newNetwork builds the network over one engine per rank, with part mapping
// each router to its rank.
func newNetwork(name string, topo Topology, cfg NetConfig, engines []*sim.Engine, part []int) (*Network, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	n := &Network{name: name, topo: topo, cfg: cfg, part: part}
	n.injFull = serialize(cfg.MaxPacketBytes, cfg.InjectionBandwidth)
	n.linkFull = serialize(cfg.MaxPacketBytes, cfg.LinkBandwidth)
	n.ranks = make([]*netRank, len(engines))
	for i, eng := range engines {
		rk := &netRank{net: n, eng: eng, label: fmt.Sprintf("%s.r%d", name, i), reg: stats.NewRegistry()}
		// The set holds the one method value of rk.dispatch every fabric
		// event runs: a method value made per schedule would allocate.
		rk.evs = sim.NewEventSet(eng, rk.label, rk.dispatch)
		sc := rk.reg.Scope(fmt.Sprintf("%s.%d", name, i))
		rk.messages = sc.Counter("messages")
		rk.bytes = sc.Counter("bytes")
		rk.msgLat = sc.Histogram("latency_ps")
		n.ranks[i] = rk
	}
	n.links = make([][]outLink, topo.NumRouters())
	for _, l := range topo.Links() {
		for _, ab := range [2][2]int{{l[0], l[1]}, {l[1], l[0]}} {
			rk := n.ranks[part[ab[0]]]
			dl := &dlink{}
			dl.lane.Init(rk.eng, sim.PrioLink, rk.label)
			n.links[ab[0]] = append(n.links[ab[0]], outLink{next: ab[1], link: dl})
			rk.links = append(rk.links, dl)
		}
	}
	if err := n.buildNextHop(); err != nil {
		return nil, err
	}
	n.nics = make([]*NIC, topo.NumNodes())
	for i := range n.nics {
		nc := &NIC{net: n, node: i, rank: part[topo.RouterOf(i)]}
		rk := n.ranks[nc.rank]
		nc.lane.Init(rk.eng, sim.PrioLink, rk.label)
		nc.inject = nc.injectPacket
		n.nics[i] = nc
		rk.nics = append(rk.nics, nc)
	}
	for _, rk := range n.ranks {
		rk.eng.RegisterCheckpoint(name, rk) // no-op without snapshots
	}
	return n, nil
}

// buildNextHop fills the next-hop table from the topology's Route, which
// stays the one source of routing truth. A route to a router with no link
// from the current one is an error here rather than a panic mid-run.
func (n *Network) buildNextHop() error {
	t := n.topo
	nr, nn := t.NumRouters(), t.NumNodes()
	if nr*nn > maxNextHop {
		return fmt.Errorf("noc: topology %s has %d routers and %d nodes, over the %d next-hop entries a network holds",
			t.Name(), nr, nn, maxNextHop)
	}
	n.nodes = nn
	n.nextHop = make([]uint16, nr*nn)
	for r, outs := range n.links {
		if len(outs) >= deliverHop {
			return fmt.Errorf("noc: topology %s router %d has %d links, over %d", t.Name(), r, len(outs), deliverHop-1)
		}
		for d := range nn {
			k := deliverHop
			if nxt := t.Route(r, d); nxt >= 0 {
				if k = slices.IndexFunc(outs, func(o outLink) bool { return o.next == nxt }); k < 0 {
					return fmt.Errorf("noc: topology %s routes %d->%d toward node %d without a link", t.Name(), r, nxt, d)
				}
			}
			n.nextHop[r*nn+d] = uint16(k)
		}
	}
	return nil
}

// Name returns the component name.
func (n *Network) Name() string { return n.name }

// Topology returns the network's topology.
func (n *Network) Topology() Topology { return n.topo }

// Config returns the network configuration.
func (n *Network) Config() NetConfig { return n.cfg }

// NIC returns node i's network interface.
func (n *Network) NIC(i int) *NIC { return n.nics[i] }

// RankOfNode returns the rank a node's NIC lives on.
func (n *Network) RankOfNode(node int) int { return n.nics[node].rank }

// Messages returns the number of messages delivered.
func (n *Network) Messages() uint64 {
	var m uint64
	for _, rk := range n.ranks {
		m += rk.messages.Count()
	}
	return m
}

// BytesDelivered returns total payload bytes delivered.
func (n *Network) BytesDelivered() uint64 {
	var b uint64
	for _, rk := range n.ranks {
		b += rk.bytes.Count()
	}
	return b
}

// MessageLatencyMean returns the average end-to-end message latency (ps).
func (n *Network) MessageLatencyMean() float64 {
	var sum float64
	var cnt uint64
	for _, rk := range n.ranks {
		sum += rk.msgLat.Mean() * float64(rk.msgLat.N())
		cnt += rk.msgLat.N()
	}
	if cnt == 0 {
		return 0
	}
	return sum / float64(cnt)
}

// serialize computes the occupancy of size bytes at bw bytes/s.
func serialize(size int, bw float64) sim.Time {
	t := sim.Time(float64(size) / bw * float64(sim.Second))
	if t == 0 {
		t = 1
	}
	return t
}

// newPacket takes a packet from the rank's free list, or allocates one.
func (rk *netRank) newPacket() *packet {
	if k := len(rk.free) - 1; k >= 0 {
		p := rk.free[k]
		rk.free = rk.free[:k]
		return p
	}
	return new(packet)
}

// recycle returns a packet no event references any more to the free list,
// cleared so it holds no payload and SendTimed need set only what it uses.
func (rk *netRank) recycle(p *packet) {
	*p = packet{}
	rk.free = append(rk.free, p)
}

// dispatch runs one of the rank's fabric events.
func (rk *netRank) dispatch(pl any) {
	p := pl.(*packet)
	if p.at < 0 {
		rk.deliver(p)
		return
	}
	rk.hop(p)
}

// arrive continues a packet that crossed onto this rank.
func (rk *netRank) arrive(payload any) {
	p := rk.newPacket()
	*p = payload.(packet)
	rk.hop(p)
}

// hop forwards a packet from router p.at, which lives on this rank: the
// packet claims the next link in FIFO order and reaches the next router
// after serialization, wire and router latency. The next-hop table's
// deliverHop delivers to the NIC.
func (rk *netRank) hop(p *packet) {
	n := rk.net
	r := p.at
	k := n.nextHop[r*n.nodes+p.dst]
	if k == deliverHop {
		rk.deliver(p)
		return
	}
	o := &n.links[r][k]
	l := o.link
	now := rk.eng.Now()
	start := max(now, l.freeAt)
	ser := n.linkFull
	if p.size != n.cfg.MaxPacketBytes {
		ser = serialize(p.size, n.cfg.LinkBandwidth)
	}
	l.freeAt = start + ser
	l.bytes += uint64(p.size)
	p.hops++
	p.at = o.next
	if o.xmit != nil {
		// The channel's latency is the link+router latency; queueing and
		// serialization ride as extra delay.
		o.xmit.SendDelayed(start+ser-now, *p)
		rk.recycle(p)
		return
	}
	rk.evs.ScheduleOn(&l.lane, l.freeAt+n.cfg.LinkLatency+n.cfg.RouterLatency, p)
}

// deliver hands a packet to its destination NIC, which lives on this rank,
// and recycles it; the last packet completes the message.
func (rk *netRank) deliver(p *packet) {
	if p.last {
		nic := rk.net.nics[p.dst]
		rk.messages.Inc()
		rk.bytes.Add(uint64(p.msgSize))
		rk.msgLat.Observe(uint64(rk.eng.Now() - p.sentAt))
		if nic.recv != nil {
			nic.recv(p.src, p.msgSize, p.payload)
		}
	}
	rk.recycle(p)
}

// NIC is a node's network interface: an injection-bandwidth-limited port
// into the fabric plus a receive callback, homed on its router's rank.
//
// A message is cut into packets as they enter the fabric, not when it is
// sent: SendTimed reserves one engine sequence number per packet and
// queues the message, and only the oldest message's next packet waits on
// the NIC's lane. When that packet's event runs, inject builds it, puts
// the following packet on the lane under its reserved number and forwards
// it. The times and numbers are those of every packet scheduled at send
// time, so dispatch order, Pending and PeakPending are unchanged, while a
// NIC holds one packet and a few message records instead of a packet per
// pending injection.
type NIC struct {
	net    *Network
	node   int
	rank   int
	freeAt sim.Time
	recv   func(src, size int, payload any)
	// lane carries the NIC's packets into the first router (or, for
	// loopback, to delivery), in injection order.
	lane sim.Lane
	// msgs is a ring of the messages not yet wholly injected, oldest at
	// msgs[head], n of them; len(msgs) is zero or a power of two.
	msgs    []nicMsg
	head, n int
	// inject is the lane entries' handler, the method value made once.
	inject sim.Handler
}

// nicMsg is a message whose packets have not all entered the fabric.
type nicMsg struct {
	dst, size int
	payload   any
	sentAt    sim.Time
	off       int      // bytes already cut into packets
	inj       sim.Time // injection end of the bytes cut so far (the start before any)
	seq       uint64   // reserved sequence number of the next packet
}

// nextPacket returns the size of m's next packet and its injection end;
// the packet enters the first router the NIC link latency later.
func (n *Network) nextPacket(m *nicMsg) (pk int, inj sim.Time) {
	pk = min(m.size-m.off, n.cfg.MaxPacketBytes)
	if pk == n.cfg.MaxPacketBytes {
		return pk, m.inj + n.injFull
	}
	return pk, m.inj + serialize(pk, n.cfg.InjectionBandwidth)
}

// Node returns the NIC's node id.
func (nc *NIC) Node() int { return nc.node }

// SetReceiver installs the message-delivery callback, which runs on the
// NIC's rank. Messages between the same (src,dst) pair arrive in send order
// (deterministic routing + FIFO links).
func (nc *NIC) SetReceiver(fn func(src, size int, payload any)) { nc.recv = fn }

// SendTimed transmits size payload bytes to dst, segmented into packets
// that enter the fabric at the injection bandwidth, and returns the time
// the last byte is injected (the send buffer is free). The payload is
// delivered to dst's receiver when the last packet arrives. It must run
// from an event on the NIC's rank; senders that need a wake-up schedule it
// at the returned time through their own events.
func (nc *NIC) SendTimed(dst, size int, payload any) sim.Time {
	n := nc.net
	if dst < 0 || dst >= len(n.nics) {
		panic(fmt.Sprintf("noc: send to invalid node %d", dst))
	}
	rk := n.ranks[nc.rank]
	now := rk.eng.Now()
	size = max(size, 1)
	start := max(now, nc.freeAt)
	// Every packet but a short last one is full size, so the injection end
	// is one product and a sum, exactly the per-packet sum.
	full, rest := size/n.cfg.MaxPacketBytes, size%n.cfg.MaxPacketBytes
	k, end := full, start+sim.Time(full)*n.injFull
	if rest > 0 {
		k, end = k+1, end+serialize(rest, n.cfg.InjectionBandwidth)
	}
	if nc.n == len(nc.msgs) {
		nc.grow()
	}
	nc.msgs[(nc.head+nc.n)&(len(nc.msgs)-1)] = nicMsg{
		dst: dst, size: size, payload: payload, sentAt: now, inj: start, seq: rk.eng.ReserveSeqs(k),
	}
	nc.n++
	rk.uncut += k
	if nc.n == 1 {
		nc.queue()
	}
	nc.freeAt = end
	return end
}

// grow doubles the message ring, or gives the NIC its first.
func (nc *NIC) grow() {
	r := make([]nicMsg, max(4, 2*len(nc.msgs)))
	k := copy(r, nc.msgs[nc.head:])
	copy(r[k:], nc.msgs[:nc.head])
	nc.msgs, nc.head = r, 0
}

// queue puts the oldest message's next packet on the lane under its
// reserved sequence number.
func (nc *NIC) queue() {
	m := &nc.msgs[nc.head]
	_, inj := nc.net.nextPacket(m)
	nc.lane.ScheduleReserved(inj+nc.net.cfg.LinkLatency, m.seq, nc.inject, nil)
}

// injectPacket is the NIC lane's handler: the oldest message's next packet
// enters the fabric. It cuts the packet, queues the one after it (the
// message's next, or the next message's first) and forwards the packet as
// any fabric event would be.
func (nc *NIC) injectPacket(any) {
	rk := nc.net.ranks[nc.rank]
	m := &nc.msgs[nc.head]
	p := rk.newPacket()
	nc.cut(m, p)
	rk.uncut--
	if p.last {
		*m = nicMsg{}
		nc.head = (nc.head + 1) & (len(nc.msgs) - 1)
		nc.n--
	}
	if nc.n != 0 {
		nc.queue()
	}
	rk.dispatch(p)
}

// cut fills p, a cleared packet, with m's next packet, advances m past it
// and returns the packet's injection end. Field by field: a composite
// literal is built in a temporary and block-copied.
func (nc *NIC) cut(m *nicMsg, p *packet) sim.Time {
	n := nc.net
	pk, inj := n.nextPacket(m)
	p.src, p.dst, p.size, p.msgSize, p.sentAt, p.at = nc.node, m.dst, pk, m.size, m.sentAt, n.topo.RouterOf(nc.node)
	if nc.node == m.dst {
		p.at = -1 // loopback skips the fabric
	}
	m.off, m.inj = m.off+pk, inj
	m.seq++
	p.last, p.payload = m.off == m.size, nil
	if p.last {
		p.payload = m.payload
	}
	return inj
}

// heldMsg is a message with uncut packets, as SaveState lists them.
type heldMsg struct {
	nc *NIC
	m  *nicMsg
}

// heldPackets returns the rank's uncut packets one call at a time, in
// sequence order, as the pending packet events they stood for when every
// packet was scheduled at send time; each reuses one packet. A message's
// packets hold consecutive reserved numbers, so ordering the messages by
// their next number orders the packets.
func (rk *netRank) heldPackets() func() sim.HeldEvent {
	msgs := rk.held[:0]
	for _, nc := range rk.nics {
		for j := 0; j < nc.n; j++ {
			msgs = append(msgs, heldMsg{nc, &nc.msgs[(nc.head+j)&(len(nc.msgs)-1)]})
		}
	}
	slices.SortFunc(msgs, func(a, b heldMsg) int { return cmp.Compare(a.m.seq, b.m.seq) })
	rk.held = msgs
	n := rk.net
	var m nicMsg
	var nc *NIC
	p := new(packet)
	return func() sim.HeldEvent {
		if m.off == m.size {
			nc, m, msgs = msgs[0].nc, *msgs[0].m, msgs[1:]
		}
		seq := m.seq
		inj := nc.cut(&m, p)
		return sim.HeldEvent{Seq: seq, At: inj + n.cfg.LinkLatency, Prio: sim.PrioLink, Payload: p}
	}
}

// Send is SendTimed with an optional callback: onSent fires when the last
// byte has been injected. The callback is an unowned event, so a snapshot
// taken while one is pending is rejected.
func (nc *NIC) Send(dst, size int, payload any, onSent func()) {
	doneAt := nc.SendTimed(dst, size, payload)
	if onSent != nil {
		nc.net.ranks[nc.rank].eng.ScheduleAt(doneAt, sim.PrioLink, func(any) { onSent() }, nil)
	}
}
