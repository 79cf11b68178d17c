package sim

import "fmt"

// Port is one endpoint of a Link. Components send payloads out of their own
// port; the payload arrives at the peer port's handler after the link
// latency.
type Port struct {
	name    string
	link    *Link
	peer    *Port
	handler Handler
	prio    Priority

	// lane carries this port's local sends to the peer, bound on the
	// first one. A plain local link delivers after a constant latency, so
	// its sends arrive in send order (extra delay that breaks the order
	// falls back to the heap; see Lane).
	lane Lane

	// msgs and bytes count this port's sends and their Sized payload
	// bytes. A port sends only from its own engine, so the counters need
	// no lock even when the link crosses ranks.
	msgs, bytes uint64

	// track, set by Simulation.Connect on a snapshot-enabled engine, holds
	// this port's local deliveries still in flight to the peer so the link
	// can carry them across a checkpoint. Nil otherwise.
	track *EventSet
}

// Name returns the port's diagnostic name.
func (p *Port) Name() string { return p.name }

// Link returns the link this port belongs to, or nil when unconnected.
func (p *Port) Link() *Link { return p.link }

// Deliver invokes the port's handler directly at the current time. It is
// used by the parallel runtime when draining cross-rank mailboxes; normal
// components use Send on the peer instead.
func (p *Port) Deliver(payload any) {
	if p.handler == nil {
		panic(fmt.Sprintf("sim: port %q has no handler", p.name))
	}
	p.handler(payload)
}

// SetHandler installs the function invoked when a payload arrives at this
// port. It must be set before the peer sends.
func (p *Port) SetHandler(h Handler) { p.handler = h }

// Latency returns the latency of the attached link.
func (p *Port) Latency() Time {
	if p.link == nil {
		return 0
	}
	return p.link.latency
}

// Send delivers payload to the peer port after the link latency.
func (p *Port) Send(payload any) { p.SendDelayed(0, payload) }

// SendDelayed delivers payload to the peer port after the link latency plus
// extra time (modelling serialization or queuing at the sender). extra must
// be non-negative. Time is unsigned, so a caller that computes a negative
// duration (a - b with b > a) wraps to an enormous value; left unchecked it
// would schedule delivery astronomically far in the future — or, after the
// latency addition overflows, into the past, where the engine's causality
// check would only catch it far from the offending component. Wrapped
// values all have the top bit set (a legitimate extra below ~53 days does
// not), so they are rejected here, where the port and link can still be
// named.
func (p *Port) SendDelayed(extra Time, payload any) {
	l := p.link
	if l == nil {
		panic(fmt.Sprintf("sim: send on unconnected port %q", p.name))
	}
	if extra > TimeInfinity/2 {
		panic(fmt.Sprintf("sim: negative send delay %v (wrapped to %d ps) on port %q (link %q)",
			int64(extra), uint64(extra), p.name, l.name))
	}
	p.msgs++
	if sz, ok := payload.(Sized); ok {
		p.bytes += uint64(sz.PayloadBytes())
	}
	delay := l.latency + extra
	if l.deliver != nil {
		l.deliver(p, delay, payload)
		return
	}
	peer := p.peer
	if peer.handler == nil {
		panic(fmt.Sprintf("sim: port %q has no handler (send from %q)", peer.name, p.name))
	}
	if p.track != nil {
		p.track.ScheduleAt(l.engine.after(delay), peer.prio, payload)
		return
	}
	if p.lane.eng == nil {
		p.lane.Init(l.engine, peer.prio, l.name)
	}
	p.lane.Schedule(delay, peer.handler, payload)
}

// Link is a bidirectional, latency-bearing connection between two ports.
// Nonzero latency is what allows the parallel engine to run the two sides
// in different ranks: the latency is conservative lookahead.
type Link struct {
	name    string
	engine  *Engine
	latency Time
	a, b    Port

	// deliver, when installed by the parallel runtime, routes sends
	// through rank mailboxes instead of the local engine.
	deliver func(from *Port, delay Time, payload any)
}

// Connect creates a link with the given latency and returns its two ports.
func Connect(engine *Engine, name string, latency Time) (*Port, *Port) {
	l := &Link{name: name, engine: engine, latency: latency}
	l.a = Port{name: name + ".a", link: l, prio: PrioLink}
	l.b = Port{name: name + ".b", link: l, prio: PrioLink}
	l.a.peer = &l.b
	l.b.peer = &l.a
	return &l.a, &l.b
}

// Name returns the link's diagnostic name.
func (l *Link) Name() string { return l.name }

// Engine returns the engine the link was created on. For cross-rank links
// built by internal/par this is the home rank's engine only; the far side
// runs on a different engine and must not read this one's clock.
func (l *Link) Engine() *Engine { return l.engine }

// Latency returns the link's one-way latency.
func (l *Link) Latency() Time { return l.latency }

// SetDeliver installs a custom delivery function. Used by internal/par to
// route cross-rank traffic; payload delivery order remains deterministic
// because the parallel runtime merges by (time, source rank, sequence).
func (l *Link) SetDeliver(fn func(from *Port, delay Time, payload any)) { l.deliver = fn }

// Sized is implemented by payloads that know their wire size; link byte
// counters consult it. Payloads without it count as zero bytes.
type Sized interface {
	// PayloadBytes returns the payload's size on the wire, in bytes.
	PayloadBytes() int
}

// Traffic returns the messages sent over the link in both directions and
// their Sized payload bytes, counted since the link was made. Read it only
// while the link's engines are stopped.
func (l *Link) Traffic() (msgs, bytes uint64) {
	return l.a.msgs + l.b.msgs, l.a.bytes + l.b.bytes
}

// Ports returns the two endpoints of the link.
func (l *Link) Ports() (*Port, *Port) { return &l.a, &l.b }
