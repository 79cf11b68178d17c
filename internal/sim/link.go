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
	delay := l.latency + extra
	if l.intercept != nil {
		var ok bool
		if delay, payload, ok = l.intercept(p, delay, payload); !ok {
			return // dropped by the interceptor
		}
		if delay < l.latency {
			// An interceptor may add delay but never subtract below the
			// link latency: the latency is the parallel runtime's
			// conservative lookahead and shortening it would let a
			// payload outrun the synchronization window.
			delay = l.latency
		}
	}
	if l.deliver != nil {
		l.deliver(p, delay, payload)
		return
	}
	peer := p.peer
	if peer.handler == nil {
		panic(fmt.Sprintf("sim: port %q has no handler (send from %q)", peer.name, p.name))
	}
	if l.inflight != nil {
		l.trackSend(p, delay, payload)
		return
	}
	l.engine.ScheduleLabeled(delay, peer.prio, l.name, peer.handler, payload)
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

	// intercept, when installed (internal/fault), inspects every payload
	// before delivery and may delay, rewrite or drop it. It composes with
	// deliver: interception happens first, on the sending side, so it
	// behaves identically for local and cross-rank links.
	intercept LinkInterceptor

	// inflight, when allocated by trackForSnapshots, records local
	// deliveries still pending by their event sequence so the link can
	// carry them across a checkpoint (see checkpoint.go). Nil unless the
	// engine has snapshots enabled.
	inflight map[uint64]linkEvent
}

// LinkInterceptor inspects a send in flight: it receives the sending port,
// the total delay (link latency plus any sender-added extra) and the
// payload, and returns the possibly-modified delay and payload plus whether
// to deliver at all. Returned delays below the link latency are clamped up
// to it to preserve the parallel runtime's lookahead. Interceptors run on
// the sending side's engine, in deterministic event order.
type LinkInterceptor func(from *Port, delay Time, payload any) (Time, any, bool)

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

// SetIntercept installs (or, with nil, removes) a fault interceptor. At
// most one interceptor is active per link; internal/fault composes multiple
// fault kinds inside a single interceptor.
func (l *Link) SetIntercept(fn LinkInterceptor) { l.intercept = fn }

// Intercepted reports whether a fault interceptor is installed.
func (l *Link) Intercepted() bool { return l.intercept != nil }

// Interceptor returns the installed interceptor, or nil. Observability
// layers use it to wrap an existing fault interceptor with counters instead
// of displacing it.
func (l *Link) Interceptor() LinkInterceptor { return l.intercept }

// Sized is implemented by payloads that know their wire size; link byte
// counters consult it. Payloads without it count as zero bytes.
type Sized interface {
	// PayloadBytes returns the payload's size on the wire, in bytes.
	PayloadBytes() int
}

// Ports returns the two endpoints of the link.
func (l *Link) Ports() (*Port, *Port) { return &l.a, &l.b }
