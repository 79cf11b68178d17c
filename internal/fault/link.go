package fault

import (
	"fmt"
	"math"

	"sst/internal/sim"
)

// LinkFaults configures the per-send fault probabilities of one link. The
// three faults are evaluated independently per payload, in a fixed order
// (drop, then corrupt, then delay) so the random-stream consumption — and
// therefore the whole trace — is reproducible.
type LinkFaults struct {
	// DropP is the probability a payload is silently discarded.
	DropP float64
	// CorruptP is the probability a payload is rewritten in flight (see
	// Corrupted and the integer bit-flip rule).
	CorruptP float64
	// DelayP is the probability a payload is delivered late by a uniform
	// extra delay in (0, MaxDelay].
	DelayP float64
	// MaxDelay bounds the injected extra delay; required when DelayP > 0.
	MaxDelay sim.Time
	// Record enables the per-direction fault trace (off by default: a
	// long simulation's trace is unbounded).
	Record bool
}

// Validate checks probabilities and delay bounds.
func (f LinkFaults) Validate() error {
	for _, p := range []struct {
		name string
		v    float64
	}{{"DropP", f.DropP}, {"CorruptP", f.CorruptP}, {"DelayP", f.DelayP}} {
		if math.IsNaN(p.v) || p.v < 0 || p.v > 1 {
			return fmt.Errorf("fault: %s = %v out of [0, 1]", p.name, p.v)
		}
	}
	if f.DelayP > 0 && f.MaxDelay <= 0 {
		return fmt.Errorf("fault: DelayP %v needs a positive MaxDelay", f.DelayP)
	}
	return nil
}

// Corrupted wraps a payload the injector could not corrupt in place.
// Integer payloads (the common case in tests and control messages) get a
// deterministic bit flipped instead and arrive as their own type.
type Corrupted struct {
	// Payload is the original payload.
	Payload any
}

// linkDir is one direction's injector state, owned by the engine that owns
// the sending port — the two directions of a cross-rank link live on
// different ranks, so they must not share an RNG or counters.
type linkDir struct {
	rng      *sim.RNG
	now      func() sim.Time // sending side's clock, for trace timestamps
	target   string
	record   bool
	faults   uint64 // per-target fault ordinal, shared across kinds
	sent     uint64
	drops    uint64
	corrupts uint64
	delays   uint64
	trace    Trace
}

// LinkInjector is the installed fault instrumentation of one link.
type LinkInjector struct {
	link *sim.Link
	cfg  LinkFaults
	a, b *linkDir // indexed by sending port
}

// InjectLink installs seeded fault injection on a link. The link must not
// already carry an interceptor. Faults are evaluated on the sending side,
// per direction, from streams derived as StreamSeed(seed, name+".a->") and
// (…".b->"), so results are independent of how the model is partitioned
// across ranks.
func InjectLink(l *sim.Link, seed uint64, cfg LinkFaults) (*LinkInjector, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if l.Intercepted() {
		return nil, fmt.Errorf("fault: link %q already has an interceptor", l.Name())
	}
	pa, _ := l.Ports()
	clock := l.Engine().Now
	inj := &LinkInjector{
		link: l,
		cfg:  cfg,
		a:    newLinkDir(seed, l.Name()+".a->", cfg.Record, clock),
		b:    newLinkDir(seed, l.Name()+".b->", cfg.Record, clock),
	}
	l.SetIntercept(func(from *sim.Port, delay sim.Time, payload any) (sim.Time, any, bool) {
		d := inj.b
		if from == pa {
			d = inj.a
		}
		return inj.apply(d, delay, payload)
	})
	if l.Engine().SnapshotsEnabled() {
		l.Engine().RegisterCheckpoint("fault:"+l.Name(), inj)
	}
	return inj, nil
}

// SetClocks overrides the clock each direction stamps trace events with.
// Both default to the link's home engine, which is correct for local links;
// a cross-rank link built by internal/par has its two directions running on
// different engines, so callers there must point each direction at its own
// rank's clock (reading the home engine's from the far rank is a data
// race). Nil leaves a direction unchanged.
func (inj *LinkInjector) SetClocks(a, b func() sim.Time) {
	if a != nil {
		inj.a.now = a
	}
	if b != nil {
		inj.b.now = b
	}
}

func newLinkDir(seed uint64, target string, record bool, now func() sim.Time) *linkDir {
	return &linkDir{rng: NewStream(seed, target), target: target, record: record, now: now}
}

// apply runs the drop/corrupt/delay decision chain for one send.
func (inj *LinkInjector) apply(d *linkDir, delay sim.Time, payload any) (sim.Time, any, bool) {
	d.sent++
	if inj.cfg.DropP > 0 && d.rng.Bool(inj.cfg.DropP) {
		d.drops++
		d.log(Drop)
		return 0, nil, false
	}
	if inj.cfg.CorruptP > 0 && d.rng.Bool(inj.cfg.CorruptP) {
		d.corrupts++
		d.log(Corrupt)
		payload = corrupt(payload, d.rng)
	}
	if inj.cfg.DelayP > 0 && d.rng.Bool(inj.cfg.DelayP) {
		d.delays++
		d.log(Delay)
		delay += 1 + sim.Time(d.rng.Uint64n(uint64(inj.cfg.MaxDelay)))
	}
	return delay, payload, true
}

func (d *linkDir) log(k Kind) {
	d.faults++
	if d.record {
		d.trace = append(d.trace, Event{At: d.now(), Kind: k, Target: d.target, Seq: d.faults})
	}
}

// corrupt rewrites a payload deterministically: integers get one random
// bit flipped (staying typed, so receivers that type-assert keep working);
// anything else is wrapped in Corrupted.
func corrupt(payload any, rng *sim.RNG) any {
	switch v := payload.(type) {
	case int:
		return v ^ (1 << rng.Uint64n(31))
	case int64:
		return v ^ (1 << rng.Uint64n(63))
	case uint64:
		return v ^ (1 << rng.Uint64n(64))
	case uint32:
		return v ^ (1 << rng.Uint64n(32))
	default:
		return Corrupted{Payload: payload}
	}
}

// TraceA returns the fault trace for sends leaving port a (nil unless
// LinkFaults.Record was set).
func (inj *LinkInjector) TraceA() Trace { return inj.a.trace }
