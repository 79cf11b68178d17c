package sim

import (
	"fmt"
	"sort"
)

// Component is anything that participates in a simulation. Components wire
// themselves to clocks and links at construction time; the interface exists
// so the Simulation container can enumerate them for setup, teardown and
// statistics.
type Component interface {
	// Name returns the component's unique instance name.
	Name() string
}

// Finisher is implemented by components that need a callback when the
// simulation ends (e.g. to flush statistics).
type Finisher interface {
	Finish()
}

// Simulation owns an engine, its clocks and a set of named components. It
// is the sequential top-level container; internal/par builds the parallel
// equivalent out of several of these.
type Simulation struct {
	engine *Engine
	clocks map[Hz]*Clock
	comps  map[string]Component
	order  []Component // insertion order, for deterministic Finish
	sorted []Component // name-sorted cache for Components; nil after Add
	links  []*Link
}

// New creates an empty simulation at time zero.
func New() *Simulation {
	return &Simulation{
		engine: NewEngine(),
		clocks: make(map[Hz]*Clock),
		comps:  make(map[string]Component),
	}
}

// Engine returns the simulation's event engine.
func (s *Simulation) Engine() *Engine { return s.engine }

// Now returns the current simulated time.
func (s *Simulation) Now() Time { return s.engine.Now() }

// Clock returns the shared clock at the given frequency, creating it on
// first use. Components at the same frequency share one clock so that a
// tick costs one event regardless of component count.
func (s *Simulation) Clock(freq Hz) *Clock {
	c, ok := s.clocks[freq]
	if !ok {
		c = NewClock(s.engine, freq)
		s.clocks[freq] = c
		if s.engine.SnapshotsEnabled() {
			s.engine.RegisterCheckpoint(c.label, c)
		}
	}
	return c
}

// Add registers a component. Names must be unique; collisions are a
// configuration error and panic during model construction.
func (s *Simulation) Add(c Component) {
	name := c.Name()
	if _, dup := s.comps[name]; dup {
		panic(fmt.Sprintf("sim: duplicate component name %q", name))
	}
	s.comps[name] = c
	s.order = append(s.order, c)
	s.sorted = nil
	if ck, ok := c.(Checkpointable); ok && s.engine.SnapshotsEnabled() {
		s.engine.RegisterCheckpoint("comp:"+name, ck)
	}
}

// Components returns all components sorted by name. The sort is computed
// once and cached until the next Add; callers iterate the returned slice
// but must not modify it.
func (s *Simulation) Components() []Component {
	if s.sorted == nil && len(s.comps) > 0 {
		out := make([]Component, 0, len(s.comps))
		for _, c := range s.comps {
			out = append(out, c)
		}
		sort.Slice(out, func(i, j int) bool { return out[i].Name() < out[j].Name() })
		s.sorted = out
	}
	return s.sorted
}

// Connect creates a link between two components' ports and records it.
// When the engine has snapshots enabled each port's in-flight deliveries
// go through an EventSet and the link registers as a checkpoint owner.
func (s *Simulation) Connect(name string, latency Time) (*Port, *Port) {
	a, b := Connect(s.engine, name, latency)
	s.links = append(s.links, a.link)
	if s.engine.SnapshotsEnabled() {
		for _, p := range [2]*Port{a, b} {
			peer := p.peer
			p.track = NewEventSet(s.engine, name, func(pl any) { peer.handler(pl) })
		}
		s.engine.RegisterCheckpoint("link:"+name, a.link)
	}
	return a, b
}

// Links returns all links created through the simulation.
func (s *Simulation) Links() []*Link { return s.links }

// Run advances the simulation until the given time, then returns the number
// of events handled.
func (s *Simulation) Run(until Time) uint64 { return s.engine.Run(until) }

// RunAll advances the simulation until no events remain.
func (s *Simulation) RunAll() uint64 { return s.engine.RunAll() }

// Finish invokes Finish on every component that implements Finisher, in the
// order components were added.
func (s *Simulation) Finish() {
	for _, c := range s.order {
		if f, ok := c.(Finisher); ok {
			f.Finish()
		}
	}
}
