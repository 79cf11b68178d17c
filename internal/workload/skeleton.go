package workload

import (
	"fmt"
	"math/bits"

	"sst/internal/sim"
)

// Skeleton applications: per-rank scripts of compute/send/recv steps
// executed against a network fabric. This is the classic skeleton-app
// proxy — accurate inter-processor communication with synthetic
// computation — used for the injection-bandwidth degradation study. Apps
// are fabric-agnostic: the same scripts run over the fast noc.Network or
// the detailed credit-based noc.DetailedNetwork.

// sopKind enumerates script operations.
type sopKind uint8

const (
	sopCompute sopKind = iota
	sopSend
	sopRecv
)

// sop is one script step.
type sop struct {
	kind  sopKind
	dur   sim.Time // compute
	peer  int      // send dst / recv src
	bytes int      // send size
}

// Script is one rank's program.
type Script struct {
	ops []sop
}

// Compute appends a computation phase of the given duration.
func (s *Script) Compute(d sim.Time) { s.ops = append(s.ops, sop{kind: sopCompute, dur: d}) }

// Send appends a blocking-until-injected send.
func (s *Script) Send(dst, bytes int) {
	s.ops = append(s.ops, sop{kind: sopSend, peer: dst, bytes: bytes})
}

// Recv appends a blocking receive of the next message from src.
func (s *Script) Recv(src int) { s.ops = append(s.ops, sop{kind: sopRecv, peer: src}) }

// Steps returns the script length.
func (s *Script) Steps() int { return len(s.ops) }

// AllReduce appends a dissemination (Bruck) all-reduce of the given payload
// size: ceil(log2 n) rounds of pairwise exchange; works for any rank count.
func (s *Script) AllReduce(rank, n, bytes int) {
	if n <= 1 {
		return
	}
	for k := 1; k < n; k *= 2 {
		dst := (rank + k) % n
		src := (rank - k + n) % n
		s.Send(dst, bytes)
		s.Recv(src)
	}
}

// rankState executes one rank's script.
type rankState struct {
	app          *App
	id           int
	script       *Script
	pc           int
	waiting      int         // src currently blocked on, or -1
	arrived      map[int]int // unconsumed message count per source
	done         bool
	blockedSince sim.Time
	waitTime     sim.Time
}

// MessagePort is the NIC capability a rank needs: both noc.NIC (on one
// engine or partitioned) and noc.DetailedNIC satisfy it, so skeleton apps
// are fidelity-agnostic. SendTimed reports when injection completes instead
// of calling back, so the app owns the completion wake-up as a
// checkpointable event.
type MessagePort interface {
	SendTimed(dst, size int, payload any) sim.Time
	SetReceiver(fn func(src, size int, payload any))
}

// App runs a set of rank scripts over a network. Build the scripts, call
// Start, then run the engine; onDone fires when every rank's script has
// completed.
type App struct {
	name   string
	engine *sim.Engine
	ports  []MessagePort
	ranks  []*rankState
	live   int
	onDone func()
	start  sim.Time
	finish sim.Time
	// wake owns every pending rank wake-up (compute continuations, timed
	// send completions) as checkpointable events; the payload is the rank
	// index to advance.
	wake *sim.EventSet
}

// NewAppOnPorts wires scripts[i] to ports[i]: one partition's NICs of the
// analytic network, or the detailed network's NICs.
func NewAppOnPorts(engine *sim.Engine, name string, ports []MessagePort, scripts []*Script) (*App, error) {
	if len(ports) != len(scripts) {
		return nil, fmt.Errorf("workload: %d ports for %d scripts", len(ports), len(scripts))
	}
	a := &App{name: name, engine: engine, ports: ports}
	a.wake = sim.NewEventSet(engine, "app:"+name, func(pl any) { a.ranks[pl.(int)].advance() })
	for i, s := range scripts {
		r := &rankState{app: a, id: i, script: s, waiting: -1, arrived: make(map[int]int)}
		a.ranks = append(a.ranks, r)
		ports[i].SetReceiver(func(src, size int, payload any) { r.deliver(src) })
	}
	a.live = len(a.ranks)
	if engine.SnapshotsEnabled() {
		engine.RegisterCheckpoint("app:"+name, a)
	}
	return a, nil
}

// Name returns the app name.
func (a *App) Name() string { return a.name }

// Start launches every rank.
func (a *App) Start(onDone func()) {
	a.onDone = onDone
	a.start = a.engine.Now()
	if a.live == 0 {
		a.finish = a.start
		if onDone != nil {
			onDone()
		}
		return
	}
	for _, r := range a.ranks {
		r.advance()
	}
}

// Done reports whether all ranks completed.
func (a *App) Done() bool { return a.live == 0 }

// Elapsed returns wall-clock simulated runtime (valid after completion).
func (a *App) Elapsed() sim.Time { return a.finish - a.start }

// MaxWaitTime returns the largest per-rank blocked-in-recv time, a
// communication-boundedness indicator.
func (a *App) MaxWaitTime() sim.Time {
	var m sim.Time
	for _, r := range a.ranks {
		if r.waitTime > m {
			m = r.waitTime
		}
	}
	return m
}

// deliver records an arrival and unblocks a matching recv.
func (r *rankState) deliver(src int) {
	r.arrived[src]++
	if r.waiting == src {
		r.waiting = -1
		r.waitTime += r.app.engine.Now() - r.blockedSince
		r.advance()
	}
}

// advance runs script steps until blocking or completion.
func (r *rankState) advance() {
	if r.done {
		return
	}
	a := r.app
	for r.pc < len(r.script.ops) {
		op := &r.script.ops[r.pc]
		switch op.kind {
		case sopCompute:
			r.pc++
			a.wake.ScheduleAt(a.engine.Now()+op.dur, sim.PrioLink, r.id)
			return
		case sopSend:
			r.pc++
			// Blocking send: wake when injection completes.
			doneAt := a.ports[r.id].SendTimed(op.peer, op.bytes, nil)
			a.wake.ScheduleAt(doneAt, sim.PrioLink, r.id)
			return
		case sopRecv:
			if r.arrived[op.peer] > 0 {
				r.arrived[op.peer]--
				r.pc++
				continue
			}
			r.waiting = op.peer
			r.blockedSince = a.engine.Now()
			return
		}
	}
	r.done = true
	a.live--
	if a.live == 0 {
		a.finish = a.engine.Now()
		if a.onDone != nil {
			done := a.onDone
			a.onDone = nil
			done()
		}
	}
}

// --- Application communication profiles (Fig. 9 proxies) ---

// CommProfile parameterizes a proxy's per-timestep communication.
type CommProfile struct {
	Name string
	// Steps is the number of timesteps.
	Steps int
	// ComputePerStep is the per-rank computation between exchanges.
	ComputePerStep sim.Time
	// HaloBytes is the per-neighbor message size (0 disables halo).
	HaloBytes int
	// Neighbors is how many ring neighbors to exchange with.
	Neighbors int
	// SmallMsgs is the count of small latency-bound messages per step.
	SmallMsgs int
	// SmallBytes sizes them.
	SmallBytes int
	// AllReduces per step (8-byte payloads).
	AllReduces int
}

// Scripts expands the profile into per-rank scripts for n ranks arranged in
// a ring (neighbor k of rank r is (r±k) mod n). Each script is allocated
// once at its final length: a charon rank holds thousands of steps, and
// growing them by appends made most of a network study's garbage.
func (p CommProfile) Scripts(n int) []*Script {
	scripts := make([]*Script, n)
	for r := 0; r < n; r++ {
		s := &Script{ops: make([]sop, 0, p.Steps*p.opsPerStep(n))}
		for step := 0; step < p.Steps; step++ {
			if p.ComputePerStep > 0 {
				s.Compute(p.ComputePerStep)
			}
			for k := 1; k <= p.Neighbors; k++ {
				if p.HaloBytes > 0 {
					s.Send((r+k)%n, p.HaloBytes)
					s.Send((r-k+n)%n, p.HaloBytes)
				}
			}
			for k := 1; k <= p.Neighbors; k++ {
				if p.HaloBytes > 0 {
					s.Recv((r - k + n) % n)
					s.Recv((r + k) % n)
				}
			}
			for m := 0; m < p.SmallMsgs; m++ {
				peer := (r + 1 + m%(n-1)) % n
				s.Send(peer, p.SmallBytes)
			}
			for m := 0; m < p.SmallMsgs; m++ {
				// Matching receives: each rank receives the same
				// pattern shifted.
				src := (r - 1 - m%(n-1) + n) % n
				s.Recv(src)
			}
			for ar := 0; ar < p.AllReduces; ar++ {
				s.AllReduce(r, n, 8)
			}
		}
		scripts[r] = s
	}
	return scripts
}

// opsPerStep is the number of script steps one timestep appends per rank
// at n ranks; an all-reduce takes ceil(log2 n) send/receive rounds.
func (p CommProfile) opsPerStep(n int) int {
	k := 2 * p.SmallMsgs
	if p.ComputePerStep > 0 {
		k++
	}
	if p.HaloBytes > 0 {
		k += 4 * p.Neighbors
	}
	if n > 1 {
		k += 2 * p.AllReduces * bits.Len(uint(n-1))
	}
	return k
}

// Fig. 9 application proxies. Message profiles follow the paper's
// characterization: CTH and SAGE send large halo messages each step
// (bandwidth-bound); Charon sends many small messages and reductions
// (latency-bound); xNOBEL sits between, with compute available to overlap.
var (
	CTHProfile = CommProfile{
		Name: "cth", Steps: 20, ComputePerStep: 200 * sim.Microsecond,
		HaloBytes: 2 << 20, Neighbors: 2,
	}
	SAGEProfile = CommProfile{
		Name: "sage", Steps: 20, ComputePerStep: 300 * sim.Microsecond,
		HaloBytes: 1 << 20, Neighbors: 2, AllReduces: 1,
	}
	CharonProfile = CommProfile{
		Name: "charon", Steps: 60, ComputePerStep: 150 * sim.Microsecond,
		SmallMsgs: 24, SmallBytes: 256, AllReduces: 4,
	}
	XNOBELProfile = CommProfile{
		Name: "xnobel", Steps: 20, ComputePerStep: 400 * sim.Microsecond,
		HaloBytes: 256 << 10, Neighbors: 1, AllReduces: 1,
	}
)

// commProfiles is the one table of named communication profiles: a system
// config names its app through it, and the Fig. 9 study lists its rows by
// name.
var commProfiles = map[string]CommProfile{
	CTHProfile.Name:    CTHProfile,
	SAGEProfile.Name:   SAGEProfile,
	CharonProfile.Name: CharonProfile,
	XNOBELProfile.Name: XNOBELProfile,
}

// LookupProfile returns the named communication profile.
func LookupProfile(name string) (CommProfile, bool) {
	p, ok := commProfiles[name]
	return p, ok
}
