package cpu

import (
	"sst/internal/frontend"
	"sst/internal/mem"
	"sst/internal/sim"
	"sst/internal/stats"
)

// OoO is a reorder-buffer-based out-of-order core: W-wide fetch/dispatch,
// register renaming over ROB entries, age-ordered dynamic issue, W-wide
// in-order retire. Its distinguishing behavior over the Superscalar
// scoreboard model is memory-level parallelism at narrow widths: a 1-wide
// OoO machine still fills its load queue past a stalled consumer, which is
// how the design-space study's narrow cores kept DRAM busy.
//
// Wrong-path execution is not modelled (the front-end stream is the
// correct path, as in trace-driven OoO simulation); a mispredicted branch
// stalls fetch until it resolves plus the flush penalty.
type OoO struct {
	cfg    Config
	clock  *sim.Clock
	engine *sim.Engine
	stream frontend.Stream
	memory mem.Device
	pred   *predictor
	st     coreStats

	rob      []robEntry
	head     int // oldest
	tail     int // next free
	occupied int

	// Rename table: architectural register -> producing ROB slot, or -1
	// when the committed value is current.
	renamed [32]int

	loadsOut   int
	storesOut  int
	fetchStall sim.Cycle // fetch blocked until this cycle (mispredict)
	streamDry  bool
	running    bool
	done       bool
	onDone     func()
	startCycle sim.Cycle
	endCycle   sim.Cycle

	robOcc *stats.Accumulator
}

// robEntry states.
type robState uint8

const (
	robWaiting robState = iota // operands not ready
	robReady                   // may issue
	robExec                    // issued, executing
	robDone                    // complete, awaiting retire
)

type robEntry struct {
	op    frontend.Op
	state robState
	// dep1/dep2 are ROB slots this entry waits on (-1 when none), with
	// the producer's sequence number captured at dispatch: if the slot's
	// sequence has moved on, the producer retired and the value is
	// architecturally available.
	dep1, dep2       int
	depSeq1, depSeq2 uint64
	// readyAt is the completion cycle for fixed-latency execution.
	readyAt sim.Cycle
	// seq disambiguates wrapped slots.
	seq uint64
}

// NewOoO builds the core. cfg.LoadQ bounds in-flight loads; cfg.Width sets
// fetch/issue/retire width; cfg.ROB sizes the window. scope may be nil.
func NewOoO(engine *sim.Engine, clock *sim.Clock, cfg Config, stream frontend.Stream, memory mem.Device, scope *stats.Scope) (*OoO, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	sc := ensureScope(scope, cfg.Name)
	c := &OoO{
		cfg:    cfg,
		clock:  clock,
		engine: engine,
		stream: stream,
		memory: memory,
		pred:   newPredictor(cfg.PredictorEntries),
		st:     newCoreStats(sc),
		rob:    make([]robEntry, cfg.ROB),
		robOcc: sc.Accumulator("rob_occupancy"),
	}
	for i := range c.renamed {
		c.renamed[i] = -1
	}
	return c, nil
}

// Name implements sim.Component.
func (c *OoO) Name() string { return c.cfg.Name }

// Start arms the core.
func (c *OoO) Start(onDone func()) {
	c.onDone = onDone
	c.startCycle = c.clock.NextCycle()
	c.wake()
}

func (c *OoO) wake() {
	if c.running || c.done {
		return
	}
	c.running = true
	c.clock.RegisterNamed(c.cfg.Name, c.tick)
}

func (c *OoO) sleep() bool {
	c.running = false
	c.st.sleeps.Inc()
	return false
}

// depReady reports whether the dependency on slot d (with sequence s) has
// resolved: either cleared, overwritten by a younger op (impossible for a
// true dependence), or completed.
func (c *OoO) depReady(d int, seq uint64) bool {
	if d < 0 {
		return true
	}
	e := &c.rob[d]
	return e.seq != seq || e.state == robDone
}

func (c *OoO) tick(cycle sim.Cycle) bool {
	c.st.cycles.Inc()
	c.robOcc.Observe(float64(c.occupied))

	// Retire (in order, up to Width).
	retired := 0
	for retired < c.cfg.Width && c.occupied > 0 {
		e := &c.rob[c.head]
		if e.state != robDone {
			break
		}
		c.st.retired.Inc()
		// Release the rename mapping if this entry still owns it.
		if dst := e.op.Dst; dst != 0 && c.renamed[dst] == c.head {
			c.renamed[dst] = -1
		}
		c.head = (c.head + 1) % len(c.rob)
		c.occupied--
		retired++
	}

	// Issue (age order, up to Width): promote waiting entries whose
	// dependencies resolved, then start execution.
	issued := 0
	for i, idx := 0, c.head; i < c.occupied && issued < c.cfg.Width; i, idx = i+1, (idx+1)%len(c.rob) {
		e := &c.rob[idx]
		if e.state == robWaiting && c.depReady(e.dep1, e.depSeq1) && c.depReady(e.dep2, e.depSeq2) {
			e.state = robReady
		}
		if e.state == robReady {
			if c.issue(idx, cycle) {
				issued++
			}
		} else if e.state == robExec && e.op.Class != frontend.ClassLoad && e.readyAt <= cycle {
			e.state = robDone
		}
	}
	// Also complete any executing fixed-latency entries we skipped.
	for i, idx := 0, c.head; i < c.occupied; i, idx = i+1, (idx+1)%len(c.rob) {
		e := &c.rob[idx]
		if e.state == robExec && e.op.Class != frontend.ClassLoad && e.readyAt <= cycle {
			e.state = robDone
		}
	}

	// Fetch/dispatch (up to Width) unless stalled on a mispredict.
	if cycle >= c.fetchStall {
		for f := 0; f < c.cfg.Width && c.occupied < len(c.rob) && !c.streamDry; f++ {
			var op frontend.Op
			if !c.stream.Next(&op) {
				c.streamDry = true
				break
			}
			c.dispatch(op, cycle)
			if cycle < c.fetchStall {
				break // the dispatched branch mispredicted
			}
		}
	} else {
		c.st.stallBubble.Inc()
	}

	if c.streamDry && c.occupied == 0 {
		return c.finish(cycle)
	}
	// Sleep when only loads are in flight and nothing else can move.
	if retired == 0 && issued == 0 && c.occupied > 0 && c.allBlockedOnLoads(cycle) {
		c.st.stallMem.Inc()
		return c.sleep()
	}
	return true
}

// allBlockedOnLoads reports whether every in-flight entry is an executing
// load or waits (transitively) on one, and fetch cannot add work.
func (c *OoO) allBlockedOnLoads(cycle sim.Cycle) bool {
	if !c.streamDry && c.occupied < len(c.rob) && cycle >= c.fetchStall {
		return false
	}
	sawMemOp := false
	for i, idx := 0, c.head; i < c.occupied; i, idx = i+1, (idx+1)%len(c.rob) {
		e := &c.rob[idx]
		switch e.state {
		case robExec:
			if e.op.Class != frontend.ClassLoad && e.op.Class != frontend.ClassStore {
				return false // fixed-latency op will complete by ticking
			}
			sawMemOp = true
		case robReady:
			return false
		case robWaiting:
			if c.depReady(e.dep1, e.depSeq1) && c.depReady(e.dep2, e.depSeq2) {
				return false // promotable next tick
			}
		case robDone:
			if idx == c.head {
				return false // retire can proceed
			}
		}
	}
	// Only sleep when a memory completion is guaranteed to wake us.
	return sawMemOp || c.loadsOut > 0 || c.storesOut > 0
}

// dispatch renames and inserts one op at the ROB tail.
func (c *OoO) dispatch(op frontend.Op, cycle sim.Cycle) {
	idx := c.tail
	c.tail = (c.tail + 1) % len(c.rob)
	c.occupied++
	e := &c.rob[idx]
	e.op = op
	e.seq++
	e.state = robWaiting
	e.dep1, e.dep2 = -1, -1
	if op.Src1 != 0 {
		if d := c.renamed[op.Src1]; d >= 0 {
			e.dep1, e.depSeq1 = d, c.rob[d].seq
		}
	}
	if op.Src2 != 0 {
		if d := c.renamed[op.Src2]; d >= 0 {
			e.dep2, e.depSeq2 = d, c.rob[d].seq
		}
	}
	if op.Dst != 0 {
		c.renamed[op.Dst] = idx
	}
	if op.Class == frontend.ClassBranch {
		c.st.branches.Inc()
		if c.pred.mispredicted(op.PC, op.Taken) {
			c.st.mispredicts.Inc()
			// Fetch resumes after the branch resolves (approximated
			// by the flush penalty from now).
			c.fetchStall = cycle + c.cfg.BranchPenalty
		}
	}
}

// issue starts execution of a ready entry; returns false on a structural
// hazard (queues full).
func (c *OoO) issue(idx int, cycle sim.Cycle) bool {
	e := &c.rob[idx]
	switch e.op.Class {
	case frontend.ClassLoad:
		if c.loadsOut >= c.cfg.LoadQ {
			c.st.stallMem.Inc()
			return false
		}
		c.st.loads.Inc()
		c.loadsOut++
		e.state = robExec
		seq := e.seq
		c.memory.Access(mem.Read, e.op.Addr, int(e.op.Size), func() {
			c.loadsOut--
			if e.seq == seq {
				e.state = robDone
			}
			c.wake()
		})
	case frontend.ClassStore:
		if c.storesOut >= c.cfg.StoreQ {
			c.st.stallMem.Inc()
			return false
		}
		c.st.stores.Inc()
		c.storesOut++
		e.state = robExec
		e.readyAt = cycle + 1
		c.memory.Access(mem.Write, e.op.Addr, int(e.op.Size), func() {
			c.storesOut--
			c.wake()
		})
		e.state = robDone
	case frontend.ClassFloat:
		c.st.flops.Inc()
		e.state = robExec
		e.readyAt = cycle + c.cfg.FloatLat
	case frontend.ClassBranch:
		e.state = robDone
	default:
		e.state = robExec
		e.readyAt = cycle + c.cfg.IntLat
	}
	return true
}

func (c *OoO) finish(cycle sim.Cycle) bool {
	if c.loadsOut > 0 || c.storesOut > 0 {
		return c.sleep()
	}
	c.done = true
	c.running = false
	c.endCycle = cycle
	if c.onDone != nil {
		done := c.onDone
		c.onDone = nil
		done()
	}
	return false
}

// Done reports completion.
func (c *OoO) Done() bool { return c.done }

// Retired returns committed operations.
func (c *OoO) Retired() uint64 { return c.st.retired.Count() }

// Cycles returns core cycles from Start to completion.
func (c *OoO) Cycles() sim.Cycle {
	if c.done {
		return c.endCycle - c.startCycle
	}
	return c.clock.Cycle() - c.startCycle
}

// IPC returns retired operations per cycle.
func (c *OoO) IPC() float64 {
	cy := c.Cycles()
	if cy == 0 {
		return 0
	}
	return float64(c.Retired()) / float64(cy)
}

// Mispredicts exposes the mispredict count.
func (c *OoO) Mispredicts() uint64 { return c.st.mispredicts.Count() }
