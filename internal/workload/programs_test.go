package workload

import (
	"testing"

	"sst/internal/cpu"
	"sst/internal/frontend"
	"sst/internal/isa"
	"sst/internal/mem"
	"sst/internal/sim"
)

func TestProgramsFunctional(t *testing.T) {
	for _, p := range programs() {
		m, err := p.Build()
		if err != nil {
			t.Fatalf("%s: %v", p.Name, err)
		}
		if _, err := m.Run(50_000_000); err != nil {
			t.Fatalf("%s: %v", p.Name, err)
		}
		if !m.Halted() {
			t.Fatalf("%s: did not halt", p.Name)
		}
		if p.Check != nil {
			if err := p.Check(m); err != nil {
				t.Errorf("%s: %v", p.Name, err)
			}
		}
	}
}

// TestProgramsExecutionDriven runs each program through the full timing
// stack — superscalar core, L1, DRAM — and cross-checks the architectural
// result against the pure interpreter.
func TestProgramsExecutionDriven(t *testing.T) {
	for _, p := range programs() {
		stream, err := p.Stream(0)
		if err != nil {
			t.Fatal(err)
		}
		engine := sim.NewEngine()
		clock := sim.NewClock(engine, 2*sim.GHz)
		lower := mem.NewSimpleMemory(engine, "mem", 60*sim.Nanosecond, 20e9, nil)
		l1, err := mem.NewCache(engine, mem.CacheConfig{
			Name: "l1", SizeBytes: 32 << 10, LineBytes: 64, Assoc: 4,
			HitLatency: sim.Nanosecond, MSHRs: 8, WriteBack: true,
		}, lower, nil)
		if err != nil {
			t.Fatal(err)
		}
		c, err := cpu.NewSuperscalar(engine, clock, cpu.DefaultConfig("cpu", 2), stream, l1, nil)
		if err != nil {
			t.Fatal(err)
		}
		done := false
		c.Start(func() { done = true })
		engine.RunAll()
		if !done {
			t.Fatalf("%s: timing run never finished", p.Name)
		}
		if stream.Err() != nil {
			t.Fatalf("%s: %v", p.Name, stream.Err())
		}
		if p.Check != nil {
			if err := p.Check(stream.Machine()); err != nil {
				t.Errorf("%s (timed): %v", p.Name, err)
			}
		}
		if c.Retired() == 0 || c.IPC() <= 0 {
			t.Errorf("%s: no timing activity", p.Name)
		}
	}
}

// TestPointerChaseIsLatencyBound contrasts the pointer chase against daxpy
// on identical hardware: the chase's dependent loads must yield a far lower
// IPC (this is the workload signature the PIM study rests on).
func TestPointerChaseIsLatencyBound(t *testing.T) {
	run := func(p *Program) float64 {
		stream, err := p.Stream(0)
		if err != nil {
			t.Fatal(err)
		}
		engine := sim.NewEngine()
		clock := sim.NewClock(engine, 2*sim.GHz)
		lower := mem.NewSimpleMemory(engine, "mem", 80*sim.Nanosecond, 0, nil)
		l1, err := mem.NewCache(engine, mem.CacheConfig{
			Name: "l1", SizeBytes: 4 << 10, LineBytes: 64, Assoc: 2,
			HitLatency: sim.Nanosecond, MSHRs: 8, WriteBack: true,
			// The prefetcher is the discriminator: it rescues the
			// sequential daxpy streams and is useless against
			// dependent pointer chasing.
			PrefetchNextLine: true, PrefetchDegree: 4,
		}, lower, nil)
		if err != nil {
			t.Fatal(err)
		}
		c, err := cpu.NewSuperscalar(engine, clock, cpu.DefaultConfig("cpu", 4), stream, l1, nil)
		if err != nil {
			t.Fatal(err)
		}
		c.Start(func() {})
		engine.RunAll()
		if err := stream.Err(); err != nil {
			t.Fatal(err)
		}
		return c.IPC()
	}
	chase := run(PointerChaseProgram(4096, 8192))
	daxpy := run(DAXPYProgram(2048))
	if chase*1.5 > daxpy {
		t.Errorf("pointer chase IPC %.3f not clearly below daxpy IPC %.3f", chase, daxpy)
	}
}

// TestFibonacciPredictorFriendly checks the loop branch trains the 2-bit
// predictor: mispredicts should be a tiny fraction of branches.
func TestFibonacciPredictorFriendly(t *testing.T) {
	p := FibonacciProgram(500)
	stream, err := p.Stream(0)
	if err != nil {
		t.Fatal(err)
	}
	engine := sim.NewEngine()
	clock := sim.NewClock(engine, sim.GHz)
	lower := mem.NewSimpleMemory(engine, "mem", 50*sim.Nanosecond, 0, nil)
	c, err := cpu.NewSuperscalar(engine, clock, cpu.DefaultConfig("cpu", 2), stream, lower, nil)
	if err != nil {
		t.Fatal(err)
	}
	c.Start(func() {})
	engine.RunAll()
	if c.Mispredicts() > 10 {
		t.Errorf("fib loop mispredicted %d times", c.Mispredicts())
	}
}

// TestProgramStreamClasses sanity-checks the exec front-end's class
// mapping over a real program.
func TestProgramStreamClasses(t *testing.T) {
	stream, err := DAXPYProgram(16).Stream(0)
	if err != nil {
		t.Fatal(err)
	}
	var counts [6]uint64
	var op frontend.Op
	for stream.Next(&op) {
		counts[op.Class]++
	}
	if stream.Err() != nil {
		t.Fatal(stream.Err())
	}
	if counts[frontend.ClassLoad] == 0 || counts[frontend.ClassStore] == 0 ||
		counts[frontend.ClassFloat] == 0 || counts[frontend.ClassBranch] == 0 {
		t.Errorf("class census incomplete: %v", counts)
	}
	m := stream.Machine()
	if !m.Halted() {
		t.Error("stream ended before halt")
	}
}

// TestProgramBadSource surfaces assembler errors through the library.
func TestProgramBadSource(t *testing.T) {
	p := &Program{Name: "bad", Source: "frobnicate r1, r2"}
	if _, err := p.Build(); err == nil {
		t.Fatal("bad source assembled")
	}
	if _, err := p.Stream(0); err == nil {
		t.Fatal("bad source streamed")
	}
}

var _ = isa.NOP // keep the isa import for Check signatures

// programs returns the full SR1 program library.
func programs() []*Program {
	return []*Program{
		DAXPYProgram(256),
		DotProductProgram(256),
		PointerChaseProgram(1024, 4096),
		FibonacciProgram(40),
	}
}
