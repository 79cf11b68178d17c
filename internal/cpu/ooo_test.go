package cpu

import (
	"testing"

	"sst/internal/frontend"
	"sst/internal/isa"
	"sst/internal/mem"
	"sst/internal/sim"
)

func TestOoOIntThroughput(t *testing.T) {
	r := newRig(t, 0)
	c, err := NewOoO(r.engine, r.clock, DefaultConfig("c", 4), intStream(4000), r.mem, r.reg.Scope("c"))
	if err != nil {
		t.Fatal(err)
	}
	runCore(t, r, c)
	if c.Retired() != 4000 {
		t.Fatalf("retired = %d", c.Retired())
	}
	if ipc := c.IPC(); ipc < 3.5 || ipc > 4.1 {
		t.Errorf("4-wide OoO int IPC = %.2f, want ~4", ipc)
	}
	if len(c.rob) != 128 {
		t.Errorf("ROB size = %d, want 32*width", len(c.rob))
	}
}

// TestOoOMLPAtWidthOne is the defining behavior: a 1-wide OoO core with a
// deep load queue overlaps independent misses that serialize a blocking
// in-order core — even when each load's value is consumed immediately.
func TestOoOMLPAtWidthOne(t *testing.T) {
	mkOps := func() []frontend.Op {
		ops := make([]frontend.Op, 0, 512)
		for i := 0; i < 256; i++ {
			dst := uint8(1 + i%16)
			ops = append(ops,
				frontend.Op{Class: frontend.ClassLoad, Addr: uint64(i * 4096), Size: 8, Dst: dst},
				frontend.Op{Class: frontend.ClassInt, Src1: dst, Dst: 31},
			)
		}
		return ops
	}
	lat := 200 * sim.Nanosecond
	cfg := DefaultConfig("c", 1)
	cfg.LoadQ = 16

	rIn := newRig(t, lat)
	inorder, _ := NewInOrder(rIn.engine, rIn.clock, cfg, &frontend.SliceStream{Ops: mkOps()}, rIn.mem, rIn.reg.Scope("c"))
	runCore(t, rIn, inorder)
	tIn := rIn.engine.Now()

	rOoO := newRig(t, lat)
	ooo, err := NewOoO(rOoO.engine, rOoO.clock, cfg, &frontend.SliceStream{Ops: mkOps()}, rOoO.mem, rOoO.reg.Scope("c"))
	if err != nil {
		t.Fatal(err)
	}
	runCore(t, rOoO, ooo)
	tOoO := rOoO.engine.Now()

	if tOoO*3 > tIn {
		t.Errorf("1-wide OoO (%v) should be >=3x faster than blocking in-order (%v) on consumed loads", tOoO, tIn)
	}
}

func TestOoODependenceChainSerializes(t *testing.T) {
	r := newRig(t, 0)
	ops := make([]frontend.Op, 2000)
	for i := range ops {
		dst := uint8(1 + i%2)
		src := uint8(1 + (i+1)%2)
		ops[i] = frontend.Op{Class: frontend.ClassInt, Dst: dst, Src1: src}
	}
	c, _ := NewOoO(r.engine, r.clock, DefaultConfig("c", 8), &frontend.SliceStream{Ops: ops}, r.mem, r.reg.Scope("c"))
	runCore(t, r, c)
	if ipc := c.IPC(); ipc > 1.2 {
		t.Errorf("dependence-chain IPC = %.2f on 8-wide OoO, want ~1", ipc)
	}
}

func TestOoOROBSizeBoundsMLP(t *testing.T) {
	// Independent loads against slow memory: runtime should scale down
	// with the window (ROB/LQ), the classic window-MLP result.
	lat := 400 * sim.Nanosecond
	run := func(width, lq int) sim.Time {
		r := newRig(t, lat)
		ops := make([]frontend.Op, 256)
		for i := range ops {
			ops[i] = frontend.Op{Class: frontend.ClassLoad, Addr: uint64(i * 4096), Size: 8, Dst: uint8(1 + i%30)}
		}
		cfg := DefaultConfig("c", width)
		cfg.LoadQ = lq
		c, err := NewOoO(r.engine, r.clock, cfg, &frontend.SliceStream{Ops: ops}, r.mem, nil)
		if err != nil {
			t.Fatal(err)
		}
		runCore(t, r, c)
		return r.engine.Now()
	}
	small := run(1, 2)
	big := run(1, 8) // same width, deeper queue: window effect only
	if big*3 > small {
		t.Errorf("deep window (%v) should be >=3x faster than shallow (%v)", big, small)
	}
}

func TestOoOMispredictStallsFetch(t *testing.T) {
	r := newRig(t, 0)
	ops := make([]frontend.Op, 2000)
	for i := range ops {
		ops[i] = frontend.Op{Class: frontend.ClassBranch, PC: 0x40, Taken: i%2 == 0}
	}
	c, _ := NewOoO(r.engine, r.clock, DefaultConfig("c", 4), &frontend.SliceStream{Ops: ops}, r.mem, nil)
	runCore(t, r, c)
	if c.Mispredicts() < 500 {
		t.Errorf("mispredicts = %d", c.Mispredicts())
	}
	if ipc := c.IPC(); ipc > 0.6 {
		t.Errorf("IPC = %.2f despite alternating branches", ipc)
	}
}

func TestOoOStoresDrain(t *testing.T) {
	r := newRig(t, 300*sim.Nanosecond)
	ops := []frontend.Op{{Class: frontend.ClassStore, Addr: 64, Size: 8}}
	c, _ := NewOoO(r.engine, r.clock, DefaultConfig("c", 2), &frontend.SliceStream{Ops: ops}, r.mem, nil)
	runCore(t, r, c)
	if r.engine.Now() < 300*sim.Nanosecond {
		t.Errorf("finished at %v before the posted store drained", r.engine.Now())
	}
}

func TestOoOExecutionDrivenCorrectness(t *testing.T) {
	// Run a real program: architectural results must be exact even
	// though timing reorders execution (the interpreter is the oracle).
	src := `
		addi r1, r0, 0
		addi r2, r0, 1
		li   r3, 2001
	loop:
		add  r1, r1, r2
		addi r2, r2, 1
		blt  r2, r3, loop
		halt
	`
	p, err := isa.Assemble(src)
	if err != nil {
		t.Fatal(err)
	}
	stream := frontend.NewExecStream(isa.NewMachine(p), 0)
	r := newRig(t, 50*sim.Nanosecond)
	l1, err := mem.NewCache(r.engine, mem.CacheConfig{
		Name: "l1", SizeBytes: 16 << 10, LineBytes: 64, Assoc: 4,
		HitLatency: sim.Nanosecond, MSHRs: 8, WriteBack: true,
	}, r.mem, nil)
	if err != nil {
		t.Fatal(err)
	}
	c, err := NewOoO(r.engine, r.clock, DefaultConfig("cpu", 4), stream, l1, nil)
	if err != nil {
		t.Fatal(err)
	}
	runCore(t, r, c)
	if stream.Err() != nil {
		t.Fatal(stream.Err())
	}
	if got := stream.Machine().Reg(1); got != 2000*2001/2 {
		t.Fatalf("sum = %d", got)
	}
}

func TestOoOIsCore(t *testing.T) {
	var _ Core = (*OoO)(nil)
}
