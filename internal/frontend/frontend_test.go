package frontend

import (
	"bytes"
	"testing"
	"testing/quick"

	"sst/internal/isa"
)

func TestExecStreamBasic(t *testing.T) {
	p, err := isa.Assemble(`
		addi r1, r0, 3
		li   r2, 0x4000
		ld   r3, 0(r2)
		sd   r1, 8(r2)
		beq  r0, r0, end
		nop
	end:
		fadd r4, r1, r1
		halt
	`)
	if err != nil {
		t.Fatal(err)
	}
	s := NewExecStream(isa.NewMachine(p), 0)
	var ops []Op
	var op Op
	for s.Next(&op) {
		ops = append(ops, op)
	}
	if s.Err() != nil {
		t.Fatal(s.Err())
	}
	// addi, addi(li), ld, sd, beq, fadd — halt not emitted, nop skipped
	// by the taken branch.
	classes := []Class{ClassInt, ClassInt, ClassLoad, ClassStore, ClassBranch, ClassFloat}
	if len(ops) != len(classes) {
		t.Fatalf("got %d ops, want %d: %+v", len(ops), len(classes), ops)
	}
	for i, c := range classes {
		if ops[i].Class != c {
			t.Fatalf("op %d class %v, want %v", i, ops[i].Class, c)
		}
	}
	if ops[2].Addr != 0x4000 || ops[2].Size != 8 {
		t.Errorf("load addr/size = %#x/%d", ops[2].Addr, ops[2].Size)
	}
	if ops[3].Addr != 0x4008 {
		t.Errorf("store addr = %#x", ops[3].Addr)
	}
	if !ops[4].Taken {
		t.Error("taken branch not flagged")
	}
	if ops[3].Dst != 0 {
		t.Error("store must not have a destination register")
	}
}

func TestExecStreamLimit(t *testing.T) {
	p, _ := isa.Assemble("loop: addi r1, r1, 1\nb loop")
	s := NewExecStream(isa.NewMachine(p), 10)
	var op Op
	n := 0
	for s.Next(&op) {
		n++
	}
	if n != 10 {
		t.Fatalf("limited stream produced %d ops", n)
	}
}

func TestExecStreamError(t *testing.T) {
	p, _ := isa.Assemble("jalr r0, r0, 4096")
	s := NewExecStream(isa.NewMachine(p), 0)
	var op Op
	for s.Next(&op) {
	}
	if s.Err() == nil {
		t.Fatal("jump into data space produced no error")
	}
}

func TestSyntheticMixProportions(t *testing.T) {
	cfg := SynthConfig{
		IntFrac: 0.4, FloatFrac: 0.2, LoadFrac: 0.2, StoreFrac: 0.1, BranchFrac: 0.1,
		N: 100_000, HotFrac: 0.5, HotBytes: 1 << 16, ColdBytes: 1 << 24,
		TakenFrac: 0.7, Seed: 1,
	}
	s, err := NewSynthetic(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cs := &CountingStream{Inner: s}
	var op Op
	for cs.Next(&op) {
	}
	if cs.Total() != cfg.N {
		t.Fatalf("total = %d", cs.Total())
	}
	frac := func(c Class) float64 { return float64(cs.Counts[c]) / float64(cfg.N) }
	for _, tc := range []struct {
		c    Class
		want float64
	}{
		{ClassInt, 0.4}, {ClassFloat, 0.2}, {ClassLoad, 0.2}, {ClassStore, 0.1}, {ClassBranch, 0.1},
	} {
		if got := frac(tc.c); got < tc.want-0.02 || got > tc.want+0.02 {
			t.Errorf("class %v fraction = %.3f, want ~%.2f", tc.c, got, tc.want)
		}
	}
}

func TestSyntheticLocality(t *testing.T) {
	cfg := SynthConfig{
		LoadFrac: 1, N: 50_000,
		HotFrac: 0.9, HotBytes: 4 << 10, ColdBytes: 1 << 26,
		Seed: 2,
	}
	s, err := NewSynthetic(cfg)
	if err != nil {
		t.Fatal(err)
	}
	hot := 0
	var op Op
	for s.Next(&op) {
		if op.Addr < cfg.HotBytes {
			hot++
		}
	}
	frac := float64(hot) / float64(cfg.N)
	if frac < 0.85 || frac > 0.95 {
		t.Errorf("hot fraction = %.3f, want ~0.9", frac)
	}
}

func TestSyntheticStride(t *testing.T) {
	cfg := SynthConfig{
		LoadFrac: 1, N: 1000,
		HotFrac: 1, HotBytes: 1 << 20, StrideBytes: 64,
		Seed: 3,
	}
	s, _ := NewSynthetic(cfg)
	var prev uint64
	var op Op
	first := true
	for s.Next(&op) {
		if !first && op.Addr != prev+64 {
			t.Fatalf("stride broken: %#x after %#x", op.Addr, prev)
		}
		prev, first = op.Addr, false
	}
}

func TestSyntheticDeterminism(t *testing.T) {
	cfg, err := Profile("stream", 1000, 7)
	if err != nil {
		t.Fatal(err)
	}
	collect := func() []Op {
		s, _ := NewSynthetic(cfg)
		var ops []Op
		var op Op
		for s.Next(&op) {
			ops = append(ops, op)
		}
		return ops
	}
	a, b := collect(), collect()
	if len(a) != len(b) {
		t.Fatal("lengths differ")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("divergence at %d: %+v vs %+v", i, a[i], b[i])
		}
	}
}

func TestSyntheticValidation(t *testing.T) {
	if _, err := NewSynthetic(SynthConfig{}); err == nil {
		t.Error("empty mix accepted")
	}
	if _, err := NewSynthetic(SynthConfig{LoadFrac: 1, N: 10}); err == nil {
		t.Error("memory ops with no address space accepted")
	}
	if _, err := NewSynthetic(SynthConfig{IntFrac: 1, N: 10, HotFrac: 2}); err == nil {
		t.Error("HotFrac > 1 accepted")
	}
}

func TestProfiles(t *testing.T) {
	for _, name := range []string{"stream", "compute", "irregular"} {
		cfg, err := Profile(name, 100, 1)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := NewSynthetic(cfg); err != nil {
			t.Errorf("profile %s invalid: %v", name, err)
		}
	}
	if _, err := Profile("nope", 1, 1); err == nil {
		t.Error("unknown profile accepted")
	}
}

func TestTraceRoundTrip(t *testing.T) {
	fn := func(raw []uint32) bool {
		ops := traceOps(raw)
		var buf bytes.Buffer
		w := NewTraceWriter(&buf)
		for i := range ops {
			if err := w.Write(&ops[i]); err != nil {
				return false
			}
		}
		if err := w.Flush(); err != nil {
			return false
		}
		r := NewTraceStream(&buf)
		var got Op
		for i := range ops {
			if !r.Next(&got) {
				return false
			}
			want := ops[i]
			if got.Class != want.Class || got.Addr != want.Addr ||
				got.Size != want.Size || got.Taken != want.Taken ||
				got.Dst != want.Dst || got.Src1 != want.Src1 || got.Src2 != want.Src2 {
				return false
			}
		}
		return !r.Next(&got) && r.Err() == nil
	}
	if err := quick.Check(fn, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestTraceBadMagic(t *testing.T) {
	r := NewTraceStream(bytes.NewBufferString("NOTATRACE"))
	var op Op
	if r.Next(&op) || r.Err() == nil {
		t.Fatal("bad magic accepted")
	}
}

func TestTraceTruncated(t *testing.T) {
	var buf bytes.Buffer
	w := NewTraceWriter(&buf)
	w.Write(&Op{Class: ClassLoad, Addr: 0x1234, Size: 8})
	w.Flush()
	full := buf.Bytes()
	r := NewTraceStream(bytes.NewReader(full[:len(full)-3]))
	var op Op
	if r.Next(&op) || r.Err() == nil {
		t.Fatal("truncated record accepted")
	}
}

func TestTeeStream(t *testing.T) {
	src := &SliceStream{Ops: []Op{
		{Class: ClassInt, Dst: 1},
		{Class: ClassLoad, Addr: 64, Size: 8, Dst: 2},
	}}
	var buf bytes.Buffer
	w := NewTraceWriter(&buf)
	tee := &TeeStream{Inner: src, W: w}
	var op Op
	n := 0
	for tee.Next(&op) {
		n++
	}
	if n != 2 || tee.Err() != nil {
		t.Fatalf("tee passed %d ops, err=%v", n, tee.Err())
	}
	w.Flush()
	r := NewTraceStream(&buf)
	n = 0
	for r.Next(&op) {
		n++
	}
	if n != 2 {
		t.Fatalf("replayed %d ops", n)
	}
}

func TestKernelStream(t *testing.T) {
	k := NewKernelStream(func(e *Emitter) {
		for i := 0; i < 10000; i++ {
			if !e.Load(uint64(i * 8)) {
				return
			}
			if !e.Flops(2) {
				return
			}
		}
	})
	defer k.Close()
	var op Op
	var loads, flops int
	for k.Next(&op) {
		switch op.Class {
		case ClassLoad:
			loads++
		case ClassFloat:
			flops++
		}
	}
	if loads != 10000 || flops != 20000 {
		t.Fatalf("loads=%d flops=%d", loads, flops)
	}
}

func TestKernelStreamEarlyClose(t *testing.T) {
	emitted := make(chan int, 1)
	k := NewKernelStream(func(e *Emitter) {
		n := 0
		for {
			if !e.Ints(1) {
				emitted <- n
				return
			}
			n++
		}
	})
	var op Op
	for i := 0; i < 100; i++ {
		if !k.Next(&op) {
			t.Fatal("stream ended early")
		}
	}
	k.Close()
	n := <-emitted
	if n < 100 {
		t.Fatalf("producer emitted only %d before close", n)
	}
	// Idempotent close, and Next after close returns false.
	k.Close()
	if k.Next(&op) {
		t.Fatal("Next succeeded after Close")
	}
}

func TestKernelEmitterHelpers(t *testing.T) {
	k := NewKernelStream(func(e *Emitter) {
		e.Store(128)
		e.Branch(true)
		e.Ints(1)
	})
	defer k.Close()
	var ops []Op
	var op Op
	for k.Next(&op) {
		ops = append(ops, op)
	}
	if len(ops) != 3 || ops[0].Class != ClassStore || !ops[1].Taken || ops[2].Class != ClassInt {
		t.Fatalf("ops = %+v", ops)
	}
	// PCs are auto-assigned and increasing.
	if ops[1].PC <= ops[0].PC {
		t.Error("PCs not increasing")
	}
}

func TestLimitAndSliceStreams(t *testing.T) {
	src := &SliceStream{Ops: make([]Op, 10)}
	l := &LimitStream{Inner: src, N: 4}
	var op Op
	n := 0
	for l.Next(&op) {
		n++
	}
	if n != 4 {
		t.Fatalf("limit produced %d", n)
	}
	src.Reset()
	n = 0
	for src.Next(&op) {
		n++
	}
	if n != 10 {
		t.Fatalf("reset slice produced %d", n)
	}
}

func TestClassString(t *testing.T) {
	names := map[Class]string{
		ClassInt: "int", ClassFloat: "float", ClassLoad: "load",
		ClassStore: "store", ClassBranch: "branch", ClassNop: "nop",
	}
	for c, want := range names {
		if c.String() != want {
			t.Errorf("%d -> %q", c, c.String())
		}
	}
	if Class(99).String() == "" {
		t.Error("unknown class empty")
	}
	if NumClasses() != 6 {
		t.Errorf("NumClasses = %d", NumClasses())
	}
}
