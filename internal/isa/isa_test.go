package isa

import (
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func TestEncodeDecodeRoundTrip(t *testing.T) {
	fn := func(opRaw, rd, rs1, rs2 uint8, immRaw int32) bool {
		op := Opcode(opRaw) % numOpcodes
		in := Instr{Op: op, Rd: rd & 31, Rs1: rs1 & 31, Rs2: rs2 & 31}
		switch op.Format() {
		case FormatNone:
			in.Rd, in.Rs1, in.Rs2 = 0, 0, 0
		case FormatR:
			in.Imm = 0
		case FormatJ:
			in.Rs1, in.Rs2 = 0, 0
			in.Imm = immRaw % (1 << 20)
		case FormatBranch:
			in.Rd = 0
			in.Imm = int32(int16(immRaw))
		default:
			in.Rs2 = 0
			in.Imm = int32(int16(immRaw))
		}
		got, err := Decode(in.Word())
		return err == nil && got == in
	}
	if err := quick.Check(fn, &quick.Config{MaxCount: 5000}); err != nil {
		t.Error(err)
	}
}

func TestDecodeInvalidOpcode(t *testing.T) {
	if _, err := Decode(uint32(numOpcodes) << 26); err == nil {
		t.Fatal("invalid opcode decoded")
	}
}

func TestInstrString(t *testing.T) {
	cases := []struct {
		in   Instr
		want string
	}{
		{Instr{Op: NOP}, "nop"},
		{Instr{Op: ADD, Rd: 1, Rs1: 2, Rs2: 3}, "add r1, r2, r3"},
		{Instr{Op: ADDI, Rd: 1, Rs1: 2, Imm: -5}, "addi r1, r2, -5"},
		{Instr{Op: LD, Rd: 4, Rs1: 2, Imm: 16}, "ld r4, 16(r2)"},
		{Instr{Op: BEQ, Rs1: 1, Rs2: 2, Imm: -3}, "beq r1, r2, -3"},
		{Instr{Op: JAL, Rd: 1, Imm: 100}, "jal r1, 100"},
		{Instr{Op: LUI, Rd: 9, Imm: 77}, "lui r9, 77"},
	}
	for _, c := range cases {
		if got := c.in.String(); got != c.want {
			t.Errorf("String() = %q, want %q", got, c.want)
		}
	}
}

func mustAssemble(t *testing.T, src string) *Program {
	t.Helper()
	p, err := Assemble(src)
	if err != nil {
		t.Fatalf("assemble: %v", err)
	}
	return p
}

func run(t *testing.T, src string, max uint64) *Machine {
	t.Helper()
	m := NewMachine(mustAssemble(t, src))
	if _, err := m.Run(max); err != nil {
		t.Fatalf("run: %v", err)
	}
	if !m.Halted() {
		t.Fatalf("program did not halt in %d instructions", max)
	}
	return m
}

func TestAssembleArithmetic(t *testing.T) {
	m := run(t, `
		addi r1, r0, 6
		addi r2, r0, 7
		mul  r3, r1, r2
		sub  r4, r3, r1   # 36
		div  r5, r3, r2   # 6
		rem  r6, r3, r1   # 0
		halt
	`, 100)
	if m.Reg(3) != 42 || m.Reg(4) != 36 || m.Reg(5) != 6 || m.Reg(6) != 0 {
		t.Fatalf("regs: r3=%d r4=%d r5=%d r6=%d", m.Reg(3), m.Reg(4), m.Reg(5), m.Reg(6))
	}
}

func TestAssembleLoopSum(t *testing.T) {
	// Sum 1..10 with a backward branch.
	m := run(t, `
		addi r1, r0, 0    # sum
		addi r2, r0, 1    # i
		addi r3, r0, 11   # limit
	loop:
		add  r1, r1, r2
		addi r2, r2, 1
		blt  r2, r3, loop
		halt
	`, 1000)
	if m.Reg(1) != 55 {
		t.Fatalf("sum = %d, want 55", m.Reg(1))
	}
}

func TestAssembleMemory(t *testing.T) {
	m := run(t, `
		li   r1, 0x1000
		addi r2, r0, 1234
		sd   r2, 0(r1)
		ld   r3, 0(r1)
		sw   r2, 8(r1)
		lw   r4, 8(r1)
		addi r5, r0, -1
		sb   r5, 16(r1)
		lb   r6, 16(r1)
		halt
	`, 100)
	if m.Reg(3) != 1234 || m.Reg(4) != 1234 {
		t.Fatalf("r3=%d r4=%d", m.Reg(3), m.Reg(4))
	}
	if int64(m.Reg(6)) != -1 {
		t.Fatalf("lb sign extension: r6=%d", int64(m.Reg(6)))
	}
}

func TestAssembleDataSection(t *testing.T) {
	m := run(t, `
		li  r1, vec
		ld  r2, 0(r1)
		ld  r3, 8(r1)
		add r4, r2, r3
		halt
		.word vec, 40, 2
	`, 100)
	if m.Reg(4) != 42 {
		t.Fatalf("r4 = %d, want 42", m.Reg(4))
	}
}

func TestAssembleSpace(t *testing.T) {
	p := mustAssemble(t, `
		halt
		.space buf, 64
		.word  after, 7
	`)
	if p.Labels["after"]-p.Labels["buf"] != 64 {
		t.Fatalf("space layout: buf=%#x after=%#x", p.Labels["buf"], p.Labels["after"])
	}
}

func TestAssembleFloat(t *testing.T) {
	m := run(t, `
		addi r1, r0, 3
		cvtif r1, r1, r0
		addi r2, r0, 4
		cvtif r2, r2, r0
		fmul r3, r1, r2     # 12.0
		fadd r4, r3, r1     # 15.0
		fdiv r5, r4, r2     # 3.75
		fslt r6, r1, r2     # 1
		cvtfi r7, r3, r0    # 12
		halt
	`, 100)
	if got := m.FReg(5); got != 3.75 {
		t.Fatalf("fdiv: %v", got)
	}
	if m.Reg(6) != 1 || m.Reg(7) != 12 {
		t.Fatalf("fslt/cvtfi: r6=%d r7=%d", m.Reg(6), m.Reg(7))
	}
}

func TestAssembleFMADD(t *testing.T) {
	m := run(t, `
		addi r1, r0, 2
		cvtif r1, r1, r0
		addi r2, r0, 3
		cvtif r2, r2, r0
		addi r3, r0, 10
		cvtif r3, r3, r0
		fmadd r3, r1, r2   # 10 + 2*3 = 16
		halt
	`, 100)
	if got := m.FReg(3); got != 16 {
		t.Fatalf("fmadd = %v, want 16", got)
	}
}

func TestPseudoInstructions(t *testing.T) {
	m := run(t, `
		li  r1, 0x12345678
		mv  r2, r1
		not r3, r0
		neg r4, r1
		b   over
		addi r5, r0, 99   # skipped
	over:
		halt
	`, 100)
	if m.Reg(1) != 0x12345678 || m.Reg(2) != m.Reg(1) {
		t.Fatalf("li/mv: r1=%#x r2=%#x", m.Reg(1), m.Reg(2))
	}
	if m.Reg(3) != ^uint64(0) {
		t.Fatalf("not: %#x", m.Reg(3))
	}
	if int64(m.Reg(4)) != -0x12345678 {
		t.Fatalf("neg: %d", int64(m.Reg(4)))
	}
	if m.Reg(5) != 0 {
		t.Fatal("b did not skip")
	}
}

func TestLiWide(t *testing.T) {
	m := run(t, `
		li r1, 0x3fffc0000000   # 46-bit value needing the 4-word form
		li r2, -5
		halt
	`, 100)
	if m.Reg(1) != 0x3fffc0000000 {
		t.Fatalf("wide li = %#x", m.Reg(1))
	}
	if int64(m.Reg(2)) != -5 {
		t.Fatalf("negative li = %d", int64(m.Reg(2)))
	}
}

func TestJalAndJalr(t *testing.T) {
	m := run(t, `
		jal  ra, func
		addi r5, r0, 1
		halt
	func:
		addi r6, r0, 2
		jalr r0, ra, 0
	`, 100)
	if m.Reg(5) != 1 || m.Reg(6) != 2 {
		t.Fatalf("call/return: r5=%d r6=%d", m.Reg(5), m.Reg(6))
	}
}

func TestR0IsZero(t *testing.T) {
	m := run(t, `
		addi r0, r0, 5
		add  r1, r0, r0
		halt
	`, 10)
	if m.Reg(0) != 0 || m.Reg(1) != 0 {
		t.Fatalf("r0 = %d, r1 = %d", m.Reg(0), m.Reg(1))
	}
}

func TestAssembleErrors(t *testing.T) {
	bad := []string{
		"frobnicate r1, r2, r3",
		"add r1, r2",
		"add r1, r2, r99",
		"addi r1, r0, 99999",
		"beq r1, r2, nowhere",
		"dup: nop\ndup: nop",
		"ld r1, 5",              // absolute beyond labels is fine; bad: not parseable
		".word onlylabel",       // missing value
		".space b, -1",          // bad size
		"li r1, 0x800000000000", // out of li range
	}
	for _, src := range bad {
		if _, err := Assemble(src); err == nil {
			// "ld r1, 5" is actually legal absolute addressing;
			// skip it.
			if strings.HasPrefix(src, "ld") {
				continue
			}
			t.Errorf("assembled bad source %q", src)
		}
	}
}

func TestDisassemble(t *testing.T) {
	p := mustAssemble(t, "addi r1, r0, 4\nhalt")
	text, err := p.Disassemble()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(text, "addi r1, r0, 4") || !strings.Contains(text, "halt") {
		t.Fatalf("disassembly:\n%s", text)
	}
}

func TestMachineStepInfo(t *testing.T) {
	m := NewMachine(mustAssemble(t, `
		li  r1, 0x2000
		ld  r2, 8(r1)
		beq r0, r0, target
		nop
	target:
		halt
	`))
	var sawLoad, sawBranch bool
	for !m.Halted() {
		info, err := m.Step()
		if err != nil {
			t.Fatal(err)
		}
		if info.NextPC != m.PC {
			t.Fatal("NextPC mismatch")
		}
		switch info.Instr.Op {
		case LD:
			sawLoad = true
			if info.MemAddr != 0x2008 || info.MemSize != 8 {
				t.Fatalf("load info: addr=%#x size=%d", info.MemAddr, info.MemSize)
			}
		case BEQ:
			sawBranch = true
			if !info.Taken {
				t.Fatal("taken branch not flagged")
			}
		}
	}
	if !sawLoad || !sawBranch {
		t.Fatalf("missing step info: load=%v branch=%v", sawLoad, sawBranch)
	}
}

func TestMachineHaltIdempotent(t *testing.T) {
	m := NewMachine(mustAssemble(t, "halt"))
	if _, err := m.Step(); err != nil {
		t.Fatal(err)
	}
	ir := m.Instret
	for i := 0; i < 3; i++ {
		if _, err := m.Step(); err != nil {
			t.Fatal(err)
		}
	}
	if m.Instret != ir {
		t.Fatal("halted machine kept retiring")
	}
}

func TestMachineFetchOutsideCode(t *testing.T) {
	m := NewMachine(mustAssemble(t, "jalr r0, r0, 4096"))
	if _, err := m.Step(); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Step(); err == nil {
		t.Fatal("fetch from data space succeeded")
	}
}

func TestMachineMemoryRoundTrip(t *testing.T) {
	fn := func(addr uint32, val uint64, szRaw uint8) bool {
		m := NewMachine(&Program{})
		sizes := []int{1, 4, 8}
		size := sizes[int(szRaw)%3]
		a := uint64(addr)
		m.Store(a, size, val)
		got := m.Load(a, size)
		mask := uint64(1)<<(8*uint(size)) - 1
		if size == 8 {
			mask = ^uint64(0)
		}
		return got == val&mask
	}
	if err := quick.Check(fn, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func TestMachineCrossPageAccess(t *testing.T) {
	m := NewMachine(&Program{})
	addr := uint64(1<<pageBits - 3) // straddles a page boundary
	m.Store(addr, 8, 0x1122334455667788)
	if got := m.Load(addr, 8); got != 0x1122334455667788 {
		t.Fatalf("cross-page load = %#x", got)
	}
}

func TestFloatHelpers(t *testing.T) {
	m := NewMachine(&Program{})
	m.Store(64, 8, math.Float64bits(math.Pi))
	if got := m.LoadFloat(64); got != math.Pi {
		t.Fatalf("float round trip = %v", got)
	}
	m.SetFReg(7, 2.5)
	if m.FReg(7) != 2.5 {
		t.Fatal("FReg round trip")
	}
}

func TestDivRemByZero(t *testing.T) {
	m := run(t, `
		addi r1, r0, 9
		div  r2, r1, r0
		rem  r3, r1, r0
		halt
	`, 10)
	if m.Reg(2) != ^uint64(0) || m.Reg(3) != 9 {
		t.Fatalf("div/rem by zero: r2=%#x r3=%d", m.Reg(2), m.Reg(3))
	}
}

func TestShifts(t *testing.T) {
	m := run(t, `
		addi r1, r0, -8
		srai r2, r1, 1     # -4
		srli r3, r1, 60    # high bits
		slli r4, r1, 1     # -16
		halt
	`, 10)
	if int64(m.Reg(2)) != -4 {
		t.Fatalf("srai = %d", int64(m.Reg(2)))
	}
	if m.Reg(3) != 0xf {
		t.Fatalf("srli = %#x", m.Reg(3))
	}
	if int64(m.Reg(4)) != -16 {
		t.Fatalf("slli = %d", int64(m.Reg(4)))
	}
}

func BenchmarkMachineStep(b *testing.B) {
	p, err := Assemble(`
	loop:
		addi r1, r1, 1
		and  r2, r1, r3
		add  r4, r4, r2
		b    loop
	`)
	if err != nil {
		b.Fatal(err)
	}
	m := NewMachine(p)
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := m.Step(); err != nil {
			b.Fatal(err)
		}
	}
}

// TestAssembleDisassembleFixedPoint: disassembly of label-free code is
// itself valid assembly producing identical machine words.
func TestAssembleDisassembleFixedPoint(t *testing.T) {
	src := `
		addi r1, r0, 5
		lui  r2, 18
		ori  r2, r2, 52
		ld   r3, 8(r2)
		sd   r3, 16(r2)
		fadd r4, r3, r1
		beq  r1, r2, 2
		jal  r5, -1
		nop
		halt
	`
	p1, err := Assemble(src)
	if err != nil {
		t.Fatal(err)
	}
	text, err := p1.Disassemble()
	if err != nil {
		t.Fatal(err)
	}
	// Strip the "addr:" prefixes to recover plain assembly.
	var sb strings.Builder
	for _, line := range strings.Split(text, "\n") {
		if i := strings.Index(line, ": "); i >= 0 {
			sb.WriteString(line[i+2:])
		}
		sb.WriteString("\n")
	}
	p2, err := Assemble(sb.String())
	if err != nil {
		t.Fatalf("disassembly not reassemblable: %v\n%s", err, sb.String())
	}
	if len(p1.Code) != len(p2.Code) {
		t.Fatalf("code length changed: %d vs %d", len(p1.Code), len(p2.Code))
	}
	for i := range p1.Code {
		if p1.Code[i] != p2.Code[i] {
			t.Fatalf("word %d: %#x vs %#x", i, p1.Code[i], p2.Code[i])
		}
	}
}
