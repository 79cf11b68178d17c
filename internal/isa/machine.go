package isa

import (
	"fmt"
	"math"
)

// pageBits sizes the machine's sparse memory pages (4 KiB).
const pageBits = 12

// Machine is a functional SR1 interpreter: architectural state only, no
// timing. Timing back-ends replay the Step results against their pipeline
// and memory-hierarchy models.
type Machine struct {
	PC     uint64
	Regs   [32]uint64
	mem    map[uint64]*[1 << pageBits]byte
	code   map[uint64]uint32
	halted bool

	// Instret counts retired instructions.
	Instret uint64
}

// NewMachine loads a program: code words at the entry point and initial
// data words at their labels. The stack pointer (sp, r2) starts at 1 MiB
// below the 256 MiB mark, growing down.
func NewMachine(p *Program) *Machine {
	m := &Machine{
		PC:   p.Entry,
		mem:  make(map[uint64]*[1 << pageBits]byte),
		code: make(map[uint64]uint32, len(p.Code)),
	}
	for i, w := range p.Code {
		m.code[p.Entry+uint64(i*4)] = w
	}
	for addr, val := range p.Data {
		m.Store(addr, 8, val)
	}
	m.Regs[2] = 256 << 20 // sp
	return m
}

// Halted reports whether the program executed HALT.
func (m *Machine) Halted() bool { return m.halted }

// page returns the backing page for addr, allocating on first touch.
func (m *Machine) page(addr uint64) *[1 << pageBits]byte {
	key := addr >> pageBits
	pg := m.mem[key]
	if pg == nil {
		pg = new([1 << pageBits]byte)
		m.mem[key] = pg
	}
	return pg
}

// Load reads size bytes (1, 4 or 8) little-endian at addr.
func (m *Machine) Load(addr uint64, size int) uint64 {
	var v uint64
	for i := 0; i < size; i++ {
		a := addr + uint64(i)
		pg := m.page(a)
		v |= uint64(pg[a&(1<<pageBits-1)]) << (8 * uint(i))
	}
	return v
}

// Store writes size bytes little-endian at addr.
func (m *Machine) Store(addr uint64, size int, v uint64) {
	for i := 0; i < size; i++ {
		a := addr + uint64(i)
		pg := m.page(a)
		pg[a&(1<<pageBits-1)] = byte(v >> (8 * uint(i)))
	}
}

// LoadFloat reads a float64 at addr.
func (m *Machine) LoadFloat(addr uint64) float64 {
	return math.Float64frombits(m.Load(addr, 8))
}

// Reg returns register r; FReg interprets it as float64.
func (m *Machine) Reg(r int) uint64   { return m.Regs[r&31] }
func (m *Machine) FReg(r int) float64 { return math.Float64frombits(m.Regs[r&31]) }
func (m *Machine) setReg(r int, v uint64) {
	if r&31 != 0 {
		m.Regs[r&31] = v
	}
}

// SetFReg stores a float64 bit pattern into register r.
func (m *Machine) SetFReg(r int, f float64) { m.setReg(r, math.Float64bits(f)) }

// StepInfo describes one retired instruction for the timing front-end.
type StepInfo struct {
	PC    uint64
	Instr Instr
	// MemAddr/MemSize are set for loads and stores.
	MemAddr uint64
	MemSize int
	// Taken is set for branch-class instructions that redirected the PC.
	Taken bool
	// NextPC is where control went.
	NextPC uint64
}

// Step executes one instruction. It returns an error on invalid opcodes or
// fetch from unassembled addresses; after HALT it keeps returning with
// Halted() true and no state change.
func (m *Machine) Step() (StepInfo, error) {
	info := StepInfo{PC: m.PC}
	if m.halted {
		info.NextPC = m.PC
		return info, nil
	}
	w, ok := m.code[m.PC]
	if !ok {
		return info, fmt.Errorf("isa: fetch from %#x: no code", m.PC)
	}
	in, err := Decode(w)
	if err != nil {
		return info, err
	}
	info.Instr = in
	next := m.PC + 4

	r := &m.Regs
	set := func(rd uint8, v uint64) {
		if rd != 0 {
			r[rd] = v
		}
	}
	imm := int64(in.Imm)
	switch in.Op {
	case NOP:
	case HALT:
		m.halted = true
		next = m.PC
	case ADD:
		set(in.Rd, r[in.Rs1]+r[in.Rs2])
	case SUB:
		set(in.Rd, r[in.Rs1]-r[in.Rs2])
	case MUL:
		set(in.Rd, r[in.Rs1]*r[in.Rs2])
	case DIV:
		if r[in.Rs2] == 0 {
			set(in.Rd, ^uint64(0))
		} else {
			set(in.Rd, uint64(int64(r[in.Rs1])/int64(r[in.Rs2])))
		}
	case REM:
		if r[in.Rs2] == 0 {
			set(in.Rd, r[in.Rs1])
		} else {
			set(in.Rd, uint64(int64(r[in.Rs1])%int64(r[in.Rs2])))
		}
	case AND:
		set(in.Rd, r[in.Rs1]&r[in.Rs2])
	case OR:
		set(in.Rd, r[in.Rs1]|r[in.Rs2])
	case XOR:
		set(in.Rd, r[in.Rs1]^r[in.Rs2])
	case SLL:
		set(in.Rd, r[in.Rs1]<<(r[in.Rs2]&63))
	case SRL:
		set(in.Rd, r[in.Rs1]>>(r[in.Rs2]&63))
	case SRA:
		set(in.Rd, uint64(int64(r[in.Rs1])>>(r[in.Rs2]&63)))
	case SLT:
		set(in.Rd, b2u(int64(r[in.Rs1]) < int64(r[in.Rs2])))
	case SLTU:
		set(in.Rd, b2u(r[in.Rs1] < r[in.Rs2]))
	case ADDI:
		set(in.Rd, r[in.Rs1]+uint64(imm))
	case ANDI:
		set(in.Rd, r[in.Rs1]&uint64(uint16(in.Imm)))
	case ORI:
		set(in.Rd, r[in.Rs1]|uint64(uint16(in.Imm)))
	case XORI:
		set(in.Rd, r[in.Rs1]^uint64(uint16(in.Imm)))
	case SLLI:
		set(in.Rd, r[in.Rs1]<<(uint64(imm)&63))
	case SRLI:
		set(in.Rd, r[in.Rs1]>>(uint64(imm)&63))
	case SRAI:
		set(in.Rd, uint64(int64(r[in.Rs1])>>(uint64(imm)&63)))
	case SLTI:
		set(in.Rd, b2u(int64(r[in.Rs1]) < imm))
	case LUI:
		set(in.Rd, uint64(uint16(in.Imm))<<16)
	case FADD:
		m.SetFReg(int(in.Rd), m.FReg(int(in.Rs1))+m.FReg(int(in.Rs2)))
	case FSUB:
		m.SetFReg(int(in.Rd), m.FReg(int(in.Rs1))-m.FReg(int(in.Rs2)))
	case FMUL:
		m.SetFReg(int(in.Rd), m.FReg(int(in.Rs1))*m.FReg(int(in.Rs2)))
	case FDIV:
		m.SetFReg(int(in.Rd), m.FReg(int(in.Rs1))/m.FReg(int(in.Rs2)))
	case FMADD:
		m.SetFReg(int(in.Rd), m.FReg(int(in.Rd))+m.FReg(int(in.Rs1))*m.FReg(int(in.Rs2)))
	case FSLT:
		set(in.Rd, b2u(m.FReg(int(in.Rs1)) < m.FReg(int(in.Rs2))))
	case CVTIF:
		m.SetFReg(int(in.Rd), float64(int64(r[in.Rs1])))
	case CVTFI:
		set(in.Rd, uint64(int64(m.FReg(int(in.Rs1)))))
	case LD, LW, LB:
		addr := r[in.Rs1] + uint64(imm)
		size := in.Op.MemBytes()
		v := m.Load(addr, size)
		switch in.Op {
		case LW:
			v = uint64(int64(int32(uint32(v))))
		case LB:
			v = uint64(int64(int8(uint8(v))))
		}
		set(in.Rd, v)
		info.MemAddr, info.MemSize = addr, size
	case SD, SW, SB:
		addr := r[in.Rs1] + uint64(imm)
		size := in.Op.MemBytes()
		m.Store(addr, size, r[in.Rd])
		info.MemAddr, info.MemSize = addr, size
	case BEQ:
		if r[in.Rs1] == r[in.Rs2] {
			next = m.PC + uint64(int64(imm)*4)
			info.Taken = true
		}
	case BNE:
		if r[in.Rs1] != r[in.Rs2] {
			next = m.PC + uint64(int64(imm)*4)
			info.Taken = true
		}
	case BLT:
		if int64(r[in.Rs1]) < int64(r[in.Rs2]) {
			next = m.PC + uint64(int64(imm)*4)
			info.Taken = true
		}
	case BGE:
		if int64(r[in.Rs1]) >= int64(r[in.Rs2]) {
			next = m.PC + uint64(int64(imm)*4)
			info.Taken = true
		}
	case JAL:
		set(in.Rd, m.PC+4)
		next = m.PC + uint64(int64(imm)*4)
		info.Taken = true
	case JALR:
		set(in.Rd, m.PC+4)
		next = r[in.Rs1] + uint64(imm)
		info.Taken = true
	default:
		return info, fmt.Errorf("isa: unimplemented opcode %v at %#x", in.Op, m.PC)
	}
	if !m.halted {
		m.Instret++
	}
	m.PC = next
	info.NextPC = next
	return info, nil
}

// Run executes until HALT or maxInstrs retirements; it returns the number
// retired during this call.
func (m *Machine) Run(maxInstrs uint64) (uint64, error) {
	start := m.Instret
	for !m.halted && m.Instret-start < maxInstrs {
		if _, err := m.Step(); err != nil {
			return m.Instret - start, err
		}
	}
	return m.Instret - start, nil
}

func b2u(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}
