package isa

import (
	"fmt"
	"strconv"
	"strings"
)

// Program is an assembled SR1 binary: code at Entry, plus initialized data.
type Program struct {
	// Code is the instruction stream, loaded at address Entry.
	Code []uint32
	// Entry is the load/start address of the code.
	Entry uint64
	// Data maps addresses to initialized 8-byte data words (.word).
	Data map[uint64]uint64
	// Labels records label addresses for debuggers and tests.
	Labels map[string]uint64
}

// register aliases accepted by the assembler.
var regAliases = map[string]uint8{
	"zero": 0, "ra": 1, "sp": 2, "gp": 3, "fp": 4,
	"a0": 5, "a1": 6, "a2": 7, "a3": 8, "a4": 9, "a5": 10,
	"t0": 11, "t1": 12, "t2": 13, "t3": 14, "t4": 15, "t5": 16,
	"s0": 17, "s1": 18, "s2": 19, "s3": 20, "s4": 21, "s5": 22,
}

func parseReg(tok string) (uint8, error) {
	tok = strings.TrimSpace(tok)
	if r, ok := regAliases[tok]; ok {
		return r, nil
	}
	if strings.HasPrefix(tok, "r") {
		n, err := strconv.Atoi(tok[1:])
		if err == nil && n >= 0 && n < 32 {
			return uint8(n), nil
		}
	}
	return 0, fmt.Errorf("bad register %q", tok)
}

var mnemonics = func() map[string]Opcode {
	m := make(map[string]Opcode, numOpcodes)
	for op := Opcode(0); op < numOpcodes; op++ {
		m[opTable[op].name] = op
	}
	return m
}()

// maxSpaceBytes bounds the bytes one program may reserve with .space:
// the source is untrusted (sst-asm reads user files), and a one-line
// directive must not be able to size the assembler's memory.
const maxSpaceBytes = 1 << 20

// Assemble translates SR1 assembly text into a Program.
//
// Syntax:
//
//	label:                  # define a code label
//	op    rd, rs1, rs2      # per-format operands, see Instr.String
//	ld    rd, off(rs1)
//	beq   rs1, rs2, label   # branch targets may be labels or ints
//	li    rd, value         # pseudo: lui+ori/addi as needed
//	mv    rd, rs            # pseudo: add rd, rs, r0
//	b     label             # pseudo: jal r0, label
//	.org  addr              # set code origin (before first instruction)
//	.word label, value      # place an 8-byte datum at a data label
//	.space label, n         # reserve n zeroed bytes at a data label;
//	                        # (at most 1 MiB per program)
//
// Comments run from '#' or ';' to end of line. Data is placed after code,
// 8-byte aligned.
func Assemble(src string) (*Program, error) {
	var space int64 // bytes reserved by .space so far
	type pendingInstr struct {
		line   int
		op     Opcode
		args   []string
		pseudo string
	}
	p := &Program{Data: make(map[uint64]uint64), Labels: make(map[string]uint64)}
	var pend []pendingInstr
	type datum struct {
		label string
		words []uint64
		line  int
	}
	var data []datum

	lines := strings.Split(src, "\n")
	pc := uint64(0)
	orgSet := false
	for ln, raw := range lines {
		line := raw
		if i := strings.IndexAny(line, "#;"); i >= 0 {
			line = line[:i]
		}
		line = strings.TrimSpace(line)
		if line == "" {
			continue
		}
		// Labels (possibly followed by an instruction on the same line).
		for {
			i := strings.Index(line, ":")
			if i < 0 {
				break
			}
			label := strings.TrimSpace(line[:i])
			if label == "" || strings.ContainsAny(label, " \t,") {
				return nil, fmt.Errorf("isa: line %d: bad label %q", ln+1, label)
			}
			if _, dup := p.Labels[label]; dup {
				return nil, fmt.Errorf("isa: line %d: duplicate label %q", ln+1, label)
			}
			p.Labels[label] = p.Entry + pc*4
			line = strings.TrimSpace(line[i+1:])
		}
		if line == "" {
			continue
		}
		fields := strings.SplitN(line, " ", 2)
		mnem := strings.ToLower(strings.TrimSpace(fields[0]))
		var rest string
		if len(fields) > 1 {
			rest = strings.TrimSpace(fields[1])
		}
		args := splitArgs(rest)
		switch mnem {
		case ".org":
			if len(pend) > 0 || orgSet {
				return nil, fmt.Errorf("isa: line %d: .org must appear once, before code", ln+1)
			}
			if len(args) != 1 {
				return nil, fmt.Errorf("isa: line %d: .org needs exactly one address", ln+1)
			}
			v, err := parseInt(args[0])
			if err != nil {
				return nil, fmt.Errorf("isa: line %d: %v", ln+1, err)
			}
			p.Entry = uint64(v)
			orgSet = true
		case ".word":
			if len(args) < 2 {
				return nil, fmt.Errorf("isa: line %d: .word needs label and value(s)", ln+1)
			}
			var words []uint64
			for _, a := range args[1:] {
				v, err := parseInt(a)
				if err != nil {
					return nil, fmt.Errorf("isa: line %d: %v", ln+1, err)
				}
				words = append(words, uint64(v))
			}
			data = append(data, datum{label: args[0], words: words, line: ln + 1})
		case ".space":
			if len(args) != 2 {
				return nil, fmt.Errorf("isa: line %d: .space needs label and size", ln+1)
			}
			n, err := parseInt(args[1])
			if err != nil || n < 0 {
				return nil, fmt.Errorf("isa: line %d: bad .space size %q", ln+1, args[1])
			}
			if n > maxSpaceBytes-space {
				return nil, fmt.Errorf("isa: line %d: .space %d exceeds the program's %d-byte limit", ln+1, n, maxSpaceBytes)
			}
			space += n
			data = append(data, datum{label: args[0], words: make([]uint64, (n+7)/8), line: ln + 1})
		case "li", "mv", "b", "not", "neg":
			n := pseudoLen(mnem, args)
			pend = append(pend, pendingInstr{line: ln + 1, pseudo: mnem, args: args})
			pc += uint64(n)
		default:
			op, ok := mnemonics[mnem]
			if !ok {
				return nil, fmt.Errorf("isa: line %d: unknown mnemonic %q", ln+1, mnem)
			}
			pend = append(pend, pendingInstr{line: ln + 1, op: op, args: args})
			pc++
		}
	}

	// Lay out data after code, 64-byte aligned to keep it off the code's
	// cache lines.
	dataBase := p.Entry + pc*4
	dataBase = (dataBase + 63) &^ 63
	for _, d := range data {
		if _, dup := p.Labels[d.label]; dup {
			return nil, fmt.Errorf("isa: line %d: duplicate label %q", d.line, d.label)
		}
		p.Labels[d.label] = dataBase
		for i, w := range d.words {
			p.Data[dataBase+uint64(i*8)] = w
		}
		dataBase += uint64(len(d.words) * 8)
	}

	// Second pass: encode with label resolution.
	addr := p.Entry
	emit := func(in Instr) {
		p.Code = append(p.Code, in.Word())
		addr += 4
	}
	for _, pi := range pend {
		if pi.pseudo != "" {
			if err := expandPseudo(p, pi.pseudo, pi.args, addr, emit); err != nil {
				return nil, fmt.Errorf("isa: line %d: %v", pi.line, err)
			}
			continue
		}
		in, err := encodeOne(p, pi.op, pi.args, addr)
		if err != nil {
			return nil, fmt.Errorf("isa: line %d: %v", pi.line, err)
		}
		emit(in)
	}
	return p, nil
}

// pseudoLen returns how many real instructions a pseudo expands to. It must
// agree exactly with expandPseudo, or labels after the pseudo would shift
// between passes.
func pseudoLen(mnem string, args []string) int {
	if mnem == "not" {
		return 2
	}
	if mnem != "li" || len(args) != 2 {
		return 1
	}
	v, err := parseInt(args[1])
	if err != nil {
		return 2 // label address: always the lui+ori form
	}
	return liLen(v)
}

func liLen(v int64) int {
	if v >= -32768 && v < 32768 {
		return 1 // addi
	}
	if v >= 0 && v < 1<<32 {
		return 2 // lui + ori (logical immediates zero-extend)
	}
	return 4 // lui + ori + slli + ori for 47-bit values
}

func expandPseudo(p *Program, mnem string, args []string, addr uint64, emit func(Instr)) error {
	switch mnem {
	case "mv":
		if len(args) != 2 {
			return fmt.Errorf("mv needs rd, rs")
		}
		rd, err := parseReg(args[0])
		if err != nil {
			return err
		}
		rs, err := parseReg(args[1])
		if err != nil {
			return err
		}
		emit(Instr{Op: ADD, Rd: rd, Rs1: rs, Rs2: 0})
		return nil
	case "not":
		if len(args) != 2 {
			return fmt.Errorf("not needs rd, rs")
		}
		rd, err := parseReg(args[0])
		if err != nil {
			return err
		}
		rs, err := parseReg(args[1])
		if err != nil {
			return err
		}
		// Logical immediates zero-extend, so ~x is built as (0-x)-1.
		emit(Instr{Op: SUB, Rd: rd, Rs1: 0, Rs2: rs})
		emit(Instr{Op: ADDI, Rd: rd, Rs1: rd, Imm: -1})
		return nil
	case "neg":
		if len(args) != 2 {
			return fmt.Errorf("neg needs rd, rs")
		}
		rd, err := parseReg(args[0])
		if err != nil {
			return err
		}
		rs, err := parseReg(args[1])
		if err != nil {
			return err
		}
		emit(Instr{Op: SUB, Rd: rd, Rs1: 0, Rs2: rs})
		return nil
	case "b":
		if len(args) != 1 {
			return fmt.Errorf("b needs a target")
		}
		off, err := resolveTarget(p, args[0], addr, 21)
		if err != nil {
			return err
		}
		emit(Instr{Op: JAL, Rd: 0, Imm: off})
		return nil
	case "li":
		if len(args) != 2 {
			return fmt.Errorf("li needs rd, value")
		}
		rd, err := parseReg(args[0])
		if err != nil {
			return err
		}
		v, err := parseInt(args[1])
		if err != nil {
			// Label address: always the 2-instruction form so pass
			// one's length estimate holds whatever the address is.
			la, ok := p.Labels[args[1]]
			if !ok {
				return fmt.Errorf("li: unknown label %q", args[1])
			}
			if la >= 1<<32 {
				return fmt.Errorf("li: label %q address %d exceeds 32 bits", args[1], la)
			}
			emit(Instr{Op: LUI, Rd: rd, Imm: int32(uint32(la) >> 16)})
			emit(Instr{Op: ORI, Rd: rd, Rs1: rd, Imm: int32(la & 0xffff)})
			return nil
		}
		switch liLen(v) {
		case 1:
			emit(Instr{Op: ADDI, Rd: rd, Rs1: 0, Imm: int32(v)})
		case 2:
			emit(Instr{Op: LUI, Rd: rd, Imm: int32(uint32(v) >> 16)})
			emit(Instr{Op: ORI, Rd: rd, Rs1: rd, Imm: int32(v & 0xffff)})
		default:
			if uint64(v) >= 1<<47 {
				return fmt.Errorf("li: value %d out of 47-bit range", v)
			}
			// lui+ori builds bits [46:15]; slli positions them;
			// the final ori adds bits [14:0].
			hi := v >> 15
			lo := v & 0x7fff
			emit(Instr{Op: LUI, Rd: rd, Imm: int32(uint32(hi) >> 16)})
			emit(Instr{Op: ORI, Rd: rd, Rs1: rd, Imm: int32(hi & 0xffff)})
			emit(Instr{Op: SLLI, Rd: rd, Rs1: rd, Imm: 15})
			emit(Instr{Op: ORI, Rd: rd, Rs1: rd, Imm: int32(lo)})
		}
		return nil
	}
	return fmt.Errorf("unknown pseudo %q", mnem)
}

func encodeOne(p *Program, op Opcode, args []string, addr uint64) (Instr, error) {
	in := Instr{Op: op}
	need := func(n int) error {
		if len(args) != n {
			return fmt.Errorf("%s needs %d operands, got %d", op, n, len(args))
		}
		return nil
	}
	var err error
	switch op.Format() {
	case FormatNone:
		if err = need(0); err != nil {
			return in, err
		}
	case FormatR:
		if err = need(3); err != nil {
			return in, err
		}
		if in.Rd, err = parseReg(args[0]); err != nil {
			return in, err
		}
		if in.Rs1, err = parseReg(args[1]); err != nil {
			return in, err
		}
		if in.Rs2, err = parseReg(args[2]); err != nil {
			return in, err
		}
	case FormatI:
		if err = need(3); err != nil {
			return in, err
		}
		if in.Rd, err = parseReg(args[0]); err != nil {
			return in, err
		}
		if in.Rs1, err = parseReg(args[1]); err != nil {
			return in, err
		}
		v, err := parseInt(args[2])
		if err != nil || v < -32768 || v > 32767 {
			return in, fmt.Errorf("bad immediate %q", args[2])
		}
		in.Imm = int32(v)
	case FormatLoad, FormatStore:
		if err = need(2); err != nil {
			return in, err
		}
		if in.Rd, err = parseReg(args[0]); err != nil {
			return in, err
		}
		base, off, err := parseMemOperand(p, args[1])
		if err != nil {
			return in, err
		}
		in.Rs1, in.Imm = base, off
	case FormatBranch:
		if err = need(3); err != nil {
			return in, err
		}
		if in.Rs1, err = parseReg(args[0]); err != nil {
			return in, err
		}
		if in.Rs2, err = parseReg(args[1]); err != nil {
			return in, err
		}
		off, err := resolveTarget(p, args[2], addr, 16)
		if err != nil {
			return in, err
		}
		in.Imm = off
	case FormatJ:
		if err = need(2); err != nil {
			return in, err
		}
		if in.Rd, err = parseReg(args[0]); err != nil {
			return in, err
		}
		off, err := resolveTarget(p, args[1], addr, 21)
		if err != nil {
			return in, err
		}
		in.Imm = off
	case FormatLUI:
		if err = need(2); err != nil {
			return in, err
		}
		if in.Rd, err = parseReg(args[0]); err != nil {
			return in, err
		}
		v, err := parseInt(args[1])
		if err != nil {
			return in, fmt.Errorf("bad immediate %q", args[1])
		}
		in.Imm = int32(v)
	}
	return in, nil
}

// parseMemOperand parses "off(rs1)" or "label" (absolute, base r0 — only
// valid for small addresses).
func parseMemOperand(p *Program, s string) (base uint8, off int32, err error) {
	s = strings.TrimSpace(s)
	i := strings.Index(s, "(")
	if i < 0 {
		if la, ok := p.Labels[s]; ok {
			if la > 32767 {
				return 0, 0, fmt.Errorf("label %q address %d too large for absolute addressing; load it with li", s, la)
			}
			return 0, int32(la), nil
		}
		v, err := parseInt(s)
		if err != nil {
			return 0, 0, fmt.Errorf("bad memory operand %q", s)
		}
		return 0, int32(v), nil
	}
	if !strings.HasSuffix(s, ")") {
		return 0, 0, fmt.Errorf("bad memory operand %q", s)
	}
	offStr := strings.TrimSpace(s[:i])
	regStr := s[i+1 : len(s)-1]
	base, err = parseReg(regStr)
	if err != nil {
		return 0, 0, err
	}
	if offStr == "" {
		return base, 0, nil
	}
	v, err := parseInt(offStr)
	if err != nil || v < -32768 || v > 32767 {
		return 0, 0, fmt.Errorf("bad offset %q", offStr)
	}
	return base, int32(v), nil
}

// resolveTarget converts a label or literal into a word offset from addr+4's
// predecessor (i.e. target = addr + 4*imm), range-checked to bits.
func resolveTarget(p *Program, tok string, addr uint64, bits uint) (int32, error) {
	var target uint64
	if la, ok := p.Labels[tok]; ok {
		target = la
	} else {
		v, err := parseInt(tok)
		if err != nil {
			return 0, fmt.Errorf("unknown branch target %q", tok)
		}
		// Literal targets are word offsets already.
		return int32(v), nil
	}
	diff := int64(target) - int64(addr)
	if diff%4 != 0 {
		return 0, fmt.Errorf("misaligned branch target %q", tok)
	}
	off := diff / 4
	limit := int64(1) << (bits - 1)
	if off < -limit || off >= limit {
		return 0, fmt.Errorf("branch target %q out of range", tok)
	}
	return int32(off), nil
}

func parseInt(s string) (int64, error) {
	s = strings.TrimSpace(s)
	return strconv.ParseInt(s, 0, 64)
}

func splitArgs(s string) []string {
	if s == "" {
		return nil
	}
	parts := strings.Split(s, ",")
	out := parts[:0]
	for _, p := range parts {
		p = strings.TrimSpace(p)
		if p != "" {
			out = append(out, p)
		}
	}
	return out
}

// Disassemble renders the program's code section.
func (p *Program) Disassemble() (string, error) {
	var sb strings.Builder
	for i, w := range p.Code {
		in, err := Decode(w)
		if err != nil {
			return "", err
		}
		fmt.Fprintf(&sb, "%#08x: %s\n", p.Entry+uint64(i*4), in)
	}
	return sb.String(), nil
}
