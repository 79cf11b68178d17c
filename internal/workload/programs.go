package workload

import (
	"fmt"

	"sst/internal/frontend"
	"sst/internal/isa"
)

// SR1 program library: real assembly programs for the execution-driven
// front-end. Unlike the kernel streams, these execute actual instructions
// with data-dependent control flow and addresses through the interpreter,
// so they validate the whole execution-driven path (and double as
// assembler/ISA regression tests).

// Program bundles an SR1 source with its parameters and result checker.
type Program struct {
	Name string
	// Source is the SR1 assembly text.
	Source string
	// Check validates architectural results after a run (may be nil).
	Check func(m *isa.Machine) error
}

// Build assembles the program and returns a fresh machine.
func (p *Program) Build() (*isa.Machine, error) {
	prog, err := isa.Assemble(p.Source)
	if err != nil {
		return nil, fmt.Errorf("workload: assemble %s: %w", p.Name, err)
	}
	return isa.NewMachine(prog), nil
}

// Stream assembles the program and wraps it as an execution-driven stream.
func (p *Program) Stream(maxInstrs uint64) (*frontend.ExecStream, error) {
	m, err := p.Build()
	if err != nil {
		return nil, err
	}
	return frontend.NewExecStream(m, maxInstrs), nil
}

// DAXPYProgram computes y[i] += a*x[i] over n elements.
// x at 0x10000, y at 0x20000; a = 3.0 written as integer-converted floats.
func DAXPYProgram(n int) *Program {
	src := fmt.Sprintf(`
	# daxpy: y[i] = y[i] + a*x[i], n=%d
		addi r1, r0, 3
		cvtif r1, r1, r0      # a = 3.0
		li   r2, 0x10000      # x
		li   r3, 0x20000      # y
		addi r4, r0, 0        # i
		li   r5, %d           # n
	init:                      # x[i] = 1.0, y[i] = 2.0
		addi r6, r0, 1
		cvtif r6, r6, r0
		sd   r6, 0(r2)
		addi r7, r0, 2
		cvtif r7, r7, r0
		sd   r7, 0(r3)
		addi r2, r2, 8
		addi r3, r3, 8
		addi r4, r4, 1
		blt  r4, r5, init
		li   r2, 0x10000
		li   r3, 0x20000
		addi r4, r0, 0
	loop:
		ld   r8, 0(r2)        # x[i]
		ld   r9, 0(r3)        # y[i]
		mv   r10, r9
		fmadd r10, r1, r8     # y[i] + a*x[i]
		sd   r10, 0(r3)
		addi r2, r2, 8
		addi r3, r3, 8
		addi r4, r4, 1
		blt  r4, r5, loop
		halt
	`, n, n)
	return &Program{
		Name:   fmt.Sprintf("daxpy-%d", n),
		Source: src,
		Check: func(m *isa.Machine) error {
			// y[i] = 2 + 3*1 = 5 everywhere.
			for _, i := range []int{0, n / 2, n - 1} {
				if got := m.LoadFloat(0x20000 + uint64(i*8)); got != 5 {
					return fmt.Errorf("daxpy: y[%d] = %v, want 5", i, got)
				}
			}
			return nil
		},
	}
}

// DotProductProgram computes sum(x[i]*y[i]) with x[i]=i, y[i]=2 and stores
// the float result at `out`.
func DotProductProgram(n int) *Program {
	src := fmt.Sprintf(`
	# dot: sum x[i]*y[i], x[i]=i, y[i]=2, n=%d
		li   r2, 0x10000
		li   r3, 0x20000
		addi r4, r0, 0
		li   r5, %d
	init:
		cvtif r6, r4, r0
		sd   r6, 0(r2)
		addi r7, r0, 2
		cvtif r7, r7, r0
		sd   r7, 0(r3)
		addi r2, r2, 8
		addi r3, r3, 8
		addi r4, r4, 1
		blt  r4, r5, init
		li   r2, 0x10000
		li   r3, 0x20000
		addi r4, r0, 0
		addi r8, r0, 0
		cvtif r8, r8, r0      # acc = 0.0
	loop:
		ld   r9, 0(r2)
		ld   r10, 0(r3)
		fmadd r8, r9, r10
		addi r2, r2, 8
		addi r3, r3, 8
		addi r4, r4, 1
		blt  r4, r5, loop
		li   r11, out
		sd   r8, 0(r11)
		halt
		.word out, 0
	`, n, n)
	return &Program{
		Name:   fmt.Sprintf("dot-%d", n),
		Source: src,
		Check: func(m *isa.Machine) error {
			prog, _ := isa.Assemble(src)
			want := float64(n*(n-1)) / 2 * 2 // 2*sum(i)
			got := m.LoadFloat(prog.Labels["out"])
			if got != want {
				return fmt.Errorf("dot: %v, want %v", got, want)
			}
			return nil
		},
	}
}

// PointerChaseProgram builds a pseudo-random cycle of n pointers (8-byte
// links starting at 0x100000) and walks it `steps` times — the
// latency-bound workload no prefetcher can help.
func PointerChaseProgram(n, steps int) *Program {
	src := fmt.Sprintf(`
	# pointer chase: build a stride-permutation cycle, then walk it.
	# node i links to (i + 7919) %% n  (7919 prime => single cycle when
	# gcd(7919,n)=1; choose n accordingly).
		li   r2, 0x100000     # base
		addi r4, r0, 0        # i
		li   r5, %d           # n
		li   r6, 7919
	build:
		add  r7, r4, r6       # i + prime
	mod:                       # r7 %%= n (subtractive; r7 < 2n here... loop anyway)
		blt  r7, r5, moddone
		sub  r7, r7, r5
		b    mod
	moddone:
		slli r8, r7, 3
		add  r8, r8, r2       # &link[target]
		slli r9, r4, 3
		add  r9, r9, r2       # &link[i]
		sd   r8, 0(r9)        # link[i] = &link[target]
		addi r4, r4, 1
		blt  r4, r5, build
		mv   r10, r2          # cursor
		addi r4, r0, 0
		li   r5, %d           # steps
	walk:
		ld   r10, 0(r10)      # cursor = *cursor
		addi r4, r4, 1
		blt  r4, r5, walk
		li   r11, out
		sd   r10, 0(r11)
		halt
		.word out, 0
	`, n, steps)
	return &Program{
		Name:   fmt.Sprintf("chase-%d-%d", n, steps),
		Source: src,
		Check: func(m *isa.Machine) error {
			prog, _ := isa.Assemble(src)
			got := m.Load(prog.Labels["out"], 8)
			if got < 0x100000 || got >= 0x100000+uint64(n*8) {
				return fmt.Errorf("chase: cursor %#x escaped the table", got)
			}
			return nil
		},
	}
}

// FibonacciProgram computes fib(n) iteratively into r1 — a pure
// control-flow/integer program for predictor studies.
func FibonacciProgram(n int) *Program {
	src := fmt.Sprintf(`
	# fib(%d) iteratively
		addi r1, r0, 0        # fib(0)
		addi r2, r0, 1        # fib(1)
		addi r3, r0, 0        # i
		li   r4, %d
		beq  r4, r0, done
	loop:
		add  r5, r1, r2
		mv   r1, r2
		mv   r2, r5
		addi r3, r3, 1
		blt  r3, r4, loop
	done:
		halt
	`, n, n)
	fib := func(k int) uint64 {
		a, b := uint64(0), uint64(1)
		for i := 0; i < k; i++ {
			a, b = b, a+b
		}
		return a
	}
	return &Program{
		Name:   fmt.Sprintf("fib-%d", n),
		Source: src,
		Check: func(m *isa.Machine) error {
			if got := m.Reg(1); got != fib(n) {
				return fmt.Errorf("fib(%d) = %d, want %d", n, got, fib(n))
			}
			return nil
		},
	}
}
