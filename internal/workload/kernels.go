// Package workload provides the miniapp proxies and communication-pattern
// skeleton applications that drive gosst's timing models: kernel-driven
// instruction/address streams for node studies (HPCCG-, Lulesh-, stencil-,
// STREAM- and GUPS-like) and per-rank message scripts for network studies
// (CTH-, SAGE-, Charon- and xNOBEL-like profiles).
//
// The kernels walk real data-structure address patterns (27-point stencil
// neighborhoods, multi-array sweeps, random tables) so cache and DRAM
// row-buffer behavior is realistic, while floating-point work is emitted as
// accumulator chains whose depth controls exploitable ILP.
package workload

import (
	"fmt"

	"sst/internal/frontend"
	"sst/internal/sim"
)

// Kernel describes a runnable node workload.
type Kernel struct {
	Name string
	// Flops and Bytes estimate per-run totals for intensity reporting.
	Flops uint64
	Bytes uint64
	// Run emits the operation stream.
	Run func(*frontend.Emitter)
}

// Stream builds a KernelStream for the kernel.
func (k *Kernel) Stream() *frontend.KernelStream {
	return frontend.NewKernelStream(k.Run)
}

// StreamPool is Stream drawing batch buffers from pool (nil = Stream).
func (k *Kernel) StreamPool(pool *frontend.OpPool) *frontend.KernelStream {
	return frontend.NewKernelStreamPool(k.Run, pool)
}

// flopChain emits n FP ops distributed over `accs` accumulator registers:
// each op depends on the previous op targeting the same accumulator, so
// `accs` bounds the exploitable FP ILP.
func flopChain(e *frontend.Emitter, n, accs int) bool {
	if accs < 1 {
		accs = 1
	}
	if accs > 24 {
		accs = 24
	}
	for i := 0; i < n; i++ {
		r := uint8(1 + i%accs)
		if !e.Emit(frontend.Op{Class: frontend.ClassFloat, Dst: r, Src1: r}) {
			return false
		}
	}
	return true
}

// Memory layout base addresses keep each kernel's arrays on distinct,
// page-aligned regions.
const (
	baseMatrix = 0x0100_0000
	baseX      = 0x2000_0000
	baseY      = 0x2800_0000
	baseP      = 0x3000_0000
	baseQ      = 0x3800_0000
	baseR      = 0x4000_0000
	baseTable  = 0x5000_0000
)

// HPCCG builds an unpreconditioned conjugate-gradient proxy on an n×n×n
// 27-point stencil grid, the Mantevo HPCCG pattern: each iteration is one
// sparse matrix-vector product, two dot products and three axpys. The SpMV
// gathers x at real 27-point neighbor offsets, so spatial locality (and
// thus cache behavior) matches the genuine sparse operator.
func HPCCG(n, iters int) *Kernel {
	rows := uint64(n) * uint64(n) * uint64(n)
	// SpMV: 27 matrix loads + 27 x gathers + 27 FMAs per row, plus the
	// vector ops: 2 dots (2 loads, 2 flops each) + 3 axpys (2 loads, 1
	// store, 2 flops each).
	flops := uint64(iters) * rows * (27*2 + 2*2 + 3*2)
	bytes := uint64(iters) * rows * (27*8 + 27*8 + 8 + (2*2+3*3)*8)
	run := func(e *frontend.Emitter) {
		nn := uint64(n)
		for it := 0; it < iters; it++ {
			// SpMV: q = A*p.
			var row uint64
			for z := uint64(0); z < nn; z++ {
				for y := uint64(0); y < nn; y++ {
					for x := uint64(0); x < nn; x++ {
						// Matrix values stream sequentially.
						for j := uint64(0); j < 27; j++ {
							if !e.Load(baseMatrix + (row*27+j)*8) {
								return
							}
						}
						// Gather x at neighbor offsets.
						for dz := -1; dz <= 1; dz++ {
							for dy := -1; dy <= 1; dy++ {
								for dx := -1; dx <= 1; dx++ {
									nx := clampU(x, dx, nn)
									ny := clampU(y, dy, nn)
									nz := clampU(z, dz, nn)
									idx := (nz*nn+ny)*nn + nx
									if !e.Load(baseP + idx*8) {
										return
									}
								}
							}
						}
						if !flopChain(e, 54, 8) {
							return
						}
						if !e.Store(baseQ + row*8) {
							return
						}
						row++
					}
				}
			}
			// Two dot products: p·q and r·r.
			for i := uint64(0); i < rows; i++ {
				if !e.Load(baseP+i*8) || !e.Load(baseQ+i*8) || !flopChain(e, 2, 8) {
					return
				}
			}
			for i := uint64(0); i < rows; i++ {
				if !e.Load(baseR+i*8) || !flopChain(e, 2, 8) {
					return
				}
			}
			// Three axpys: x += a·p; r -= a·q; p = r + b·p.
			for _, pair := range [][2]uint64{{baseX, baseP}, {baseR, baseQ}, {baseP, baseR}} {
				for i := uint64(0); i < rows; i++ {
					if !e.Load(pair[0]+i*8) || !e.Load(pair[1]+i*8) {
						return
					}
					if !flopChain(e, 2, 8) {
						return
					}
					if !e.Store(pair[0] + i*8) {
						return
					}
				}
			}
		}
	}
	return &Kernel{
		Name:  fmt.Sprintf("hpccg-n%d-i%d", n, iters),
		Flops: flops, Bytes: bytes, Run: run,
	}
}

func clampU(v uint64, d int, n uint64) uint64 {
	r := int64(v) + int64(d)
	if r < 0 {
		return 0
	}
	if r >= int64(n) {
		return n - 1
	}
	return uint64(r)
}

// Lulesh builds a hydro-proxy: per "element sweep" it streams several large
// arrays (nodal coordinates, velocities, forces) with a high flop count per
// element — bandwidth-hungry with more compute than a stencil, the Lulesh
// signature.
func Lulesh(elems, iters int) *Kernel {
	n := uint64(elems)
	// Per element: 8 coordinate loads, 8 velocity loads, ~45 flops,
	// 4 stores; then a stress sweep: 3 loads, 15 flops, 1 store.
	flops := uint64(iters) * n * (45 + 15)
	bytes := uint64(iters) * n * (8 + 8 + 4 + 3 + 1) * 8
	run := func(e *frontend.Emitter) {
		for it := 0; it < iters; it++ {
			for i := uint64(0); i < n; i++ {
				for j := uint64(0); j < 8; j++ {
					if !e.Load(baseX + (i*8+j)*8) {
						return
					}
				}
				for j := uint64(0); j < 8; j++ {
					if !e.Load(baseY + (i*8+j)*8) {
						return
					}
				}
				if !flopChain(e, 45, 12) {
					return
				}
				for j := uint64(0); j < 4; j++ {
					if !e.Store(baseQ + (i*4+j)*8) {
						return
					}
				}
			}
			for i := uint64(0); i < n; i++ {
				if !e.Load(baseQ+i*32) || !e.Load(baseP+i*8) || !e.Load(baseR+i*8) {
					return
				}
				if !flopChain(e, 15, 12) {
					return
				}
				if !e.Store(baseR + i*8) {
					return
				}
			}
		}
	}
	return &Kernel{
		Name:  fmt.Sprintf("lulesh-e%d-i%d", elems, iters),
		Flops: flops, Bytes: bytes, Run: run,
	}
}

// Stencil builds a miniGhost-like 7-point stencil sweep over an n³ grid.
func Stencil(n, iters int) *Kernel {
	nn := uint64(n)
	cells := nn * nn * nn
	flops := uint64(iters) * cells * 8
	bytes := uint64(iters) * cells * 8 * 8
	run := func(e *frontend.Emitter) {
		plane := nn * nn
		for it := 0; it < iters; it++ {
			src, dst := uint64(baseX), uint64(baseY)
			if it%2 == 1 {
				src, dst = dst, src
			}
			for z := uint64(1); z+1 < nn; z++ {
				for y := uint64(1); y+1 < nn; y++ {
					for x := uint64(1); x+1 < nn; x++ {
						c := (z*nn+y)*nn + x
						for _, off := range []uint64{c, c - 1, c + 1, c - nn, c + nn, c - plane, c + plane} {
							if !e.Load(src + off*8) {
								return
							}
						}
						if !flopChain(e, 8, 8) {
							return
						}
						if !e.Store(dst + c*8) {
							return
						}
					}
				}
			}
		}
	}
	return &Kernel{
		Name:  fmt.Sprintf("stencil-n%d-i%d", n, iters),
		Flops: flops, Bytes: bytes, Run: run,
	}
}

// STREAMTriad builds the classic bandwidth probe: a[i] = b[i] + s*c[i].
func STREAMTriad(elems, iters int) *Kernel {
	n := uint64(elems)
	run := func(e *frontend.Emitter) {
		for it := 0; it < iters; it++ {
			for i := uint64(0); i < n; i++ {
				if !e.Load(baseX+i*8) || !e.Load(baseY+i*8) {
					return
				}
				if !flopChain(e, 2, 16) {
					return
				}
				if !e.Store(baseQ + i*8) {
					return
				}
			}
		}
	}
	return &Kernel{
		Name:  fmt.Sprintf("stream-e%d-i%d", elems, iters),
		Flops: uint64(iters) * n * 2, Bytes: uint64(iters) * n * 24, Run: run,
	}
}

// GUPS builds the random-access probe: dependent loads and updates at
// pseudo-random table locations. Each update's address depends on the
// previous load (pointer-chase semantics), so latency cannot be hidden by
// a single thread — the workload PIM-style multithreading wins on.
func GUPS(tableBytes uint64, updates int, seed uint64) *Kernel {
	run := func(e *frontend.Emitter) {
		rng := sim.NewRNG(seed)
		mask := tableBytes/8 - 1
		for i := 0; i < updates; i++ {
			idx := rng.Uint64() & mask
			// Dependent chain: the load writes r1, the update reads
			// it, the store consumes the update.
			if !e.Emit(frontend.Op{Class: frontend.ClassLoad, Addr: baseTable + idx*8, Size: 8, Dst: 1, Src1: 1}) {
				return
			}
			if !e.Emit(frontend.Op{Class: frontend.ClassInt, Dst: 1, Src1: 1}) {
				return
			}
			if !e.Emit(frontend.Op{Class: frontend.ClassStore, Addr: baseTable + idx*8, Size: 8, Src1: 1}) {
				return
			}
		}
	}
	return &Kernel{
		Name:  fmt.Sprintf("gups-%dMB-u%d", tableBytes>>20, updates),
		Flops: 0, Bytes: uint64(updates) * 16, Run: run,
	}
}

// FEA builds the assembly-phase proxy used by the memory-speed sensitivity
// study: heavy floating-point element-operator computation over a small,
// cache-resident working set. Its runtime should be insensitive to DRAM
// speed — the Fig. 3 contrast with the solver phase.
func FEA(elems, iters int) *Kernel {
	n := uint64(elems)
	const wsBytes = 16 << 10 // element scratch: fits in L1/L2
	run := func(e *frontend.Emitter) {
		for it := 0; it < iters; it++ {
			for i := uint64(0); i < n; i++ {
				// Touch the small scratch area...
				for j := uint64(0); j < 16; j++ {
					off := (i*8 + j*64) % wsBytes
					if !e.Load(baseX + off) {
						return
					}
				}
				// ...and grind on it: diffusion matrix + Jacobian.
				if !flopChain(e, 180, 10) {
					return
				}
				for j := uint64(0); j < 4; j++ {
					if !e.Store(baseX + (i*8+j*64)%wsBytes) {
						return
					}
				}
			}
		}
	}
	return &Kernel{
		Name:  fmt.Sprintf("fea-e%d-i%d", elems, iters),
		Flops: uint64(iters) * n * 180, Bytes: uint64(iters) * n * 20 * 8, Run: run,
	}
}
