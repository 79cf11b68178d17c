package frontend

// KernelStream turns an instrumented Go function into an operation stream:
// the kernel runs in its own goroutine and emits operations through an
// Emitter; the consumer pulls them batch-by-batch. This is how the miniapp
// proxies in internal/workload drive the timing models with realistic
// address streams without being written in SR1 assembly.
//
// The kernel goroutine is strictly rate-limited by the consumer (bounded
// channel), and Close tears it down if the consumer stops early.
//
// Batch buffers circulate: the consumer returns exhausted batches to the
// producer over the recycle channel, so a stream allocates a handful of
// buffers at startup and then runs allocation-free no matter how many
// operations it emits. With an OpPool attached the buffers also survive the
// stream itself — Close harvests them for the next stream (the sweep
// arena's workload-buffer reuse).
type KernelStream struct {
	out     chan []Op
	stop    chan struct{}
	recycle chan []Op
	cur     []Op
	pos     int
	done    bool
	pool    *OpPool
}

// batchSize balances channel crossings against buffering latency.
const batchSize = 4096

// OpPool recycles op batch buffers across streams. It is not safe for
// concurrent use: a pool belongs to one consumer goroutine (in a sweep, one
// worker's arena), and only stream construction and Close touch it.
type OpPool struct {
	bufs [][]Op
}

// get returns a pooled buffer (length 0) or a fresh one.
func (p *OpPool) get() []Op {
	if n := len(p.bufs) - 1; n >= 0 {
		b := p.bufs[n]
		p.bufs[n] = nil
		p.bufs = p.bufs[:n]
		return b
	}
	return make([]Op, 0, batchSize)
}

// put returns a buffer to the pool.
func (p *OpPool) put(b []Op) {
	if cap(b) == 0 {
		return
	}
	p.bufs = append(p.bufs, b[:0])
}

// Len reports how many buffers the pool holds.
func (p *OpPool) Len() int { return len(p.bufs) }

// Trim drops pooled buffers beyond max, bounding a long-lived pool.
func (p *OpPool) Trim(max int) {
	if max < 0 {
		max = 0
	}
	for i := max; i < len(p.bufs); i++ {
		p.bufs[i] = nil
	}
	if len(p.bufs) > max {
		p.bufs = p.bufs[:max]
	}
}

// Emitter is the kernel-side handle for producing operations.
type Emitter struct {
	batch   []Op
	out     chan<- []Op
	stop    <-chan struct{}
	recycle <-chan []Op
	pc      uint64
	// aborted is set once the consumer has gone away.
	aborted bool
}

// Emit queues one operation. It returns false once the consumer has closed
// the stream; kernels should return promptly when that happens.
func (e *Emitter) Emit(op Op) bool {
	if e.aborted {
		return false
	}
	e.pc += 4
	// Fill the next slot field by field: appending the whole Op costs a
	// growth check and a copy through the stack on every op.
	n := len(e.batch)
	if n == cap(e.batch) {
		e.batch = append(e.batch, Op{})[:n] // flush keeps a batch below cap
	}
	e.batch = e.batch[:n+1]
	s := &e.batch[n]
	s.Class, s.PC, s.Addr, s.Size, s.Taken = op.Class, op.PC, op.Addr, op.Size, op.Taken
	s.Dst, s.Src1, s.Src2 = op.Dst, op.Src1, op.Src2
	if op.PC == 0 {
		s.PC = e.pc
	}
	if len(e.batch) >= batchSize {
		return e.flush()
	}
	return true
}

func (e *Emitter) flush() bool {
	if len(e.batch) == 0 {
		return !e.aborted
	}
	b := e.batch
	// Prefer a buffer the consumer has finished with; allocate only while
	// the circulation is still filling up.
	select {
	case nb := <-e.recycle:
		e.batch = nb
	default:
		e.batch = make([]Op, 0, batchSize)
	}
	select {
	case e.out <- b:
		return true
	case <-e.stop:
		e.aborted = true
		return false
	}
}

// Convenience emitters used heavily by workload kernels.

// Load emits an 8-byte load.
func (e *Emitter) Load(addr uint64) bool {
	return e.Emit(Op{Class: ClassLoad, Addr: addr, Size: 8})
}

// Store emits an 8-byte store.
func (e *Emitter) Store(addr uint64) bool {
	return e.Emit(Op{Class: ClassStore, Addr: addr, Size: 8})
}

// Flops emits n floating-point operations.
func (e *Emitter) Flops(n int) bool {
	for i := 0; i < n; i++ {
		if !e.Emit(Op{Class: ClassFloat}) {
			return false
		}
	}
	return true
}

// Ints emits n integer operations.
func (e *Emitter) Ints(n int) bool {
	for i := 0; i < n; i++ {
		if !e.Emit(Op{Class: ClassInt}) {
			return false
		}
	}
	return true
}

// Branch emits one branch with the given outcome.
func (e *Emitter) Branch(taken bool) bool {
	return e.Emit(Op{Class: ClassBranch, Taken: taken})
}

// NewKernelStream starts fn in a goroutine. fn must return when Emit
// reports false.
func NewKernelStream(fn func(*Emitter)) *KernelStream {
	return NewKernelStreamPool(fn, nil)
}

// NewKernelStreamPool is NewKernelStream drawing its batch buffers from
// pool (nil behaves like NewKernelStream). Close returns the stream's
// buffers to the pool, so consecutive streams on the same goroutine reuse
// one working set.
func NewKernelStreamPool(fn func(*Emitter), pool *OpPool) *KernelStream {
	k := &KernelStream{
		out:     make(chan []Op, 4),
		stop:    make(chan struct{}),
		recycle: make(chan []Op, 8),
		pool:    pool,
	}
	var first []Op
	if pool != nil {
		first = pool.get()
		// Prefill the recycle channel so the producer's startup ramp —
		// before the consumer returns anything — draws pooled buffers
		// instead of allocating its circulation from scratch.
		for i := 0; i < cap(k.recycle) && pool.Len() > 0; i++ {
			k.recycle <- pool.get()
		}
	} else {
		first = make([]Op, 0, batchSize)
	}
	em := &Emitter{
		batch:   first,
		out:     k.out,
		stop:    k.stop,
		recycle: k.recycle,
	}
	go func() {
		defer close(k.out)
		fn(em)
		em.flush()
	}()
	return k
}

// Next implements Stream.
func (k *KernelStream) Next(op *Op) bool {
	if k.done {
		return false
	}
	for k.pos >= len(k.cur) {
		b, ok := <-k.out
		if !ok {
			k.done = true
			return false
		}
		if cap(k.cur) > 0 {
			select {
			case k.recycle <- k.cur[:0]:
			default:
				if k.pool != nil {
					k.pool.put(k.cur)
				}
			}
		}
		k.cur, k.pos = b, 0
	}
	*op = k.cur[k.pos]
	k.pos++
	return true
}

// Close releases the kernel goroutine if the consumer stops early, and
// harvests the stream's batch buffers into its pool. It is idempotent and
// safe after natural exhaustion.
func (k *KernelStream) Close() {
	if k.stop != nil {
		select {
		case <-k.stop:
		default:
			close(k.stop)
		}
		// Drain so the producer's in-flight send unblocks. The producer has
		// exited once out closes, making the recycle channel ours alone.
		for b := range k.out {
			if k.pool != nil {
				k.pool.put(b)
			}
		}
		k.done = true
	}
	if k.pool != nil {
		if cap(k.cur) > 0 {
			k.pool.put(k.cur)
			k.cur = nil
		}
		for {
			select {
			case b := <-k.recycle:
				k.pool.put(b)
			default:
				return
			}
		}
	}
}
