package frontend

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
)

// Trace format: the magic header followed by one variable-length record per
// operation. Each record starts with a tag byte:
//
//	bits [2:0] class
//	bit  3     taken (branches)
//	bit  4     has memory address+size (set exactly for loads and stores)
//	bit  5     has registers
//	bits [7:6] reserved, zero
//
// followed (when flagged) by 8-byte little-endian address, 1-byte size, and
// 3 register bytes. PCs are not stored; replay regenerates synthetic PCs.
// The format trades compactness for simplicity — it is a simulation
// artifact, not an interchange format.
const traceMagic = "SSTTRC1\n"

const (
	tagClassMask = 0x07
	tagTaken     = 0x08
	tagHasMem    = 0x10
	tagHasRegs   = 0x20
	tagReserved  = 0xc0
)

// ErrTraceRecord reports a trace record TraceWriter cannot have written: an
// unknown class, reserved tag bits set, a load or store without its memory
// field (it would replay as an access to address 0 of size 0), or another
// class carrying one (its address would be dropped on re-recording).
var ErrTraceRecord = errors.New("frontend: malformed trace record")

// TraceWriter serializes a stream of Ops.
type TraceWriter struct {
	w     *bufio.Writer
	n     uint64
	wrote bool
}

// NewTraceWriter writes the header lazily on first record.
func NewTraceWriter(w io.Writer) *TraceWriter {
	return &TraceWriter{w: bufio.NewWriter(w)}
}

// Write appends one operation record.
func (t *TraceWriter) Write(op *Op) error {
	if !t.wrote {
		if _, err := t.w.WriteString(traceMagic); err != nil {
			return err
		}
		t.wrote = true
	}
	tag := byte(op.Class) & tagClassMask
	if op.Taken {
		tag |= tagTaken
	}
	hasMem := op.Class == ClassLoad || op.Class == ClassStore
	if hasMem {
		tag |= tagHasMem
	}
	hasRegs := op.Dst != 0 || op.Src1 != 0 || op.Src2 != 0
	if hasRegs {
		tag |= tagHasRegs
	}
	if err := t.w.WriteByte(tag); err != nil {
		return err
	}
	if hasMem {
		var buf [9]byte
		binary.LittleEndian.PutUint64(buf[:8], op.Addr)
		buf[8] = op.Size
		if _, err := t.w.Write(buf[:]); err != nil {
			return err
		}
	}
	if hasRegs {
		if _, err := t.w.Write([]byte{op.Dst, op.Src1, op.Src2}); err != nil {
			return err
		}
	}
	t.n++
	return nil
}

// N returns the number of records written.
func (t *TraceWriter) N() uint64 { return t.n }

// Flush drains buffered output; call it before closing the destination.
func (t *TraceWriter) Flush() error {
	if !t.wrote {
		if _, err := t.w.WriteString(traceMagic); err != nil {
			return err
		}
		t.wrote = true
	}
	return t.w.Flush()
}

// TraceStream replays a recorded trace as a Stream.
type TraceStream struct {
	r      *bufio.Reader
	err    error
	opened bool
	pc     uint64
}

// NewTraceStream reads records from r. Header validation happens on the
// first Next; Err reports malformed input.
func NewTraceStream(r io.Reader) *TraceStream {
	return &TraceStream{r: bufio.NewReader(r)}
}

// Err returns the first decode error (io.EOF is not an error).
func (t *TraceStream) Err() error { return t.err }

// Next implements Stream.
func (t *TraceStream) Next(op *Op) bool {
	if t.err != nil {
		return false
	}
	if !t.opened {
		hdr := make([]byte, len(traceMagic))
		if _, err := io.ReadFull(t.r, hdr); err != nil {
			t.err = fmt.Errorf("frontend: trace header: %w", err)
			return false
		}
		if string(hdr) != traceMagic {
			t.err = fmt.Errorf("frontend: bad trace magic %q", hdr)
			return false
		}
		t.opened = true
	}
	tag, err := t.r.ReadByte()
	if err == io.EOF {
		return false
	}
	if err != nil {
		t.err = err
		return false
	}
	cls := Class(tag & tagClassMask)
	if cls >= numClasses {
		t.err = fmt.Errorf("%w: bad class %d", ErrTraceRecord, cls)
		return false
	}
	if tag&tagReserved != 0 {
		t.err = fmt.Errorf("%w: reserved tag bits in %#02x", ErrTraceRecord, tag)
		return false
	}
	if isMem := cls == ClassLoad || cls == ClassStore; isMem != (tag&tagHasMem != 0) {
		t.err = fmt.Errorf("%w: %v record with memory flag %v", ErrTraceRecord, cls, !isMem)
		return false
	}
	t.pc += 4
	*op = Op{Class: cls, Taken: tag&tagTaken != 0, PC: t.pc}
	if tag&tagHasMem != 0 {
		var buf [9]byte
		if _, err := io.ReadFull(t.r, buf[:]); err != nil {
			t.err = fmt.Errorf("frontend: truncated trace record: %w", err)
			return false
		}
		op.Addr = binary.LittleEndian.Uint64(buf[:8])
		op.Size = buf[8]
	}
	if tag&tagHasRegs != 0 {
		var buf [3]byte
		if _, err := io.ReadFull(t.r, buf[:]); err != nil {
			t.err = fmt.Errorf("frontend: truncated trace record: %w", err)
			return false
		}
		op.Dst, op.Src1, op.Src2 = buf[0], buf[1], buf[2]
	}
	return true
}

// TeeStream passes an inner stream through while recording it, so a slow
// execution-driven run can be captured once and replayed cheaply.
type TeeStream struct {
	Inner Stream
	W     *TraceWriter
	err   error
}

// Err returns the first write error.
func (t *TeeStream) Err() error { return t.err }

// Next implements Stream.
func (t *TeeStream) Next(op *Op) bool {
	if !t.Inner.Next(op) {
		return false
	}
	if t.err == nil {
		t.err = t.W.Write(op)
	}
	return true
}
