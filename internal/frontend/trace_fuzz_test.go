package frontend

import (
	"bytes"
	"errors"
	"testing"
)

// traceOps is TestTraceRoundTrip's stream generator: one op per raw word,
// the class, branch direction, address and registers all drawn from it.
func traceOps(raw []uint32) []Op {
	var ops []Op
	for _, r := range raw {
		op := Op{Class: Class(r % uint32(numClasses))}
		switch op.Class {
		case ClassLoad, ClassStore:
			op.Addr = uint64(r) * 977
			op.Size = 8
		case ClassBranch:
			op.Taken = r&1 == 0
		}
		op.Dst = uint8(r>>8) & 31
		op.Src1 = uint8(r>>16) & 31
		op.Src2 = uint8(r>>24) & 31
		ops = append(ops, op)
	}
	return ops
}

// encodeTrace records ops with TraceWriter.
func encodeTrace(t testing.TB, ops []Op) []byte {
	t.Helper()
	var buf bytes.Buffer
	w := NewTraceWriter(&buf)
	for i := range ops {
		if err := w.Write(&ops[i]); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// decodeTrace replays data until the stream ends or fails, returning the
// ops it accepted and the stream's error.
func decodeTrace(data []byte) ([]Op, error) {
	r := NewTraceStream(bytes.NewReader(data))
	var ops []Op
	var op Op
	for r.Next(&op) {
		ops = append(ops, op)
	}
	return ops, r.Err()
}

// FuzzTraceStream feeds arbitrary bytes to the trace decoder — the reader
// `sst-trace replay` hands user files to. It must never panic, and the ops
// it accepts must survive re-recording: encoding them with TraceWriter and
// decoding again yields the same ops without error, and encoding those
// reproduces the same bytes.
func FuzzTraceStream(f *testing.F) {
	for _, raw := range [][]uint32{nil, {0}, {0, 1, 2, 3, 4, 5}, {0xdeadbeef, 0x12345678, 7, 0xffffffff, 977}} {
		f.Add(encodeTrace(f, traceOps(raw)))
	}
	for _, tc := range malformedTraceRecords {
		f.Add(append([]byte(traceMagic), tc.rec...))
	}
	f.Add([]byte("NOTATRACE"))
	f.Fuzz(func(t *testing.T, data []byte) {
		ops, _ := decodeTrace(data)
		enc := encodeTrace(t, ops)
		again, err := decodeTrace(enc)
		if err != nil {
			t.Fatalf("re-recorded trace does not decode: %v", err)
		}
		if len(again) != len(ops) {
			t.Fatalf("re-recorded trace holds %d ops, decoded %d", len(again), len(ops))
		}
		for i := range ops {
			if again[i] != ops[i] {
				t.Fatalf("op %d re-recorded as %+v, decoded %+v", i, again[i], ops[i])
			}
		}
		if enc2 := encodeTrace(t, again); !bytes.Equal(enc2, enc) {
			t.Fatalf("re-encoding is not a fixed point:\n% x\n% x", enc, enc2)
		}
	})
}

// malformedTraceRecords are record shapes TraceWriter never writes; each
// follows the trace header and must be rejected, not replayed. The memory
// fields are nonzero so a dropped address would show on re-recording.
var malformedTraceRecords = []struct {
	name string
	rec  []byte
}{
	{"load without memory field", []byte{byte(ClassLoad)}},
	{"store without memory field", []byte{byte(ClassStore) | tagHasRegs, 1, 2, 3}},
	{"int with memory field", []byte{byte(ClassInt) | tagHasMem, 1, 2, 3, 4, 5, 6, 7, 8, 8}},
	{"branch with memory field", []byte{byte(ClassBranch) | tagTaken | tagHasMem, 0x40, 0, 0, 0, 0, 0, 0, 0, 4}},
	{"reserved bit 6", []byte{byte(ClassNop) | 0x40}},
	{"reserved bit 7", []byte{byte(ClassLoad) | tagHasMem | 0x80, 1, 0, 0, 0, 0, 0, 0, 0, 8}},
	{"unknown class", []byte{7}},
}

func TestTraceRejectsMalformedRecords(t *testing.T) {
	for _, tc := range malformedTraceRecords {
		t.Run(tc.name, func(t *testing.T) {
			ops, err := decodeTrace(append([]byte(traceMagic), tc.rec...))
			if len(ops) != 0 || !errors.Is(err, ErrTraceRecord) {
				t.Fatalf("decoded %+v, err %v; want no op and an ErrTraceRecord", ops, err)
			}
		})
	}
}
