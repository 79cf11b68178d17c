package sim

// The snapshot wire format: the deterministic Encoder/Decoder pair, and the
// registry of codecs that tracked events' payloads are written with.

import (
	"encoding/binary"
	"fmt"
	"math"
	"reflect"
)

// Encoder writes the snapshot wire format: unsigned varints (zigzag for
// signed), length-prefixed strings and blobs. The encoding has no
// map-order, pointer or host dependence, so the same state always produces
// the same bytes.
type Encoder struct{ buf []byte }

// NewEncoder returns an empty encoder.
func NewEncoder() *Encoder { return &Encoder{} }

// Bytes returns the encoded buffer.
func (e *Encoder) Bytes() []byte { return e.buf }

// Reset truncates the encoder for reuse, keeping its backing buffer, so an
// encoder reused for every component's state allocates nothing once the
// buffer has grown to steady state.
func (e *Encoder) Reset() { e.buf = e.buf[:0] }

// U64 appends an unsigned varint.
func (e *Encoder) U64(v uint64) { e.buf = binary.AppendUvarint(e.buf, v) }

// I64 appends a zigzag-encoded signed varint.
func (e *Encoder) I64(v int64) { e.buf = binary.AppendVarint(e.buf, v) }

// Time appends a simulated timestamp.
func (e *Encoder) Time(t Time) { e.U64(uint64(t)) }

// Bool appends a boolean.
func (e *Encoder) Bool(b bool) {
	if b {
		e.buf = append(e.buf, 1)
	} else {
		e.buf = append(e.buf, 0)
	}
}

// F64 appends a float64 by its exact IEEE-754 bits.
func (e *Encoder) F64(v float64) { e.U64(math.Float64bits(v)) }

// String appends a length-prefixed string.
func (e *Encoder) String(s string) {
	e.U64(uint64(len(s)))
	e.buf = append(e.buf, s...)
}

// Blob appends a length-prefixed byte slice.
func (e *Encoder) Blob(b []byte) {
	e.U64(uint64(len(b)))
	e.buf = append(e.buf, b...)
}

// Decoder reads the Encoder's format with a sticky error: after the first
// malformed read every subsequent read returns a zero value, and Err
// reports the failure.
type Decoder struct {
	b   []byte
	err error
}

// NewDecoder reads from b.
func NewDecoder(b []byte) *Decoder { return &Decoder{b: b} }

// Err returns the first decode error, or nil.
func (d *Decoder) Err() error { return d.err }

// Remaining returns the number of unread bytes.
func (d *Decoder) Remaining() int { return len(d.b) }

func (d *Decoder) fail(what string) {
	if d.err == nil {
		d.err = fmt.Errorf("sim: snapshot decode: truncated or malformed %s", what)
	}
}

// U64 reads an unsigned varint.
func (d *Decoder) U64() uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.b)
	if n <= 0 {
		d.fail("uvarint")
		return 0
	}
	d.b = d.b[n:]
	return v
}

// I64 reads a zigzag-encoded signed varint.
func (d *Decoder) I64() int64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Varint(d.b)
	if n <= 0 {
		d.fail("varint")
		return 0
	}
	d.b = d.b[n:]
	return v
}

// Time reads a simulated timestamp.
func (d *Decoder) Time() Time { return Time(d.U64()) }

// Bool reads a boolean.
func (d *Decoder) Bool() bool {
	if d.err != nil {
		return false
	}
	if len(d.b) == 0 {
		d.fail("bool")
		return false
	}
	v := d.b[0]
	d.b = d.b[1:]
	return v != 0
}

// F64 reads a float64.
func (d *Decoder) F64() float64 { return math.Float64frombits(d.U64()) }

// String reads a length-prefixed string.
func (d *Decoder) String() string { return string(d.Blob()) }

// Blob reads a length-prefixed byte slice (aliasing the decoder's buffer).
func (d *Decoder) Blob() []byte {
	n := d.U64()
	if d.err != nil {
		return nil
	}
	if uint64(len(d.b)) < n {
		d.fail("blob")
		return nil
	}
	b := d.b[:n]
	d.b = d.b[n:]
	return b
}

// --- Payload codecs ---

// Payloads of tracked events (link messages, EventSet payloads) are
// serialized through a registry keyed by concrete type on encode and by
// codec name on decode. The builtin scalar types are pre-registered;
// component packages register their own message types in init.

type payloadCodec struct {
	name string
	enc  func(*Encoder, any)
	dec  func(*Decoder) (any, error)
}

var (
	payloadByType = map[reflect.Type]*payloadCodec{}
	payloadByName = map[string]*payloadCodec{}
)

// payloadNil names the nil payload in the wire format.
const payloadNil = "_nil"

// RegisterPayload adds a snapshot codec for the concrete type of sample
// under the given stable name. Duplicate names or types panic: both sides
// of the registry must stay unambiguous for restore to be well-defined.
// Call it only from a package init function: the registry has no lock, so
// it must be complete before any goroutine encodes or decodes a payload
// (the ranks of a parallel run read it concurrently).
func RegisterPayload(name string, sample any, enc func(*Encoder, any), dec func(*Decoder) (any, error)) {
	t := reflect.TypeOf(sample)
	if t == nil || name == "" || name == payloadNil {
		panic("sim: RegisterPayload needs a non-nil sample and a nonempty name")
	}
	if _, dup := payloadByName[name]; dup {
		panic(fmt.Sprintf("sim: duplicate payload codec name %q", name))
	}
	if _, dup := payloadByType[t]; dup {
		panic(fmt.Sprintf("sim: duplicate payload codec for type %v", t))
	}
	c := &payloadCodec{name: name, enc: enc, dec: dec}
	payloadByType[t] = c
	payloadByName[name] = c
}

// EncodePayload writes a payload with its codec name. Unregistered payload
// types panic (recovered into an error by Engine.Snapshot) naming the type.
func EncodePayload(e *Encoder, v any) {
	if v == nil {
		e.String(payloadNil)
		return
	}
	c := payloadByType[reflect.TypeOf(v)]
	if c == nil {
		panic(fmt.Sprintf("sim: payload type %T has no snapshot codec (register one with sim.RegisterPayload)", v))
	}
	e.String(c.name)
	c.enc(e, v)
}

// DecodePayload reads a payload written by EncodePayload.
func DecodePayload(d *Decoder) (any, error) {
	name := d.String()
	if err := d.Err(); err != nil {
		return nil, err
	}
	if name == payloadNil {
		return nil, nil
	}
	c := payloadByName[name]
	if c == nil {
		return nil, fmt.Errorf("sim: snapshot payload codec %q not registered in this build", name)
	}
	return c.dec(d)
}

func init() {
	RegisterPayload("int", int(0),
		func(e *Encoder, v any) { e.I64(int64(v.(int))) },
		func(d *Decoder) (any, error) { return int(d.I64()), d.Err() })
	RegisterPayload("i64", int64(0),
		func(e *Encoder, v any) { e.I64(v.(int64)) },
		func(d *Decoder) (any, error) { return d.I64(), d.Err() })
	RegisterPayload("u64", uint64(0),
		func(e *Encoder, v any) { e.U64(v.(uint64)) },
		func(d *Decoder) (any, error) { return d.U64(), d.Err() })
	RegisterPayload("u32", uint32(0),
		func(e *Encoder, v any) { e.U64(uint64(v.(uint32))) },
		func(d *Decoder) (any, error) { return uint32(d.U64()), d.Err() })
	RegisterPayload("str", "",
		func(e *Encoder, v any) { e.String(v.(string)) },
		func(d *Decoder) (any, error) { return d.String(), d.Err() })
	RegisterPayload("bool", false,
		func(e *Encoder, v any) { e.Bool(v.(bool)) },
		func(d *Decoder) (any, error) { return d.Bool(), d.Err() })
	RegisterPayload("f64", float64(0),
		func(e *Encoder, v any) { e.F64(v.(float64)) },
		func(d *Decoder) (any, error) { return d.F64(), d.Err() })
	RegisterPayload("time", Time(0),
		func(e *Encoder, v any) { e.Time(v.(Time)) },
		func(d *Decoder) (any, error) { return d.Time(), d.Err() })
}
