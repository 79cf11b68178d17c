package sim_test

import (
	"bytes"
	"math"
	"os"
	"strings"
	"testing"

	"sst/internal/sim"
)

// --- encoding round trips ---

func TestEncoderDecoderRoundTrip(t *testing.T) {
	enc := sim.NewEncoder()
	enc.U64(0)
	enc.U64(1<<63 + 12345)
	enc.I64(-42)
	enc.I64(1 << 60)
	enc.Time(sim.Time(987654321))
	enc.Bool(true)
	enc.Bool(false)
	enc.F64(3.141592653589793)
	enc.F64(math.Copysign(0, -1))
	enc.String("hello, snapshot")
	enc.String("")
	enc.Blob([]byte{0xde, 0xad, 0xbe, 0xef})

	dec := sim.NewDecoder(enc.Bytes())
	if got := dec.U64(); got != 0 {
		t.Errorf("U64 = %d, want 0", got)
	}
	if got := dec.U64(); got != 1<<63+12345 {
		t.Errorf("U64 = %d", got)
	}
	if got := dec.I64(); got != -42 {
		t.Errorf("I64 = %d, want -42", got)
	}
	if got := dec.I64(); got != 1<<60 {
		t.Errorf("I64 = %d", got)
	}
	if got := dec.Time(); got != sim.Time(987654321) {
		t.Errorf("Time = %v", got)
	}
	if !dec.Bool() || dec.Bool() {
		t.Error("Bool round trip failed")
	}
	if got := dec.F64(); got != 3.141592653589793 {
		t.Errorf("F64 = %v", got)
	}
	if got := dec.F64(); got != 0 || !math.Signbit(got) {
		t.Errorf("F64 -0.0 = %v (bits must survive)", got)
	}
	if got := dec.String(); got != "hello, snapshot" {
		t.Errorf("String = %q", got)
	}
	if got := dec.String(); got != "" {
		t.Errorf("String = %q, want empty", got)
	}
	if got := dec.Blob(); !bytes.Equal(got, []byte{0xde, 0xad, 0xbe, 0xef}) {
		t.Errorf("Blob = %x", got)
	}
	if err := dec.Err(); err != nil {
		t.Fatalf("Err = %v", err)
	}
	if dec.Remaining() != 0 {
		t.Errorf("Remaining = %d, want 0", dec.Remaining())
	}
}

func TestDecoderStickyError(t *testing.T) {
	enc := sim.NewEncoder()
	enc.U64(7)
	dec := sim.NewDecoder(enc.Bytes())
	dec.U64()
	dec.U64() // past the end
	if dec.Err() == nil {
		t.Fatal("no error after reading past the end")
	}
	if got := dec.U64(); got != 0 {
		t.Errorf("post-error read = %d, want 0", got)
	}
	// Truncated blob: length says 100, only 1 byte present.
	enc2 := sim.NewEncoder()
	enc2.U64(100)
	dec2 := sim.NewDecoder(append(enc2.Bytes(), 0xff))
	if dec2.Blob() != nil || dec2.Err() == nil {
		t.Fatal("truncated blob not rejected")
	}
}

func TestSnapshotContainer(t *testing.T) {
	body := []byte("snapshot body bytes")
	var buf bytes.Buffer
	if err := sim.WriteSnapshot(&buf, body); err != nil {
		t.Fatal(err)
	}
	got, err := sim.ReadSnapshot(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, body) {
		t.Fatalf("body round trip: %q != %q", got, body)
	}
	// Flip a body byte: checksum must catch it.
	corrupt := append([]byte(nil), buf.Bytes()...)
	corrupt[20] ^= 0x40
	if _, err := sim.ReadSnapshot(bytes.NewReader(corrupt)); err == nil || !strings.Contains(err.Error(), "checksum") {
		t.Fatalf("corrupt body: err = %v, want checksum mismatch", err)
	}
	// Bad magic.
	bad := append([]byte(nil), buf.Bytes()...)
	bad[0] = 'X'
	if _, err := sim.ReadSnapshot(bytes.NewReader(bad)); err == nil || !strings.Contains(err.Error(), "magic") {
		t.Fatalf("bad magic: err = %v", err)
	}
	// Truncated file.
	if _, err := sim.ReadSnapshot(bytes.NewReader(buf.Bytes()[:10])); err == nil {
		t.Fatal("truncated container not rejected")
	}
}

// --- a checkpointable model ---

// pinger exercises every ownership mechanism: clock ticks, EventSet
// self-events, link deliveries and RNG state.
type pinger struct {
	name  string
	eng   *sim.Engine
	set   *sim.EventSet
	out   *sim.Port
	rng   *sim.RNG
	count uint64
	sum   uint64
}

func (p *pinger) Name() string { return p.name }

func (p *pinger) tick(cycle sim.Cycle) bool {
	p.sum = p.sum*0x100000001b3 ^ p.rng.Uint64()
	if cycle%3 == 0 {
		p.set.ScheduleAt(p.eng.Now()+7*sim.Nanosecond, sim.PrioLink, uint64(cycle))
	}
	return true
}

func (p *pinger) fire(payload any) {
	v := payload.(uint64)
	p.sum ^= v * 0x9e3779b97f4a7c15
	p.out.Send(int(v & 0xffff))
}

func (p *pinger) recv(payload any) {
	p.count++
	p.sum = p.sum*0x100000001b3 ^ (uint64(p.eng.Now()) + uint64(int64(payload.(int))))
}

func (p *pinger) SaveState(enc *sim.Encoder) {
	enc.U64(p.count)
	enc.U64(p.sum)
	p.rng.SaveState(enc)
	p.set.Save(enc)
}

func (p *pinger) LoadState(dec *sim.Decoder) error {
	p.count = dec.U64()
	p.sum = dec.U64()
	if err := p.rng.LoadState(dec); err != nil {
		return err
	}
	return p.set.Load(dec)
}

func (p *pinger) PendingOwned() int { return p.set.PendingOwned() }

// buildPingModel constructs the two-pinger model; construction is
// deterministic, which is the rebuild contract Restore depends on.
func buildPingModel(snapshots bool) (*sim.Simulation, *pinger, *pinger) {
	s := sim.New()
	if snapshots {
		s.Engine().EnableSnapshots()
	}
	a := &pinger{name: "a", eng: s.Engine(), rng: sim.NewRNG(11)}
	b := &pinger{name: "b", eng: s.Engine(), rng: sim.NewRNG(22)}
	a.set = sim.NewEventSet(s.Engine(), "a.set", a.fire)
	b.set = sim.NewEventSet(s.Engine(), "b.set", b.fire)
	s.Add(a)
	s.Add(b)
	pa, pb := s.Connect("ab", 5*sim.Nanosecond)
	a.out, b.out = pa, pb
	pa.SetHandler(a.recv)
	pb.SetHandler(b.recv)
	clk := s.Clock(500 * sim.MHz)
	clk.RegisterNamed("a", a.tick)
	clk.RegisterNamed("b", b.tick)
	return s, a, b
}

type pingSig struct {
	ACount, ASum, BCount, BSum uint64
	Now                        sim.Time
	Handled                    uint64
}

func pingSigOf(s *sim.Simulation, a, b *pinger) pingSig {
	return pingSig{a.count, a.sum, b.count, b.sum, s.Now(), s.Engine().Handled()}
}

func TestEngineSnapshotRestoreBitIdentical(t *testing.T) {
	const barrier = 1537 * sim.Nanosecond
	const end = 5 * sim.Microsecond

	// Reference: uninterrupted run, snapshots enabled (tracking on) and
	// disabled (tracking off) must agree — tracking is non-intrusive.
	sPlain, aPlain, bPlain := buildPingModel(false)
	sPlain.Run(end)
	want := pingSigOf(sPlain, aPlain, bPlain)

	sRef, aRef, bRef := buildPingModel(true)
	sRef.Run(end)
	if got := pingSigOf(sRef, aRef, bRef); got != want {
		t.Fatalf("snapshot tracking perturbed the run: %+v != %+v", got, want)
	}

	// Crash run: stop at the barrier, snapshot, discard.
	s1, _, _ := buildPingModel(true)
	s1.Run(barrier)
	var file bytes.Buffer
	if err := s1.Engine().SaveTo(&file); err != nil {
		t.Fatalf("SaveTo: %v", err)
	}
	// Restore into a freshly built model and continue.
	s2, a2, b2 := buildPingModel(true)
	if err := s2.Engine().LoadFrom(bytes.NewReader(file.Bytes())); err != nil {
		t.Fatalf("LoadFrom: %v", err)
	}
	if s2.Now() != barrier {
		t.Fatalf("restored clock %v, want %v", s2.Now(), barrier)
	}
	s2.Run(end)
	if got := pingSigOf(s2, a2, b2); got != want {
		t.Fatalf("restored run diverged: %+v != %+v", got, want)
	}

	// Snapshots must also be byte-identical when taken at the same barrier
	// of the restored run's past (determinism of the encoding itself).
	s3, _, _ := buildPingModel(true)
	s3.Run(barrier)
	var file2 bytes.Buffer
	if err := s3.Engine().SaveTo(&file2); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(file.Bytes(), file2.Bytes()) {
		t.Fatal("two snapshots of identical runs differ byte-for-byte")
	}
}

// TestSnapshotFromHeapTickEngine pins the snapshot format across the move
// of clock ticks off the event queue. testdata/clock_armed_v2.snap was
// written by the last engine whose ticks were queue events (commit
// cb7375d), from buildPingModel(true) run to 1537 ns: one armed clock, two
// pending EventSet events, two link deliveries in flight. This engine must
// continue from it to the uninterrupted run's final state, and must write
// the same bytes when it snapshots that barrier itself.
func TestSnapshotFromHeapTickEngine(t *testing.T) {
	const barrier = 1537 * sim.Nanosecond
	const end = 5 * sim.Microsecond
	old, err := os.ReadFile("testdata/clock_armed_v2.snap")
	if err != nil {
		t.Fatal(err)
	}

	sRef, aRef, bRef := buildPingModel(true)
	sRef.Run(end)
	want := pingSigOf(sRef, aRef, bRef)

	s, a, b := buildPingModel(true)
	if err := s.Engine().LoadFrom(bytes.NewReader(old)); err != nil {
		t.Fatalf("LoadFrom: %v", err)
	}
	if s.Now() != barrier || s.Engine().Pending() != 5 {
		t.Fatalf("restored at %v with %d pending, want %v with 5 (tick + 2 set + 2 link)",
			s.Now(), s.Engine().Pending(), barrier)
	}
	s.Run(end)
	if got := pingSigOf(s, a, b); got != want {
		t.Fatalf("run restored from the old engine's snapshot diverged: %+v != %+v", got, want)
	}

	s2, _, _ := buildPingModel(true)
	s2.Run(barrier)
	var mine bytes.Buffer
	if err := s2.Engine().SaveTo(&mine); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(mine.Bytes(), old) {
		t.Fatalf("snapshot at %v differs from the old engine's bytes:\n got %x\nwant %x", barrier, mine.Bytes(), old)
	}
}

func TestSnapshotEveryBarrierBitIdentical(t *testing.T) {
	const end = 2 * sim.Microsecond
	sPlain, aPlain, bPlain := buildPingModel(false)
	sPlain.Run(end)
	want := pingSigOf(sPlain, aPlain, bPlain)

	for barrier := 100 * sim.Nanosecond; barrier < end; barrier += 333 * sim.Nanosecond {
		s1, _, _ := buildPingModel(true)
		s1.Run(barrier)
		var file bytes.Buffer
		if err := s1.Engine().SaveTo(&file); err != nil {
			t.Fatalf("barrier %v: SaveTo: %v", barrier, err)
		}
		s2, a2, b2 := buildPingModel(true)
		if err := s2.Engine().LoadFrom(&file); err != nil {
			t.Fatalf("barrier %v: LoadFrom: %v", barrier, err)
		}
		s2.Run(end)
		if got := pingSigOf(s2, a2, b2); got != want {
			t.Fatalf("barrier %v: restored run diverged: %+v != %+v", barrier, got, want)
		}
	}
}

func TestSnapshotAccountingRejectsUnownedEvents(t *testing.T) {
	s, _, _ := buildPingModel(true)
	s.Run(500 * sim.Nanosecond)
	// A raw closure nobody owns: snapshot must refuse, not silently drop.
	s.Engine().Schedule(10*sim.Nanosecond, func(any) {}, nil)
	err := s.Engine().Snapshot(sim.NewEncoder())
	if err == nil || !strings.Contains(err.Error(), "accounting") {
		t.Fatalf("unowned event: err = %v, want accounting failure", err)
	}
}

func TestSnapshotUnregisteredPayload(t *testing.T) {
	type opaque struct{ x int }
	s, a, _ := buildPingModel(true)
	s.Run(100 * sim.Nanosecond)
	// An EventSet payload with no codec: tracked (accounting passes) but
	// unencodable — Snapshot must fail cleanly, naming the type.
	a.set.ScheduleAt(s.Now()+sim.Microsecond, sim.PrioLink, opaque{1})
	err := s.Engine().Snapshot(sim.NewEncoder())
	if err == nil || !strings.Contains(err.Error(), "opaque") {
		t.Fatalf("unregistered payload: err = %v, want codec failure naming the type", err)
	}
}

// TestRestoreRejectsImpossibleTick: a clock blob whose pending tick carries
// a sequence number the restored engine has not issued yet (or a cycle
// behind the restored time) is a corrupt snapshot, reported as an error.
func TestRestoreRejectsImpossibleTick(t *testing.T) {
	for _, tc := range []struct {
		name           string
		now            sim.Time
		cycle, tickSeq uint64
	}{
		{"sequence from the future", 0, 0, 7},
		{"cycle in the past", 100 * sim.Nanosecond, 3, 0},
	} {
		s := sim.New()
		s.Engine().EnableSnapshots()
		s.Clock(500 * sim.MHz).Register(func(sim.Cycle) bool { return true })
		clk := sim.NewEncoder()
		clk.U64(tc.cycle)
		clk.Bool(true) // armed
		clk.U64(tc.tickSeq)
		clk.U64(1) // handlers
		enc := sim.NewEncoder()
		enc.Time(tc.now)
		enc.U64(1) // next sequence number
		enc.U64(0) // handled
		enc.U64(1) // peak
		enc.U64(1) // components
		enc.String("clock@500MHz")
		enc.Blob(clk.Bytes())
		err := s.Engine().Restore(sim.NewDecoder(enc.Bytes()))
		if err == nil || !strings.Contains(err.Error(), "restored tick") {
			t.Errorf("%s: err = %v, want a restored-tick error", tc.name, err)
		}
	}
}

func TestRestoreShapeMismatch(t *testing.T) {
	s1, _, _ := buildPingModel(true)
	s1.Run(200 * sim.Nanosecond)
	enc := sim.NewEncoder()
	if err := s1.Engine().Snapshot(enc); err != nil {
		t.Fatal(err)
	}
	// A model with an extra component cannot load this snapshot.
	s2 := sim.New()
	s2.Engine().EnableSnapshots()
	a := &pinger{name: "a", eng: s2.Engine(), rng: sim.NewRNG(1)}
	a.set = sim.NewEventSet(s2.Engine(), "a.set", a.fire)
	s2.Add(a)
	if err := s2.Engine().Restore(sim.NewDecoder(enc.Bytes())); err == nil {
		t.Fatal("shape mismatch not rejected")
	}
}

func TestEventSetPassthroughWhenDisabled(t *testing.T) {
	e := sim.NewEngine()
	fired := 0
	set := sim.NewEventSet(e, "x", func(any) { fired++ })
	set.ScheduleAt(10, sim.PrioLink, nil)
	if set.PendingOwned() != 0 {
		t.Fatal("disabled set tracks events")
	}
	e.RunAll()
	if fired != 1 {
		t.Fatalf("fired = %d", fired)
	}
}

func TestScheduleRestoredAtOutsideRestorePanics(t *testing.T) {
	e := sim.NewEngine()
	e.EnableSnapshots()
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	e.ScheduleRestoredAt(0, sim.PrioLink, 0, "", func(any) {}, nil)
}
