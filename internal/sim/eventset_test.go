package sim_test

import (
	"bytes"
	"os"
	"sort"
	"testing"

	"sst/internal/sim"
)

// --- the owned-event golden ---

// ledgerNode owns pending events two ways: its EventSet carries
// self-events scheduled at offsets that run backwards, so the set's
// sequence order is not its dispatch order, and every event it fires sends
// on a tracked link with a varying extra delay, so the link's in-flight
// deliveries are out of sequence order too.
type ledgerNode struct {
	name    string
	eng     *sim.Engine
	set     *sim.EventSet
	out     *sim.Port
	offsets []sim.Time
	recvd   uint64
	sum     uint64
}

func (n *ledgerNode) Name() string { return n.name }

func (n *ledgerNode) tick(c sim.Cycle) bool {
	if c%2 == 0 {
		off := n.offsets[(c/2)%sim.Cycle(len(n.offsets))]
		n.set.ScheduleAt(n.eng.Now()+off, sim.PrioLink+sim.Priority(c%3), uint64(c))
	}
	return true
}

func (n *ledgerNode) fire(payload any) {
	v := payload.(uint64)
	n.sum = n.sum*0x100000001b3 ^ v ^ uint64(n.eng.Now())
	n.out.SendDelayed(sim.Time(v%5)*sim.Nanosecond, int(v))
}

func (n *ledgerNode) recv(payload any) {
	n.recvd++
	n.sum = n.sum*0x100000001b3 ^ (uint64(n.eng.Now()) + uint64(payload.(int)))
}

func (n *ledgerNode) SaveState(enc *sim.Encoder) {
	enc.U64(n.recvd)
	enc.U64(n.sum)
	n.set.Save(enc)
}

func (n *ledgerNode) LoadState(dec *sim.Decoder) error {
	n.recvd = dec.U64()
	n.sum = dec.U64()
	return n.set.Load(dec)
}

func (n *ledgerNode) PendingOwned() int { return n.set.PendingOwned() }

// buildLedgerModel wires nodes x and y over a tracked 3 ns link, both
// ticking on one 1 GHz clock.
func buildLedgerModel() (*sim.Simulation, *ledgerNode, *ledgerNode) {
	s := sim.New()
	s.Engine().EnableSnapshots()
	ns := sim.Nanosecond
	x := &ledgerNode{name: "x", eng: s.Engine(), offsets: []sim.Time{37 * ns, 11 * ns, 23 * ns, 5 * ns}}
	y := &ledgerNode{name: "y", eng: s.Engine(), offsets: []sim.Time{4 * ns, 29 * ns, 13 * ns, 41 * ns, 2 * ns}}
	x.set = sim.NewEventSet(s.Engine(), "x.set", x.fire)
	y.set = sim.NewEventSet(s.Engine(), "y.set", y.fire)
	s.Add(x)
	s.Add(y)
	px, py := s.Connect("xy", 3*ns)
	x.out, y.out = px, py
	px.SetHandler(x.recv)
	py.SetHandler(y.recv)
	clk := s.Clock(sim.GHz)
	clk.RegisterNamed("x", x.tick)
	clk.RegisterNamed("y", y.tick)
	return s, x, y
}

type ledgerSig struct {
	XRecvd, XSum, YRecvd, YSum uint64
	Now                        sim.Time
	Handled                    uint64
}

func ledgerSigOf(s *sim.Simulation, x, y *ledgerNode) ledgerSig {
	return ledgerSig{x.recvd, x.sum, y.recvd, y.sum, s.Now(), s.Engine().Handled()}
}

// The golden's barrier and the continuation's end, and the final state the
// engine that wrote the golden reached at the end.
const (
	ledgerBarrier = 61500 * sim.Picosecond
	ledgerEnd     = 300 * sim.Nanosecond
)

var ledgerWant = ledgerSig{
	XRecvd: 139, XSum: 0x44812d12bbc67e5e,
	YRecvd: 139, YSum: 0x837f37060edab1aa,
	Now: ledgerEnd, Handled: 862,
}

// TestOwnedEventLedgerGolden pins the bytes of both owned-event mechanisms.
// testdata/ledger_v1.snap was written by the engine whose EventSet and link
// tracking kept their pending events in maps sorted on save, from
// buildLedgerModel run to ledgerBarrier: both sets hold events whose
// sequence order differs from their time order, the link has deliveries in
// flight both ways, and many events of each have already dispatched. This
// engine must finish from it with that engine's final state, and must write
// the golden's bytes back both from a restore of it and from its own run to
// the barrier.
func TestOwnedEventLedgerGolden(t *testing.T) {
	golden, err := os.ReadFile("testdata/ledger_v1.snap")
	if err != nil {
		t.Fatal(err)
	}

	s, x, y := buildLedgerModel()
	if err := s.Engine().LoadFrom(bytes.NewReader(golden)); err != nil {
		t.Fatalf("LoadFrom: %v", err)
	}
	if s.Now() != ledgerBarrier {
		t.Fatalf("restored at %v, want %v", s.Now(), ledgerBarrier)
	}
	var resaved bytes.Buffer
	if err := s.Engine().SaveTo(&resaved); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(resaved.Bytes(), golden) {
		t.Fatalf("re-save of the restored golden differs:\n got %x\nwant %x", resaved.Bytes(), golden)
	}
	s.Run(ledgerEnd)
	if got := ledgerSigOf(s, x, y); got != ledgerWant {
		t.Fatalf("run restored from the golden ended at %+v, want %+v", got, ledgerWant)
	}

	s2, _, _ := buildLedgerModel()
	s2.Run(ledgerBarrier)
	var mine bytes.Buffer
	if err := s2.Engine().SaveTo(&mine); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(mine.Bytes(), golden) {
		t.Fatalf("snapshot at %v differs from the golden:\n got %x\nwant %x", ledgerBarrier, mine.Bytes(), golden)
	}
}

// --- the ledger against its map+sort oracle ---

// oracleEvent is one pending event as the oracle records it.
type oracleEvent struct {
	at   sim.Time
	prio sim.Priority
	toB  bool
	id   uint64
}

// ledgerOracle is the owned-event ledger as first written: a map keyed by
// sequence number whose keys are sorted on every save. It is the reference
// FuzzEventSetLedger holds EventSet and link tracking to, byte for byte.
type ledgerOracle map[uint64]oracleEvent

func (o ledgerOracle) seqs() []uint64 {
	seqs := make([]uint64, 0, len(o))
	for seq := range o {
		seqs = append(seqs, seq)
	}
	sort.Slice(seqs, func(i, j int) bool { return seqs[i] < seqs[j] })
	return seqs
}

// saveSet writes what EventSet.Save must: the count, then (seq, at, prio,
// payload) in sequence order.
func (o ledgerOracle) saveSet(enc *sim.Encoder) {
	enc.U64(uint64(len(o)))
	for _, seq := range o.seqs() {
		ev := o[seq]
		enc.U64(seq)
		enc.Time(ev.at)
		enc.I64(int64(ev.prio))
		sim.EncodePayload(enc, ev.id)
	}
}

// saveLink writes what Link.SaveState must: the count, then (seq, at, toB,
// payload) in sequence order over both directions.
func (o ledgerOracle) saveLink(enc *sim.Encoder) {
	enc.U64(uint64(len(o)))
	for _, seq := range o.seqs() {
		ev := o[seq]
		enc.U64(seq)
		enc.Time(ev.at)
		enc.Bool(ev.toB)
		sim.EncodePayload(enc, ev.id)
	}
}

// retire removes the pending event carrying id, reporting whether it was
// there.
func (o ledgerOracle) retire(id uint64) bool {
	for seq, ev := range o {
		if ev.id == id {
			delete(o, seq)
			return true
		}
	}
	return false
}

// setOwner registers one EventSet with the engine's checkpoint registry.
type setOwner struct{ set *sim.EventSet }

func (o *setOwner) Name() string                     { return "owner" }
func (o *setOwner) SaveState(enc *sim.Encoder)       { o.set.Save(enc) }
func (o *setOwner) LoadState(dec *sim.Decoder) error { return o.set.Load(dec) }
func (o *setOwner) PendingOwned() int                { return o.set.PendingOwned() }

// ledgerRig is the fuzzed model: one EventSet and one tracked link on a
// snapshot-enabled simulation, mirrored by two oracles. A restore rebuilds
// the model; the oracles carry over, since the restored engine holds the
// same pending events.
type ledgerRig struct {
	t         *testing.T
	s         *sim.Simulation
	owner     *setOwner
	a, b      *sim.Port
	set, link ledgerOracle
	nextID    uint64
}

func (r *ledgerRig) build() {
	r.s = sim.New()
	r.s.Engine().EnableSnapshots()
	r.owner = &setOwner{}
	r.owner.set = sim.NewEventSet(r.s.Engine(), "set", func(p any) { r.retire(r.set, p) })
	r.s.Add(r.owner)
	r.a, r.b = r.s.Connect("l", 3)
	r.a.SetHandler(func(p any) { r.retire(r.link, p) })
	r.b.SetHandler(func(p any) { r.retire(r.link, p) })
}

func (r *ledgerRig) retire(o ledgerOracle, p any) {
	if !o.retire(p.(uint64)) {
		r.t.Fatalf("event %d dispatched but not pending in the oracle", p)
	}
}

// send puts a delivery in flight from p, recording it in the link oracle.
func (r *ledgerRig) send(p *sim.Port, extra sim.Time, toB bool) {
	e := r.s.Engine()
	r.link[e.NextSeq()] = oracleEvent{at: e.Now() + 3 + extra, toB: toB, id: r.nextID}
	p.SendDelayed(extra, r.nextID)
	r.nextID++
}

// check compares both ledgers' saved bytes and counts with the oracles.
func (r *ledgerRig) check(when string) {
	r.t.Helper()
	var got, want sim.Encoder
	r.owner.set.Save(&got)
	r.set.saveSet(&want)
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		r.t.Fatalf("%s: EventSet.Save\n got %x\nwant %x", when, got.Bytes(), want.Bytes())
	}
	got.Reset()
	want.Reset()
	r.s.Links()[0].SaveState(&got)
	r.link.saveLink(&want)
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		r.t.Fatalf("%s: Link.SaveState\n got %x\nwant %x", when, got.Bytes(), want.Bytes())
	}
	if n := r.owner.set.PendingOwned(); n != len(r.set) {
		r.t.Fatalf("%s: EventSet owns %d events, oracle %d", when, n, len(r.set))
	}
	if n := r.s.Links()[0].PendingOwned(); n != len(r.link) {
		r.t.Fatalf("%s: link owns %d deliveries, oracle %d", when, n, len(r.link))
	}
}

// FuzzEventSetLedger drives an EventSet and a tracked link through random
// schedule, send, dispatch, save and snapshot/restore sequences, two bytes
// per operation, and requires every save — before and after a restore — to
// equal the map+sort oracle's bytes and every dispatch to retire an event
// the oracle holds. At the end the model drains and both ledgers must be
// empty.
func FuzzEventSetLedger(f *testing.F) {
	f.Add([]byte{0, 40, 0, 3, 0, 20, 1, 2, 2, 7, 5, 0, 3, 0, 3, 0, 5, 0, 4, 9, 5, 0})
	f.Add([]byte{0, 9, 0, 8, 0, 7, 0, 6, 3, 0, 5, 0, 0, 1, 3, 0, 3, 0, 5, 0})
	f.Add([]byte{1, 0, 2, 5, 1, 3, 2, 0, 3, 0, 5, 0, 4, 2, 5, 0, 1, 1, 5, 0})
	f.Fuzz(func(t *testing.T, ops []byte) {
		if len(ops) > 512 {
			ops = ops[:512]
		}
		r := &ledgerRig{t: t, set: ledgerOracle{}, link: ledgerOracle{}}
		r.build()
		for i := 0; i+1 < len(ops); i += 2 {
			arg := ops[i+1]
			e := r.s.Engine()
			switch ops[i] % 6 {
			case 0:
				at, prio := e.Now()+sim.Time(arg), sim.PrioLink+sim.Priority(arg%3)
				r.set[e.NextSeq()] = oracleEvent{at: at, prio: prio, id: r.nextID}
				r.owner.set.ScheduleAt(at, prio, r.nextID)
				r.nextID++
			case 1:
				r.send(r.a, sim.Time(arg%8), true)
			case 2:
				r.send(r.b, sim.Time(arg%8), false)
			case 3:
				e.Step()
			case 4:
				e.Run(e.Now() + sim.Time(arg))
			case 5:
				r.check("before snapshot")
				var file bytes.Buffer
				if err := e.SaveTo(&file); err != nil {
					t.Fatalf("SaveTo: %v", err)
				}
				r.build()
				if err := r.s.Engine().LoadFrom(&file); err != nil {
					t.Fatalf("LoadFrom: %v", err)
				}
				r.check("after restore")
			}
		}
		r.check("at the end")
		r.s.RunAll()
		if len(r.set)+len(r.link) != 0 {
			t.Fatalf("drained model left %d set events and %d deliveries in the oracle", len(r.set), len(r.link))
		}
		r.check("drained")
	})
}
