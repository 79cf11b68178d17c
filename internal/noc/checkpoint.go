package noc

// Checkpoint support: each rank's slice of a Network (netRank) is one
// checkpoint owner holding its pending fabric events, the link and NIC
// state its engine mutates, and its statistics. A pending packet is
// encoded as a "dnoc.devt" payload (a kind, the packet, the router it
// continues at) and a packet crossing ranks as "dnoc.xfer" (the packet and
// its router). Those codec names, the partitioned network's owner name
// "dnoc" and the byte layout below are the ones snapshots have always
// carried, so earlier snapshots keep restoring (testdata/par2_charon.snap
// pins that).

import "sst/internal/sim"

// Pending-packet kinds in the "dnoc.devt" encoding.
const (
	devtHop     uint64 = iota
	devtDeliver        // loopback, encoded with router 0
)

func encodePacket(e *sim.Encoder, p *packet) {
	e.I64(int64(p.src))
	e.I64(int64(p.dst))
	e.I64(int64(p.size))
	e.I64(int64(p.msgSize))
	e.Bool(p.last)
	sim.EncodePayload(e, p.payload)
	e.Time(p.sentAt)
	e.I64(int64(p.hops))
}

func decodePacket(d *sim.Decoder) (packet, error) {
	p := packet{
		src:     int(d.I64()),
		dst:     int(d.I64()),
		size:    int(d.I64()),
		msgSize: int(d.I64()),
		last:    d.Bool(),
	}
	payload, err := sim.DecodePayload(d)
	if err != nil {
		return p, err
	}
	p.payload = payload
	p.sentAt = d.Time()
	p.hops = int(d.I64())
	return p, d.Err()
}

func init() {
	sim.RegisterPayload("dnoc.xfer", packet{},
		func(e *sim.Encoder, v any) {
			p := v.(packet)
			encodePacket(e, &p)
			e.I64(int64(p.at))
		},
		func(d *sim.Decoder) (any, error) {
			p, err := decodePacket(d)
			p.at = int(d.I64())
			return p, err
		})
	sim.RegisterPayload("dnoc.devt", (*packet)(nil),
		func(e *sim.Encoder, v any) {
			p := v.(*packet)
			if p.at < 0 {
				e.U64(devtDeliver)
				encodePacket(e, p)
				e.I64(0)
				return
			}
			e.U64(devtHop)
			encodePacket(e, p)
			e.I64(int64(p.at))
		},
		func(d *sim.Decoder) (any, error) {
			kind := d.U64()
			p, err := decodePacket(d)
			if p.at = int(d.I64()); kind == devtDeliver {
				p.at = -1
			}
			return &p, err
		})
}

// PendingOwned reports the rank's pending fabric events: the tracked ones
// and the packets its NICs have reserved but not yet injected.
func (rk *netRank) PendingOwned() int { return rk.evs.PendingOwned() + rk.uncut }

// SaveState writes the rank's pending events, link and NIC state and
// statistics. The NICs' uncut packets are written as the tracked events
// they were while every packet was scheduled at send time, merged with the
// set's in sequence order, so the bytes are unchanged and a restore
// re-creates them as tracked events with every NIC's queue empty.
func (rk *netRank) SaveState(enc *sim.Encoder) {
	rk.evs.SaveWith(enc, rk.uncut, rk.heldPackets())
	clear(rk.held) // hold no messages past the save
	for _, l := range rk.links {
		enc.Time(l.freeAt)
		enc.U64(l.bytes)
	}
	for _, nc := range rk.nics {
		enc.Time(nc.freeAt)
	}
	rk.reg.SaveState(enc)
}

// LoadState restores what SaveState wrote into an identically built rank.
func (rk *netRank) LoadState(dec *sim.Decoder) error {
	// The snapshot holds the uncut packets as tracked events: the NICs
	// start with nothing queued.
	for _, nc := range rk.nics {
		clear(nc.msgs)
		nc.head, nc.n = 0, 0
	}
	rk.uncut = 0
	if err := rk.evs.Load(dec); err != nil {
		return err
	}
	for _, l := range rk.links {
		l.freeAt = dec.Time()
		l.bytes = dec.U64()
	}
	for _, nc := range rk.nics {
		nc.freeAt = dec.Time()
	}
	if err := dec.Err(); err != nil {
		return err
	}
	return rk.reg.LoadState(dec)
}
