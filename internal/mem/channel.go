package mem

import "sst/internal/sim"

// ChannelDevice adapts a Device so that requests reach it over a sim.Link —
// the memory channel as a first-class link rather than a hidden direct
// call. The link is created with zero latency, so timing is unchanged
// relative to the direct-call hierarchy (delivery lands at the same
// timestamp, after the issuing handler returns); what it buys is that
// channel traffic becomes visible to everything that understands links:
// trace attribution and the link's message/byte counts.
//
// Completion callbacks still return directly — the request crossing the
// link is the modelled direction; replies ride the completion closure.
type ChannelDevice struct {
	send  *sim.Port
	lower Device
	// free recycles request envelopes: sending a struct by value would box
	// it into the link payload's `any` on every access, while a recycled
	// pointer crosses for free.
	free []*channelReq
}

// channelReq is one memory access crossing the channel link.
type channelReq struct {
	op   Op
	addr uint64
	size int
	done func()
}

// PayloadBytes implements sim.Sized for link byte accounting.
func (r *channelReq) PayloadBytes() int { return r.size }

// NewChannelDevice wires lower behind the link owning ports (a, b):
// accesses enter at a and are serviced by lower on the b side. Build the
// link with zero latency to preserve direct-call timing.
func NewChannelDevice(a, b *sim.Port, lower Device) *ChannelDevice {
	d := &ChannelDevice{send: a, lower: lower}
	b.SetHandler(func(p any) {
		r := p.(*channelReq)
		op, addr, size, done := r.op, r.addr, r.size, r.done
		r.done = nil
		d.free = append(d.free, r)
		d.lower.Access(op, addr, size, done)
	})
	return d
}

// Access implements Device by sending the request across the channel link.
func (d *ChannelDevice) Access(op Op, addr uint64, size int, done func()) {
	var r *channelReq
	if n := len(d.free) - 1; n >= 0 {
		r, d.free[n] = d.free[n], nil
		d.free = d.free[:n]
	} else {
		r = new(channelReq)
	}
	r.op, r.addr, r.size, r.done = op, addr, size, done
	d.send.Send(r)
}
