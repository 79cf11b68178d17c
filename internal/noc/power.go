package noc

import "sst/internal/sim"

// PowerParams models interconnect power: per-byte link energy plus
// bandwidth-proportional static link power (SerDes lanes burn power in
// proportion to their provisioned rate, which is why reducing injection
// bandwidth saves power — the trade the degradation study is about).
type PowerParams struct {
	// LinkEnergyPerByteJ is dynamic energy per byte traversing one link.
	LinkEnergyPerByteJ float64
	// RouterEnergyPerByteJ is dynamic energy per byte switched.
	RouterEnergyPerByteJ float64
	// IdleWPerGBps is static power per link per GB/s of provisioned
	// bandwidth (both directions).
	IdleWPerGBps float64
	// NICIdleWPerGBps is static power per NIC per GB/s of injection
	// bandwidth.
	NICIdleWPerGBps float64
}

// DefaultPowerParams resembles a mid-2000s electrical interconnect
// (~1 nJ/byte end-to-end at several hops, watts per high-speed port).
func DefaultPowerParams() PowerParams {
	return PowerParams{
		LinkEnergyPerByteJ:   0.2e-9,
		RouterEnergyPerByteJ: 0.1e-9,
		IdleWPerGBps:         0.5,
		NICIdleWPerGBps:      0.5,
	}
}

// NetworkEnergy summarizes one run's interconnect energy.
type NetworkEnergy struct {
	DynamicJ float64
	StaticJ  float64
	// StaticW is the provisioned static power (independent of the run).
	StaticW float64
}

// TotalJ returns dynamic plus static energy.
func (e NetworkEnergy) TotalJ() float64 { return e.DynamicJ + e.StaticJ }

// Energy integrates a network's energy over elapsed simulated time: dynamic
// energy from per-link byte counts, static energy from provisioned
// bandwidth times elapsed time.
func (n *Network) Energy(p PowerParams, elapsed sim.Time) NetworkEnergy {
	var dynBytesHops uint64
	links := 0
	for _, out := range n.links {
		for _, o := range out {
			dynBytesHops += o.link.bytes
			links++
		}
	}
	dyn := float64(dynBytesHops) * (p.LinkEnergyPerByteJ + p.RouterEnergyPerByteJ)
	// Injection/ejection dynamic energy.
	dyn += float64(n.BytesDelivered()) * p.LinkEnergyPerByteJ

	gbps := n.cfg.LinkBandwidth / 1e9
	injGbps := n.cfg.InjectionBandwidth / 1e9
	staticW := float64(links)/2*p.IdleWPerGBps*gbps +
		float64(len(n.nics))*p.NICIdleWPerGBps*injGbps
	return NetworkEnergy{
		DynamicJ: dyn,
		StaticJ:  staticW * elapsed.Seconds(),
		StaticW:  staticW,
	}
}

// LinkUtilization returns the mean and the busiest directed link's busy
// fraction over elapsed simulated time — the latter is the congestion
// indicator for topology studies. A link is busy for the time its bytes
// take to serialize at LinkBandwidth.
func (n *Network) LinkUtilization(elapsed sim.Time) (mean, hottest float64) {
	var total, hot uint64
	count := 0
	for _, out := range n.links {
		for _, o := range out {
			total += o.link.bytes
			hot = max(hot, o.link.bytes)
			count++
		}
	}
	if elapsed <= 0 || count == 0 {
		return 0, 0
	}
	busy := func(bytes float64) float64 { return bytes / n.cfg.LinkBandwidth / elapsed.Seconds() }
	return busy(float64(total) / float64(count)), busy(float64(hot))
}
