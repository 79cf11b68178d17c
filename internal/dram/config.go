// Package dram implements a DRAMSim-style main-memory timing and power
// model: channels, ranks and banks with row-buffer state, DDR-class timing
// constraints (tCAS/tRCD/tRP/tRAS/tRFC/tREFI), FCFS and FR-FCFS request
// scheduling, refresh, and IDD-style energy accounting.
//
// Presets encode the memory technologies compared in the SST design-space
// exploration study (DDR2, DDR3, GDDR5): the absolute numbers are datasheet
// approximations, but the relative bandwidth/latency/power/cost ordering —
// which is what the study's conclusions rest on — is preserved.
package dram

import (
	"fmt"

	"sst/internal/sim"
)

// SchedulerKind selects the memory-controller scheduling policy.
type SchedulerKind uint8

const (
	// FCFS services requests strictly in arrival order.
	FCFS SchedulerKind = iota
	// FRFCFS (first-ready, first-come first-served) prefers row-buffer
	// hits over older row misses, the standard high-performance policy.
	FRFCFS
)

func (s SchedulerKind) String() string {
	switch s {
	case FCFS:
		return "fcfs"
	case FRFCFS:
		return "fr-fcfs"
	default:
		return fmt.Sprintf("scheduler(%d)", uint8(s))
	}
}

// MappingKind selects how physical addresses spread over channels/banks.
type MappingKind uint8

const (
	// MapInterleave rotates consecutive cache lines across channels then
	// banks (bandwidth-friendly; streaming opens one row per bank and
	// then streams hits).
	MapInterleave MappingKind = iota
	// MapSequential fills an entire row in one bank before moving to the
	// next bank (locality-friendly for single-stream, poor bank
	// parallelism).
	MapSequential
)

func (m MappingKind) String() string {
	switch m {
	case MapInterleave:
		return "interleave"
	case MapSequential:
		return "sequential"
	default:
		return fmt.Sprintf("mapping(%d)", uint8(m))
	}
}

// Energy groups the per-operation energy and static power of one channel.
// Units: joules and watts.
type Energy struct {
	// ActivateJ is the energy of one row activate+precharge pair.
	ActivateJ float64
	// PerByteJ is the dynamic energy per byte transferred.
	PerByteJ float64
	// RefreshJ is the energy of one all-bank refresh.
	RefreshJ float64
	// BackgroundW is the standby power of the channel.
	BackgroundW float64
}

// Config describes one memory system.
type Config struct {
	// Name labels the technology (for reports).
	Name string

	// Channels is the number of independent channels; each has its own
	// command/data bus and scheduler.
	Channels int
	// BanksPerChannel is the number of banks (rank×bank flattened).
	BanksPerChannel int
	// RowBytes is the row-buffer (page) size per bank.
	RowBytes int
	// LineBytes is the transfer granule (cache line).
	LineBytes int

	// BusClock is the DRAM I/O clock; data moves on both edges
	// (effective rate 2×BusClock).
	BusClock sim.Hz
	// BusBytes is the data-bus width in bytes.
	BusBytes int

	// Timing, in bus-clock cycles.
	TCAS  sim.Cycle // column access (read latency after row open)
	TRCD  sim.Cycle // row-to-column delay (activate)
	TRP   sim.Cycle // row precharge
	TRAS  sim.Cycle // minimum row-open time
	TRFC  sim.Cycle // refresh cycle time
	TREFI sim.Time  // refresh interval (absolute time)

	Scheduler SchedulerKind
	Mapping   MappingKind
	// WindowPerChannel bounds how many requests the controller may have
	// in flight per channel (the scheduler's reordering window).
	WindowPerChannel int
	// QueueCap bounds the per-channel request queue; 0 means unbounded.
	QueueCap int

	Energy Energy
	// DollarsPerGB prices the technology for cost studies.
	DollarsPerGB float64
}

// Validate checks structural invariants and fills defaults.
func (c *Config) Validate() error {
	if c.Channels <= 0 || c.BanksPerChannel <= 0 {
		return fmt.Errorf("dram %s: need positive channels/banks", c.Name)
	}
	if c.LineBytes <= 0 || c.RowBytes < c.LineBytes || c.RowBytes%c.LineBytes != 0 {
		return fmt.Errorf("dram %s: row size %d must be a positive multiple of line size %d",
			c.Name, c.RowBytes, c.LineBytes)
	}
	if c.BusClock == 0 || c.BusBytes <= 0 {
		return fmt.Errorf("dram %s: need positive bus clock and width", c.Name)
	}
	if c.WindowPerChannel == 0 {
		c.WindowPerChannel = 8
	}
	return nil
}

// cycles converts n bus cycles to time.
func (c *Config) cycles(n sim.Cycle) sim.Time { return c.BusClock.CycleTime(n) }

// lineTransferTime returns the bus occupancy of one cache-line burst at the
// double-data-rate effective bandwidth.
func (c *Config) lineTransferTime() sim.Time {
	beats := (c.LineBytes + c.BusBytes - 1) / c.BusBytes
	// Two beats per bus clock (DDR).
	halfPeriods := sim.Cycle(beats)
	t := c.BusClock.CycleTime(halfPeriods) / 2
	if t == 0 {
		t = 1
	}
	return t
}

// peakBandwidth returns the theoretical peak across all channels, bytes/s.
func (c Config) peakBandwidth() float64 {
	return 2 * float64(c.BusClock) * float64(c.BusBytes) * float64(c.Channels)
}

// idleLatency returns the unloaded read latency (activate + CAS + one
// burst) — a configuration-level sanity metric.
func (c Config) idleLatency() sim.Time {
	return c.cycles(c.TRCD+c.TCAS) + c.lineTransferTime()
}

// Standard technology presets. Channels default to 1 so node models can
// scale channel count independently; use WithChannels.
var (
	// DDR2_800: 400 MHz bus, 6.4 GB/s/channel. Cheap, low power,
	// antiquated performance.
	DDR2_800 = Config{
		Name: "DDR2-800", Channels: 1, BanksPerChannel: 8,
		RowBytes: 8 << 10, LineBytes: 64,
		BusClock: 400 * sim.MHz, BusBytes: 8,
		TCAS: 5, TRCD: 5, TRP: 5, TRAS: 18, TRFC: 51, TREFI: 7800 * sim.Nanosecond,
		Scheduler: FRFCFS, Mapping: MapInterleave, WindowPerChannel: 8,
		Energy: Energy{
			ActivateJ: 12e-9, PerByteJ: 0.65e-9, RefreshJ: 40e-9, BackgroundW: 0.35,
		},
		DollarsPerGB: 10,
	}

	// DDR3_800: 400 MHz bus, 6.4 GB/s/channel — the low end of the
	// memory-speed sensitivity study.
	DDR3_800 = Config{
		Name: "DDR3-800", Channels: 1, BanksPerChannel: 8,
		RowBytes: 8 << 10, LineBytes: 64,
		BusClock: 400 * sim.MHz, BusBytes: 8,
		TCAS: 6, TRCD: 6, TRP: 6, TRAS: 15, TRFC: 44, TREFI: 7800 * sim.Nanosecond,
		Scheduler: FRFCFS, Mapping: MapInterleave, WindowPerChannel: 8,
		Energy: Energy{
			ActivateJ: 10e-9, PerByteJ: 0.52e-9, RefreshJ: 45e-9, BackgroundW: 0.4,
		},
		DollarsPerGB: 8,
	}

	// DDR3_1066: 533 MHz bus, 8.5 GB/s/channel.
	DDR3_1066 = Config{
		Name: "DDR3-1066", Channels: 1, BanksPerChannel: 8,
		RowBytes: 8 << 10, LineBytes: 64,
		BusClock: 533 * sim.MHz, BusBytes: 8,
		TCAS: 7, TRCD: 7, TRP: 7, TRAS: 20, TRFC: 59, TREFI: 7800 * sim.Nanosecond,
		Scheduler: FRFCFS, Mapping: MapInterleave, WindowPerChannel: 8,
		Energy: Energy{
			ActivateJ: 10e-9, PerByteJ: 0.5e-9, RefreshJ: 45e-9, BackgroundW: 0.45,
		},
		DollarsPerGB: 8,
	}

	// DDR3_1333: 666 MHz bus, 10.7 GB/s/channel — the study's DDR3
	// midpoint.
	DDR3_1333 = Config{
		Name: "DDR3-1333", Channels: 1, BanksPerChannel: 8,
		RowBytes: 8 << 10, LineBytes: 64,
		BusClock: 666 * sim.MHz, BusBytes: 8,
		TCAS: 9, TRCD: 9, TRP: 9, TRAS: 24, TRFC: 74, TREFI: 7800 * sim.Nanosecond,
		Scheduler: FRFCFS, Mapping: MapInterleave, WindowPerChannel: 8,
		Energy: Energy{
			ActivateJ: 10e-9, PerByteJ: 0.5e-9, RefreshJ: 45e-9, BackgroundW: 0.5,
		},
		DollarsPerGB: 8,
	}

	// DDR3_1600: 800 MHz bus, 12.8 GB/s/channel.
	DDR3_1600 = Config{
		Name: "DDR3-1600", Channels: 1, BanksPerChannel: 8,
		RowBytes: 8 << 10, LineBytes: 64,
		BusClock: 800 * sim.MHz, BusBytes: 8,
		TCAS: 11, TRCD: 11, TRP: 11, TRAS: 28, TRFC: 88, TREFI: 7800 * sim.Nanosecond,
		Scheduler: FRFCFS, Mapping: MapInterleave, WindowPerChannel: 8,
		Energy: Energy{
			ActivateJ: 10e-9, PerByteJ: 0.48e-9, RefreshJ: 45e-9, BackgroundW: 0.55,
		},
		DollarsPerGB: 8,
	}

	// GDDR5_4000: 2 GHz bus, 32 GB/s/channel. Expensive, high power,
	// very high bandwidth; slightly worse idle latency than DDR3.
	GDDR5_4000 = Config{
		Name: "GDDR5-4000", Channels: 1, BanksPerChannel: 16,
		RowBytes: 2 << 10, LineBytes: 64,
		BusClock: 2000 * sim.MHz, BusBytes: 8,
		TCAS: 30, TRCD: 28, TRP: 28, TRAS: 70, TRFC: 230, TREFI: 3900 * sim.Nanosecond,
		Scheduler: FRFCFS, Mapping: MapInterleave, WindowPerChannel: 16,
		Energy: Energy{
			ActivateJ: 12e-9, PerByteJ: 0.7e-9, RefreshJ: 55e-9, BackgroundW: 2.2,
		},
		DollarsPerGB: 25,
	}
)

// presets names the built-in technologies. It points at the exported
// values so Preset — called once per content-addressed sweep point — is
// one map lookup and a copy, with no per-call map construction.
var presets = map[string]*Config{
	"ddr2-800":   &DDR2_800,
	"ddr3-800":   &DDR3_800,
	"ddr3-1066":  &DDR3_1066,
	"ddr3-1333":  &DDR3_1333,
	"ddr3-1600":  &DDR3_1600,
	"gddr5-4000": &GDDR5_4000,
}

// Presets lists the built-in technologies by name.
func Presets() map[string]Config {
	out := make(map[string]Config, len(presets))
	for name, c := range presets {
		out[name] = *c
	}
	return out
}

// Preset returns a named preset.
func Preset(name string) (Config, error) {
	c, ok := presets[name]
	if !ok {
		return Config{}, fmt.Errorf("dram: unknown preset %q", name)
	}
	return *c, nil
}

// WithChannels returns a copy of the config with the given channel count.
func (c Config) WithChannels(n int) Config {
	c.Channels = n
	return c
}

// WithScheduler returns a copy of the config with the given scheduler.
func (c Config) WithScheduler(s SchedulerKind) Config {
	c.Scheduler = s
	return c
}

// WithMapping returns a copy of the config with the given address mapping.
func (c Config) WithMapping(m MappingKind) Config {
	c.Mapping = m
	return c
}
