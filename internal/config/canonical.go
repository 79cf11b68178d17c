package config

import (
	"crypto/sha256"
	"encoding/hex"
	"strconv"

	"sst/internal/cpu"
	"sst/internal/dram"
	"sst/internal/mem"
	"sst/internal/sim"
)

// Canonical content hashing. A sweep point is a pure function of its
// fully-resolved configuration, so a stable hash of that configuration is a
// content address for the point's result: two configs that resolve to the
// same machine hash identically (JSON field order, whitespace, and
// defaulted-vs-explicit spellings all wash out), and any semantic change
// produces a different hash. The serialization walks the *converted*
// component configurations — pure value types (no maps, pointers or
// slices) — field by field in declaration order, never map-order-dependent
// JSON.
//
// The byte stream is exactly the one Go's %#v renders for those structs:
// a different stream would orphan every cache file and journal already
// written under amm/v1. The fmt rendering is the test oracle
// canonicalHashFmt; the appender below writes it without reflection
// because it runs once per sweep point, cache hits included.
//
// The "amm/v1" prefix versions the key space: a future change to
// simulation semantics that is not visible in the config (a bug fix in a
// core model, say) bumps the version and orphans every stale cache entry by
// construction.

// canonVersionMachine tags the machine-config key space.
const canonVersionMachine = "amm/v1"

// CanonicalHash returns a stable content address for the machine
// description, or an error if the config does not validate.
func (m MachineConfig) CanonicalHash() (string, error) {
	cp := m // Validate fills defaults on the copy, not the caller's value
	if err := cp.Validate(); err != nil {
		return "", err
	}
	// cpu.Config has no Kind field (the kind selects which core type is
	// built), so it rides alongside the resolved struct.
	core, err := cp.Node.CPU.ToCoreConfig("cpu")
	if err != nil {
		return "", err
	}
	var l1, l2 mem.CacheConfig
	if err := resolveCacheLevel(&l1, "l1", cp.Node.L1, core.Freq); err != nil {
		return "", err
	}
	if err := resolveCacheLevel(&l2, "l2", cp.Node.L2, core.Freq); err != nil {
		return "", err
	}
	dcfg, err := cp.Node.Mem.ToDRAMConfig()
	if err != nil {
		return "", err
	}
	if err := dcfg.Validate(); err != nil { // fills WindowPerChannel etc.
		return "", err
	}

	// A stack buffer sized for the whole stream: every field is bounded
	// except the name strings, and append spills to the heap if they are
	// long enough to overflow it.
	var buf [2048]byte
	b := fieldQuote(buf[:0], canonVersionMachine+"\nname=", cp.Name)
	b = fieldInt(b, "\ncores=", cp.Node.Cores)
	coherence := cp.Node.Coherence
	if coherence == "" {
		coherence = "bus"
	}
	b = append(append(b, "\ncoherence="...), coherence...)
	b = strconv.AppendUint(append(b, "\nmax_ops="...), cp.MaxOps, 10)
	b = append(append(b, "\ncpu.kind="...), cp.Node.CPU.Kind...)
	b = appendCPU(append(b, "\ncpu="...), &core)
	b = appendCacheLevel(append(b, "\nl1="...), cp.Node.L1, &l1)
	b = appendCacheLevel(append(b, "\nl2="...), cp.Node.L2, &l2)
	b = appendDRAM(append(b, "\ndram="...), &dcfg)
	b = fieldFloat(b, "\ndram.capacity_gb=", cp.Node.Mem.Capacity())
	// Workload: cp.Validate already filled N/Iters/Ops defaults.
	b = appendWorkload(append(b, "\nworkload="...), &cp.Workload)
	b = append(b, '\n')

	sum := sha256.Sum256(b)
	var key [3 + 2*sha256.Size]byte
	copy(key[:], "m1:")
	hex.Encode(key[3:], sum[:])
	return string(key[:]), nil
}

// resolveCacheLevel converts one cache level into dst; an absent level
// (nil spec) leaves dst zero.
func resolveCacheLevel(dst *mem.CacheConfig, name string, spec *CacheSpec, freq sim.Hz) error {
	if spec == nil {
		return nil
	}
	cfg, err := spec.ToCacheConfig(name, freq)
	*dst = cfg
	return err
}

// The appenders below render cpu.Config, mem.CacheConfig, dram.Config,
// dram.Energy and WorkloadSpec exactly as %#v does: the package-qualified
// type name, then every field as Name:value in declaration order, strings
// quoted, signed integers in decimal, unsigned ones (sim.Hz, sim.Cycle,
// sim.Time and the uint8 enums) as 0x-prefixed hex, floats shortest-%g.
// Adding a field to one of those structs without adding it here fails
// TestCanonicalMatchesFmt and FuzzConfigHash, which compare this stream
// byte for byte against fmt's.

func appendCPU(b []byte, c *cpu.Config) []byte {
	b = fieldQuote(b, "cpu.Config{Name:", c.Name)
	b = fieldHex(b, ", Freq:", uint64(c.Freq))
	b = fieldInt(b, ", Width:", c.Width)
	b = fieldHex(b, ", IntLat:", uint64(c.IntLat))
	b = fieldHex(b, ", FloatLat:", uint64(c.FloatLat))
	b = fieldHex(b, ", BranchPenalty:", uint64(c.BranchPenalty))
	b = fieldInt(b, ", LoadQ:", c.LoadQ)
	b = fieldInt(b, ", StoreQ:", c.StoreQ)
	b = fieldInt(b, ", PredictorEntries:", c.PredictorEntries)
	b = fieldInt(b, ", ROB:", c.ROB)
	b = fieldInt(b, ", Threads:", c.Threads)
	return append(b, '}')
}

// appendCacheLevel renders a resolved level, or "none" for an absent one
// (nil spec) so "no L2" can never collide with any real L2.
func appendCacheLevel(b []byte, spec *CacheSpec, c *mem.CacheConfig) []byte {
	if spec == nil {
		return append(b, "none"...)
	}
	b = fieldQuote(b, "mem.CacheConfig{Name:", c.Name)
	b = fieldInt(b, ", SizeBytes:", c.SizeBytes)
	b = fieldInt(b, ", LineBytes:", c.LineBytes)
	b = fieldInt(b, ", Assoc:", c.Assoc)
	b = fieldHex(b, ", HitLatency:", uint64(c.HitLatency))
	b = fieldHex(b, ", Occupancy:", uint64(c.Occupancy))
	b = fieldInt(b, ", MSHRs:", c.MSHRs)
	b = fieldBool(b, ", WriteBack:", c.WriteBack)
	b = fieldHex(b, ", Repl:", uint64(c.Repl))
	b = fieldBool(b, ", PrefetchNextLine:", c.PrefetchNextLine)
	b = fieldInt(b, ", PrefetchDegree:", c.PrefetchDegree)
	b = fieldHex(b, ", Seed:", c.Seed)
	return append(b, '}')
}

func appendDRAM(b []byte, c *dram.Config) []byte {
	b = fieldQuote(b, "dram.Config{Name:", c.Name)
	b = fieldInt(b, ", Channels:", c.Channels)
	b = fieldInt(b, ", BanksPerChannel:", c.BanksPerChannel)
	b = fieldInt(b, ", RowBytes:", c.RowBytes)
	b = fieldInt(b, ", LineBytes:", c.LineBytes)
	b = fieldHex(b, ", BusClock:", uint64(c.BusClock))
	b = fieldInt(b, ", BusBytes:", c.BusBytes)
	b = fieldHex(b, ", TCAS:", uint64(c.TCAS))
	b = fieldHex(b, ", TRCD:", uint64(c.TRCD))
	b = fieldHex(b, ", TRP:", uint64(c.TRP))
	b = fieldHex(b, ", TRAS:", uint64(c.TRAS))
	b = fieldHex(b, ", TRFC:", uint64(c.TRFC))
	b = fieldHex(b, ", TREFI:", uint64(c.TREFI))
	b = fieldHex(b, ", Scheduler:", uint64(c.Scheduler))
	b = fieldHex(b, ", Mapping:", uint64(c.Mapping))
	b = fieldInt(b, ", WindowPerChannel:", c.WindowPerChannel)
	b = fieldInt(b, ", QueueCap:", c.QueueCap)
	b = fieldFloat(b, ", Energy:dram.Energy{ActivateJ:", c.Energy.ActivateJ)
	b = fieldFloat(b, ", PerByteJ:", c.Energy.PerByteJ)
	b = fieldFloat(b, ", RefreshJ:", c.Energy.RefreshJ)
	b = fieldFloat(b, ", BackgroundW:", c.Energy.BackgroundW)
	b = fieldFloat(b, "}, DollarsPerGB:", c.DollarsPerGB)
	return append(b, '}')
}

func appendWorkload(b []byte, w *WorkloadSpec) []byte {
	b = fieldQuote(b, "config.WorkloadSpec{Kind:", w.Kind)
	b = fieldInt(b, ", N:", w.N)
	b = fieldInt(b, ", Iters:", w.Iters)
	b = fieldQuote(b, ", Profile:", w.Profile)
	b = fieldHex(b, ", Ops:", w.Ops)
	b = fieldHex(b, ", Seed:", w.Seed)
	return append(b, '}')
}

// Each field helper appends the literal lit, then one value as %#v renders
// it.

func fieldQuote(b []byte, lit, v string) []byte {
	return strconv.AppendQuote(append(b, lit...), v)
}

func fieldInt(b []byte, lit string, v int) []byte {
	return strconv.AppendInt(append(b, lit...), int64(v), 10)
}

func fieldHex(b []byte, lit string, v uint64) []byte {
	return strconv.AppendUint(append(append(b, lit...), "0x"...), v, 16)
}

func fieldBool(b []byte, lit string, v bool) []byte {
	return strconv.AppendBool(append(b, lit...), v)
}

func fieldFloat(b []byte, lit string, v float64) []byte {
	return strconv.AppendFloat(append(b, lit...), v, 'g', -1, 64)
}
