// Package fault provides the seeded fault models gosst's resilience
// studies run on: what does a machine's failure behavior cost, and how
// should the system design respond?
//
//   - StreamSeed and NewStream derive an independent, reproducible random
//     stream from a root seed and a stable name. Sweep retries, the
//     service's job policies and the storage-fault harness (iofault) draw
//     their randomness from them.
//   - CheckpointModel simulates an application doing checkpoint/restart on
//     a machine that fails at exponentially distributed times, with the
//     Young/Daly closed forms as analytic oracles (checkpoint.go);
//     core.ResilienceStudy sweeps it.
//
// Determinism contract: every stream is derived from the caller's root
// seed and a stable textual identity — never from map order, goroutine
// scheduling, or a shared global stream — so the same seed reproduces the
// same failures at any internal/core sweep worker count.
package fault

import "sst/internal/sim"

// StreamSeed derives the sub-seed for a named stream from a root seed.
// FNV-1a over the name keeps the derivation stable across runs, processes
// and partitionings — unlike anything keyed on pointer identity or
// iteration order.
func StreamSeed(root uint64, name string) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for i := 0; i < len(name); i++ {
		h ^= uint64(name[i])
		h *= prime64
	}
	return h ^ root
}

// NewStream returns the deterministic RNG for a named stream.
func NewStream(root uint64, name string) *sim.RNG {
	return sim.NewRNG(StreamSeed(root, name))
}
