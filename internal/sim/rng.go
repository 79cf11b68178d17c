package sim

import "math"

// RNG is a small, fast, deterministic pseudo-random generator
// (xoshiro256**). Every stochastic component owns its own RNG seeded from
// the machine configuration, so simulations are reproducible regardless of
// component evaluation order and independent of the Go runtime's
// math/rand sequence, which is not guaranteed stable across releases.
type RNG struct {
	s [4]uint64
}

// NewRNG returns a generator seeded via SplitMix64, which guarantees a
// well-mixed nonzero state for any seed, including zero.
func NewRNG(seed uint64) *RNG {
	r := &RNG{}
	r.Seed(seed)
	return r
}

// Seed resets the generator state from seed.
func (r *RNG) Seed(seed uint64) {
	sm := seed
	next := func() uint64 {
		sm += 0x9e3779b97f4a7c15
		z := sm
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		return z ^ (z >> 31)
	}
	for i := range r.s {
		r.s[i] = next()
	}
}

// Split derives an independent generator; the child stream is decorrelated
// from the parent's future output. Used to hand each sub-component its own
// stream from one top-level seed.
func (r *RNG) Split() *RNG {
	return NewRNG(r.Uint64() ^ 0xd1342543de82ef95)
}

func rotl(x uint64, k uint) uint64 { return (x << k) | (x >> (64 - k)) }

// Uint64 returns the next 64 uniform random bits.
func (r *RNG) Uint64() uint64 {
	s := &r.s
	result := rotl(s[1]*5, 7) * 9
	t := s[1] << 17
	s[2] ^= s[0]
	s[3] ^= s[1]
	s[1] ^= s[2]
	s[0] ^= s[3]
	s[2] ^= t
	s[3] = rotl(s[3], 45)
	return result
}

// Uint64n returns a uniform value in [0, n). n must be positive.
// Uses Lemire's multiply-shift rejection method.
func (r *RNG) Uint64n(n uint64) uint64 {
	if n == 0 {
		panic("sim: Uint64n(0)")
	}
	// Fast path for powers of two.
	if n&(n-1) == 0 {
		return r.Uint64() & (n - 1)
	}
	threshold := -n % n
	for {
		v := r.Uint64()
		if v >= threshold {
			return v % n
		}
	}
}

// Intn returns a uniform value in [0, n).
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("sim: Intn with non-positive n")
	}
	return int(r.Uint64n(uint64(n)))
}

// Float64 returns a uniform value in [0, 1).
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) * (1.0 / (1 << 53))
}

// Exp returns an exponentially distributed value with the given mean.
func (r *RNG) Exp(mean float64) float64 {
	u := r.Float64()
	for u == 0 {
		u = r.Float64()
	}
	return -mean * math.Log(u)
}

// Bool returns true with probability p.
func (r *RNG) Bool(p float64) bool { return r.Float64() < p }

// SaveState writes the generator's exact 256-bit state.
func (r *RNG) SaveState(enc *Encoder) {
	for _, s := range r.s {
		enc.U64(s)
	}
}

// LoadState restores the generator state.
func (r *RNG) LoadState(dec *Decoder) error {
	for i := range r.s {
		r.s[i] = dec.U64()
	}
	return dec.Err()
}
