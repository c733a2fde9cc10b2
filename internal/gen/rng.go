// Package gen provides deterministic random-number and text generation
// utilities used by the TPCx-IoT workload driver.
//
// Every generator in this package is seeded explicitly and is therefore
// reproducible: two driver instances constructed with the same seed emit
// identical streams. Reproducibility matters for the benchmark's data check
// (the driver must be able to re-derive how many readings each substation
// produced) and for the repeatability requirement of a TPC result.
package gen

import (
	"math"
	"math/bits"
)

// RNG is a small, fast, deterministic pseudo-random number generator.
//
// It implements xoshiro256**, seeded via SplitMix64 so that any 64-bit seed
// (including zero) yields a well-mixed initial state. RNG is not safe for
// concurrent use; give each goroutine its own instance, typically derived
// with Split.
type RNG struct {
	s0, s1, s2, s3 uint64
}

// NewRNG returns a generator seeded from the given value.
func NewRNG(seed uint64) *RNG {
	var r RNG
	r.Seed(seed)
	return &r
}

// Seed resets the generator state from a 64-bit seed.
func (r *RNG) Seed(seed uint64) {
	sm := seed
	next := func() uint64 {
		sm += 0x9e3779b97f4a7c15
		z := sm
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		return z ^ (z >> 31)
	}
	r.s0, r.s1, r.s2, r.s3 = next(), next(), next(), next()
}

// Uint64 returns the next value in the stream.
func (r *RNG) Uint64() uint64 {
	result := bits.RotateLeft64(r.s1*5, 7) * 9

	t := r.s1 << 17
	r.s2 ^= r.s0
	r.s3 ^= r.s1
	r.s1 ^= r.s2
	r.s0 ^= r.s3
	r.s2 ^= t
	r.s3 = bits.RotateLeft64(r.s3, 45)

	return result
}

// Intn returns a uniform value in [0, n). It panics if n <= 0.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("gen: Intn with non-positive n")
	}
	return int(r.Uint64n(uint64(n)))
}

// Int63n returns a uniform value in [0, n). It panics if n <= 0.
func (r *RNG) Int63n(n int64) int64 {
	if n <= 0 {
		panic("gen: Int63n with non-positive n")
	}
	return int64(r.Uint64n(uint64(n)))
}

// Uint64n returns a uniform value in [0, n) using Lemire's multiply-shift
// rejection method. It panics if n == 0.
func (r *RNG) Uint64n(n uint64) uint64 {
	if n == 0 {
		panic("gen: Uint64n with zero n")
	}
	hi, lo := bits.Mul64(r.Uint64(), n)
	if lo < n {
		thresh := -n % n
		for lo < thresh {
			hi, lo = bits.Mul64(r.Uint64(), n)
		}
	}
	return hi
}

// Float64 returns a uniform value in [0, 1).
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// NormFloat64 returns a normally distributed value with mean 0 and standard
// deviation 1, using the polar (Marsaglia) method.
func (r *RNG) NormFloat64() float64 {
	for {
		u := 2*r.Float64() - 1
		v := 2*r.Float64() - 1
		s := u*u + v*v
		if s >= 1 || s == 0 {
			continue
		}
		return u * math.Sqrt(-2*math.Log(s)/s)
	}
}

// Split derives an independent generator from the current one. The derived
// stream is decorrelated from the parent by hashing the parent's next output.
func (r *RNG) Split() *RNG {
	return NewRNG(r.Uint64() ^ 0xd1b54a32d192ed03)
}
