package mat

import (
	"math"
	"math/bits"
)

// RNG is a small deterministic random source (SplitMix64 for the state walk,
// xorshift-style output) with the distributions the simulators need. It is
// not safe for concurrent use; give each goroutine its own RNG, typically by
// calling Split.
//
// We deliberately avoid math/rand so that generated traces and datasets are
// reproducible byte-for-byte across Go releases (math/rand's Source
// algorithms are stable, but rand.Rand method behaviour around Float64 and
// NormFloat64 has shifted historically between rand and rand/v2).
type RNG struct {
	state uint64
	// spare caches the second Gaussian from the Box–Muller pair.
	spare    float64
	hasSpare bool
}

// NewRNG returns an RNG seeded with seed. Distinct seeds yield uncorrelated
// streams; seed 0 is valid.
func NewRNG(seed uint64) *RNG {
	r := &RNG{state: seed}
	// Warm up so that small seeds do not produce small first outputs.
	r.Uint64()
	r.Uint64()
	return r
}

// Split derives an independent child RNG; the parent advances one step.
func (r *RNG) Split() *RNG {
	return NewRNG(r.Uint64() ^ 0x9e3779b97f4a7c15)
}

// Reseed reinitializes the receiver in place to the stream NewRNG(seed)
// would produce, discarding any cached Gaussian spare. It lets long-lived
// owners (worker pools, reusable optimizers) jump to a deterministic stream
// without allocating a fresh RNG.
func (r *RNG) Reseed(seed uint64) {
	r.state = seed
	r.spare = 0
	r.hasSpare = false
	r.Uint64()
	r.Uint64()
}

// Uint64 returns the next 64 uniformly random bits (SplitMix64).
func (r *RNG) Uint64() uint64 {
	r.state += 0x9e3779b97f4a7c15
	z := r.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Float64 returns a uniform value in [0, 1).
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Intn returns a uniform integer in [0, n). It panics when n <= 0.
//
// The bound is applied with Lemire's multiply-shift rejection method, which
// is exactly uniform for every n (the previous modulo reduction favoured
// small residues for non-power-of-two n by up to 2⁻⁴⁰ per value at IoT-fleet
// sizes — small, but a bias the chi-square tests now reject permanently).
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("mat: Intn with non-positive bound")
	}
	un := uint64(n)
	hi, lo := bits.Mul64(r.Uint64(), un)
	if lo < un {
		// Reject the sliver of the 64-bit range that maps unevenly:
		// 2^64 mod n values, at most one retry every 2^64/n draws.
		threshold := -un % un
		for lo < threshold {
			hi, lo = bits.Mul64(r.Uint64(), un)
		}
	}
	return int(hi)
}

// Norm returns a standard Gaussian sample (Box–Muller).
func (r *RNG) Norm() float64 {
	if r.hasSpare {
		r.hasSpare = false
		return r.spare
	}
	var u float64
	for u == 0 {
		u = r.Float64()
	}
	v := r.Float64()
	mag := math.Sqrt(-2 * math.Log(u))
	sin, cos := math.Sincos(2 * math.Pi * v)
	r.spare = mag * sin
	r.hasSpare = true
	return mag * cos
}

// NormScaled returns mean + stddev·Norm().
func (r *RNG) NormScaled(mean, stddev float64) float64 {
	return mean + stddev*r.Norm()
}

// Perm returns a uniformly random permutation of [0, n).
func (r *RNG) Perm(n int) []int {
	p := make([]int, n)
	r.PermInto(p)
	return p
}

// PermInto fills p with a uniformly random permutation of [0, len(p)),
// allocation-free, so epoch loops can reuse one shuffle buffer.
func (r *RNG) PermInto(p []int) {
	for i := range p {
		p[i] = i
	}
	for i := len(p) - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
}

// Sample returns k distinct indices drawn uniformly from [0, n) in random
// order. It panics when k > n or k < 0.
//
// It runs a sparse partial Fisher–Yates shuffle: only the k virtually
// swapped positions are materialized in a map, so drawing K clients out of
// an n-device fleet is O(k) time and space instead of the former O(n)
// full-permutation shuffle — Sample runs every round in both fl and flnet.
func (r *RNG) Sample(n, k int) []int {
	if k < 0 || k > n {
		panic("mat: Sample k out of range")
	}
	out := make([]int, k)
	displaced := make(map[int]int, k)
	for i := 0; i < k; i++ {
		// Virtual array a[0..n-1] starts as identity; swap a[i] with a[j],
		// j uniform in [i, n), and emit the value landing at position i.
		j := i + r.Intn(n-i)
		vi, okI := displaced[i]
		if !okI {
			vi = i
		}
		vj, okJ := displaced[j]
		if !okJ {
			vj = j
		}
		out[i] = vj
		displaced[j] = vi
	}
	return out
}

// Bernoulli returns true with probability p (clamped to [0,1]).
func (r *RNG) Bernoulli(p float64) bool {
	return r.Float64() < p
}
