// Package rng provides a small, deterministic pseudo-random number
// generator used throughout the simulator.
//
// The simulator must be bit-for-bit reproducible across Go releases and
// platforms so that tests can assert exact event counts. math/rand's
// stream is stable in practice but its convenience helpers have changed
// across versions; a self-contained generator removes the risk and lets
// every component own an independent, cheaply forkable stream.
//
// The core generator is xoshiro256** seeded via splitmix64, following
// Blackman & Vigna. It is not cryptographically secure and must never be
// used for anything but simulation decisions.
package rng

import "math"

// Rand is a deterministic pseudo-random source. The zero value is not
// usable; construct with New.
type Rand struct {
	s [4]uint64
}

// New returns a generator seeded from the given seed. Two generators with
// the same seed produce identical streams.
func New(seed uint64) *Rand {
	r := &Rand{}
	// splitmix64 to fill the state: recommended seeding procedure for
	// xoshiro, avoids the all-zero state for any seed.
	sm := seed
	for i := range r.s {
		sm += 0x9e3779b97f4a7c15
		z := sm
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		r.s[i] = z ^ (z >> 31)
	}
	return r
}

// Fork returns a new generator whose stream is a deterministic function of
// the parent's current state and the given label. Forking lets components
// (one per core, per app, per cache) consume independent streams without
// coordinating, while remaining reproducible.
func (r *Rand) Fork(label uint64) *Rand {
	return New(r.Uint64() ^ (label * 0x9e3779b97f4a7c15))
}

// State returns the generator's internal state for checkpointing.
func (r *Rand) State() [4]uint64 { return r.s }

// Restore overwrites the generator's state with a State() snapshot,
// resuming the exact stream position it was taken at.
func (r *Rand) Restore(s [4]uint64) { r.s = s }

func rotl(x uint64, k uint) uint64 { return (x << k) | (x >> (64 - k)) }

// Uint64 returns the next 64 random bits.
func (r *Rand) Uint64() uint64 {
	result := rotl(r.s[1]*5, 7) * 9
	t := r.s[1] << 17
	r.s[2] ^= r.s[0]
	r.s[3] ^= r.s[1]
	r.s[1] ^= r.s[2]
	r.s[0] ^= r.s[3]
	r.s[2] ^= t
	r.s[3] = rotl(r.s[3], 45)
	return result
}

// Intn returns a uniformly distributed int in [0, n). It panics if n <= 0.
func (r *Rand) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn called with n <= 0")
	}
	return int(r.Uint64n(uint64(n)))
}

// Uint64n returns a uniformly distributed uint64 in [0, n). It panics if
// n == 0. Uses Lemire's multiply-shift rejection method.
func (r *Rand) Uint64n(n uint64) uint64 {
	if n == 0 {
		panic("rng: Uint64n called with n == 0")
	}
	// Fast path for powers of two.
	if n&(n-1) == 0 {
		return r.Uint64() & (n - 1)
	}
	// Rejection sampling on the top bits to avoid modulo bias.
	max := math.MaxUint64 - math.MaxUint64%n
	for {
		v := r.Uint64()
		if v < max {
			return v % n
		}
	}
}

// Float64 returns a uniformly distributed float64 in [0, 1).
func (r *Rand) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Bool returns true with probability p.
func (r *Rand) Bool(p float64) bool {
	if p <= 0 {
		return false
	}
	if p >= 1 {
		return true
	}
	return r.Float64() < p
}

func (r *Rand) geometricWithDenom(logOneMinusP float64) int {
	// Inverse transform sampling.
	u := r.Float64()
	if u == 0 {
		u = math.SmallestNonzeroFloat64
	}
	n := int(math.Ceil(math.Log(1-u) / logOneMinusP))
	if n < 1 {
		n = 1
	}
	return n
}

// GeometricSource samples a geometric distribution with a fixed mean,
// precomputing the constant denominator of the inverse transform.
type GeometricSource struct {
	r     *Rand
	denom float64
	unit  bool
}

// NewGeometricSource builds a sampler over r with mean m.
func NewGeometricSource(r *Rand, m float64) GeometricSource {
	if m <= 1 {
		return GeometricSource{r: r, unit: true}
	}
	return GeometricSource{r: r, denom: math.Log(1 - 1/m)}
}

// Next draws the next sample (minimum 1).
func (g GeometricSource) Next() int {
	if g.unit {
		return 1
	}
	return g.r.geometricWithDenom(g.denom)
}

// Zipf samples from a bounded Zipf-like distribution over [0, n) with
// exponent s. Small indexes are most likely. It uses rejection-inversion
// (Hörmann & Derflinger) simplified for s != 1 via direct inversion of the
// continuous approximation, which is adequate for workload skew modeling.
func (r *Rand) Zipf(n int, s float64) int {
	if n <= 1 {
		return 0
	}
	if s == 1 {
		s = 1.0001 // avoid the harmonic special case
	}
	// Continuous inversion: CDF(x) ~ (x^(1-s) - 1) / (n^(1-s) - 1).
	u := r.Float64()
	oneMinusS := 1 - s
	x := math.Pow(u*(math.Pow(float64(n), oneMinusS)-1)+1, 1/oneMinusS)
	i := int(x) - 1
	if i < 0 {
		i = 0
	}
	if i >= n {
		i = n - 1
	}
	return i
}
