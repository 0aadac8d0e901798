// Package stats provides the deterministic random number generation and
// descriptive statistics used throughout the simulator.
//
// Simulations must be reproducible, so all randomness flows through RNG
// (a SplitMix64 generator) seeded explicitly by the caller; nothing in
// this module reads wall-clock time or global state.
package stats

import "math"

// RNG is a SplitMix64 pseudo-random generator. It is small, fast, has a
// full 2^64 period, and — unlike math/rand's global functions — is
// deterministic for a given seed. The zero value is a valid generator
// seeded with 0.
type RNG struct {
	state uint64
}

// NewRNG returns a generator seeded with seed.
func NewRNG(seed uint64) *RNG { return &RNG{state: seed} }

// Uint64 returns the next 64 uniformly distributed bits.
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

// Intn returns a uniform value in [0, n). It panics if n <= 0.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("stats: Intn with n <= 0")
	}
	return int(r.Uint64() % uint64(n))
}

// Int63n returns a uniform value in [0, n). It panics if n <= 0.
func (r *RNG) Int63n(n int64) int64 {
	if n <= 0 {
		panic("stats: Int63n with n <= 0")
	}
	return int64(r.Uint64() % uint64(n))
}

// Normal returns a sample from N(mean, sigma²) via the Box-Muller
// transform. Each call draws two uniforms; the spare is discarded to
// keep the generator's consumption pattern simple and auditable.
func (r *RNG) Normal(mean, sigma float64) float64 {
	u1 := r.Float64()
	for u1 == 0 { // log(0) guard
		u1 = r.Float64()
	}
	u2 := r.Float64()
	z := math.Sqrt(-2*math.Log(u1)) * math.Cos(2*math.Pi*u2)
	return mean + sigma*z
}

// ClippedNormal returns a Normal sample clipped to [lo, hi]. The paper
// draws per-process aggregation-buffer sizes from a normal distribution
// (mean = nominal buffer, σ = 50) and a physical quantity like memory
// cannot go negative, so clipping is the honest interpretation.
func (r *RNG) ClippedNormal(mean, sigma, lo, hi float64) float64 {
	v := r.Normal(mean, sigma)
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

// LogNormal returns exp(N(mu, sigma²)); useful for skewed request-size
// distributions in synthetic workloads.
func (r *RNG) LogNormal(mu, sigma float64) float64 {
	return math.Exp(r.Normal(mu, sigma))
}

// Exp returns an exponential sample with the given mean. Used for
// arrival jitter in bursty workloads.
func (r *RNG) Exp(mean float64) float64 {
	u := r.Float64()
	for u == 0 {
		u = r.Float64()
	}
	return -mean * math.Log(u)
}

// Perm returns a deterministic pseudo-random permutation of [0, n).
func (r *RNG) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
	return p
}
