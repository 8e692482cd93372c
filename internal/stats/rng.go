// Package stats provides the probability substrate for the evaluation:
// random-number streams, the distributions used by the paper's model
// (exponential signal duration and computation time, Poisson signal
// occurrence, deterministic deployment delays), and Wilson confidence
// intervals for the discrete-event validation runs.
package stats

import (
	"fmt"
	"math"
)

// RNG is a small, fast, deterministic pseudo-random generator
// (xoshiro256** seeded via SplitMix64). Distinct (seed, stream) pairs
// yield statistically independent streams, which the discrete-event
// simulations use to give each stochastic process its own stream so that
// changing one workload parameter does not perturb the sample path of
// another (common random numbers across configurations).
//
// The zero value is NOT ready to use; construct with NewRNG.
type RNG struct {
	s [4]uint64
}

// NewRNG returns a generator for the given seed and stream index.
func NewRNG(seed, stream uint64) *RNG {
	r := &RNG{}
	r.Reseed(seed, stream)
	return r
}

// Reseed reinitializes the generator in place for the given (seed,
// stream) pair — equivalent to *r = *NewRNG(seed, stream) without the
// allocation. The paired protocol evaluator uses it to replay one
// substream per episode through a long-lived episode runner.
func (r *RNG) Reseed(seed, stream uint64) {
	// SplitMix64 expansion of (seed, stream) into xoshiro state. The
	// golden-ratio increment guarantees distinct, well-mixed states for
	// consecutive seeds and streams.
	x := seed ^ (stream * 0x9e3779b97f4a7c15)
	for i := range r.s {
		x += 0x9e3779b97f4a7c15
		z := x
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		r.s[i] = z ^ (z >> 31)
	}
	// xoshiro must not start at the all-zero state.
	if r.s[0]|r.s[1]|r.s[2]|r.s[3] == 0 {
		r.s[0] = 0x9e3779b97f4a7c15
	}
}

// Uint64 returns the next 64 random bits.
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

func rotl(x uint64, k uint) uint64 { return (x << k) | (x >> (64 - k)) }

// Float64 returns a uniform variate in [0, 1).
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Intn returns a uniform integer in [0, n). It panics if n <= 0.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic(fmt.Sprintf("stats: Intn(%d): n must be positive", n))
	}
	return int(r.Uint64() % uint64(n))
}

// Exp returns an exponential variate with the given rate (mean 1/rate).
func (r *RNG) Exp(rate float64) float64 {
	if rate <= 0 {
		panic(fmt.Sprintf("stats: Exp rate %g must be positive", rate))
	}
	// 1-Float64() is in (0, 1], avoiding log(0).
	return -math.Log(1-r.Float64()) / rate
}

// Norm returns a standard normal variate (Box–Muller; the second variate
// of the pair is deliberately discarded to keep the stream memoryless,
// which matters for reproducibility across refactors).
func (r *RNG) Norm() float64 {
	u1 := 1 - r.Float64()
	u2 := r.Float64()
	return math.Sqrt(-2*math.Log(u1)) * math.Cos(2*math.Pi*u2)
}

// NormSigma returns a normal variate with the given mean and standard
// deviation.
func (r *RNG) NormSigma(mean, sigma float64) float64 {
	return mean + sigma*r.Norm()
}
