// Package capacity implements the paper's orbital-plane capacity model
// (§4.2.2): the probability P(k) that an orbital plane has k active
// operational satellites, under per-satellite failures at rate λ,
// in-orbit spares, and the two ground-spare deployment policies.
//
// Model semantics (as in the paper's SAN evaluated with UltraSAN):
//
//   - Each of the k active satellites fails independently at rate λ, so
//     the plane-level failure rate in a state with k actives is kλ.
//   - A failure is absorbed by an in-orbit spare while any remain
//     (capacity stays at N); afterwards each failure shrinks capacity by
//     one and the survivors are re-phased.
//   - The threshold-triggered ground-spare deployment policy prevents
//     capacity from dropping below the threshold η: at k = η further
//     failures are replaced immediately, so η is the floor (the paper:
//     "the threshold-triggered ground-spare deployment policy prevents
//     the scenario in which the plane's capacity drops below the
//     threshold from happening").
//   - The scheduled ground-spare deployment policy restores the plane to
//     its original capacity (N actives + S in-orbit spares) every φ
//     hours — a deterministic activity that renews the process.
//
// Because the deterministic activity resets the state, the long-run
// distribution P(k) — which, by PASTA, is also what a Poisson-arriving
// signal observes — equals the time average of the transient
// distribution over one period [0, φ]. The package computes P(k) by
// three routes that are cross-checked in tests:
//
//  1. Analytic: uniformization of the birth chain, the pure-birth
//     failure chain stepped directly, without a reachability graph;
//  2. SAN: reachability + uniformization renewal average via package
//     san (the UltraSAN route);
//  3. Simulation: discrete-event simulation of the same SAN.
//
// Routes 1 and 2 build their chains independently but share the series
// of san.Uniformize; the tests also hold route 1 to an RK4 solve of the
// forward equations, which shares nothing with it.
//
// Time is measured in hours throughout this package, matching the
// paper's units for λ and φ.
package capacity

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"satqos/internal/san"
	"satqos/internal/stats"
)

// Params describes one orbital plane and its protection policies.
type Params struct {
	// ActivePerPlane is N, the full active capacity (14 in the reference
	// constellation).
	ActivePerPlane int
	// Spares is S, the number of in-orbit spares (2 in the reference
	// constellation).
	Spares int
	// Eta is the threshold η of the threshold-triggered ground-spare
	// deployment policy: capacity never drops below η.
	Eta int
	// LambdaPerHour is the per-satellite failure rate λ (hours⁻¹).
	LambdaPerHour float64
	// PhiHours is the scheduled ground-spare deployment period φ (hours).
	PhiHours float64
}

// ReferenceParams returns the paper's defaults: N = 14, S = 2, with the
// given η, λ, φ (the figures use η = 10 or 12, φ = 30000 h).
func ReferenceParams(eta int, lambda, phi float64) Params {
	return Params{
		ActivePerPlane: 14,
		Spares:         2,
		Eta:            eta,
		LambdaPerHour:  lambda,
		PhiHours:       phi,
	}
}

// Validate checks parameter consistency.
func (p Params) Validate() error {
	switch {
	case p.ActivePerPlane < 1:
		return fmt.Errorf("capacity: N = %d must be at least 1", p.ActivePerPlane)
	case p.Spares < 0:
		return fmt.Errorf("capacity: spares %d must be non-negative", p.Spares)
	case p.Eta < 1 || p.Eta > p.ActivePerPlane:
		return fmt.Errorf("capacity: threshold η = %d outside [1, %d]", p.Eta, p.ActivePerPlane)
	case p.LambdaPerHour <= 0 || math.IsNaN(p.LambdaPerHour) || math.IsInf(p.LambdaPerHour, 0):
		return fmt.Errorf("capacity: failure rate λ = %g must be positive and finite", p.LambdaPerHour)
	case p.PhiHours <= 0 || math.IsNaN(p.PhiHours) || math.IsInf(p.PhiHours, 0):
		return fmt.Errorf("capacity: scheduled period φ = %g must be positive and finite", p.PhiHours)
	}
	return nil
}

// maxFailures returns F, the failure count at which capacity reaches η
// and the chain absorbs (until the scheduled renewal).
func (p Params) maxFailures() int {
	return p.Spares + p.ActivePerPlane - p.Eta
}

// capacityAt returns k(f): the active capacity after f failures since
// the last renewal.
func (p Params) capacityAt(f int) int {
	if f <= p.Spares {
		return p.ActivePerPlane
	}
	k := p.ActivePerPlane - (f - p.Spares)
	if k < p.Eta {
		return p.Eta
	}
	return k
}

// Distribution is the plane-capacity distribution P(K = k) over
// k ∈ [η, N].
type Distribution struct {
	// Eta and N delimit the support.
	Eta, N int
	probs  map[int]float64
}

// NewDistribution builds a distribution from a probability map, checking
// support and total mass.
func NewDistribution(eta, n int, probs map[int]float64) (*Distribution, error) {
	var sum float64
	for k, v := range probs {
		if k < eta || k > n {
			return nil, fmt.Errorf("capacity: probability at k = %d outside support [%d, %d]", k, eta, n)
		}
		if v < -1e-12 {
			return nil, fmt.Errorf("capacity: negative probability %g at k = %d", v, k)
		}
		sum += v
	}
	if math.Abs(sum-1) > 1e-6 {
		return nil, fmt.Errorf("capacity: total mass %g, want 1", sum)
	}
	cp := make(map[int]float64, len(probs))
	for k, v := range probs {
		cp[k] = v
	}
	return &Distribution{Eta: eta, N: n, probs: cp}, nil
}

// NewClampedDistribution builds a distribution from a dense probability
// vector (pmf[k] = P(K = k) for k = 0, 1, ...) whose support may extend
// outside [eta, n]: out-of-support mass is folded onto the nearest bound
// (below eta onto eta, above n onto n). This is the adapter used by
// distributions that are not native plane-capacity laws — e.g. the
// stochastic-geometry visible-count PMF, which has mass at k = 0 and
// beyond any plane's capacity — so they can be composed by qos.Model
// unchanged. Total mass must still be 1. Mass folds in ascending k, so
// the result is bit-reproducible.
func NewClampedDistribution(eta, n int, pmf []float64) (*Distribution, error) {
	folded := make(map[int]float64, max(n-eta+1, 0))
	for k, v := range pmf {
		if v < -1e-12 {
			return nil, fmt.Errorf("capacity: negative probability %g at k = %d", v, k)
		}
		folded[min(max(k, eta), n)] += v
	}
	return NewDistribution(eta, n, folded)
}

// P returns P(K = k); zero outside the support.
func (d *Distribution) P(k int) float64 { return d.probs[k] }

// Mean returns E[K], summed in ascending k so it is bit-reproducible.
func (d *Distribution) Mean() float64 {
	var m float64
	for k := d.Eta; k <= d.N; k++ {
		m += float64(k) * d.probs[k]
	}
	return m
}

// Support returns the capacities with nonzero probability, ascending.
func (d *Distribution) Support() []int {
	ks := make([]int, 0, len(d.probs))
	for k, v := range d.probs {
		if v > 0 {
			ks = append(ks, k)
		}
	}
	sort.Ints(ks)
	return ks
}

// String renders the distribution compactly.
func (d *Distribution) String() string {
	var b strings.Builder
	for _, k := range d.Support() {
		fmt.Fprintf(&b, "P(%d)=%.4g ", k, d.probs[k])
	}
	return strings.TrimSpace(b.String())
}

// analyticEps bounds the Poisson truncation of both exact routes and the
// transient mass left when their series stops at absorption; each such
// stop errs by at most that mass.
const analyticEps = 1e-15

// Analytic computes P(k) from the pure-birth failure chain without going
// through the SAN engine: the chain is uniformized at Λ = Nλ, its
// fastest rate, and the time average (1/φ)∫₀^φ p(t) dt is summed by
// san.Uniformize. P(K=k) = Σ_{f : k(f)=k} of that average. The chain is
// bidiagonal, so a DTMC step costs O(F), and the series stops once all
// but analyticEps of the mass sits in the absorbing state F: a few
// hundred steps at most, however large λφ is.
//
// Results are memoized per Params value (see cache.go): across a sweep
// the solve runs once per distinct (N, S, η, λ, φ) and repeat calls
// return the shared, immutable Distribution.
func (p Params) Analytic() (*Distribution, error) {
	return p.analyticCached()
}

// uniformized performs the actual solve, returning its DTMC step count
// too; Analytic wraps it with the memoization layer.
func (p Params) uniformized() (*Distribution, int, error) {
	if err := p.Validate(); err != nil {
		return nil, 0, err
	}
	nf := p.maxFailures()
	// From f the uniformized chain moves on with probability
	// r_f/Λ = k(f)/N and stays otherwise; r_F = 0 (absorbing).
	up := make([]float64, nf+1)
	for f := 0; f < nf; f++ {
		up[f] = float64(p.capacityAt(f)) / float64(p.ActivePerPlane)
	}
	p0 := make([]float64, nf+1)
	p0[0] = 1
	mean := float64(p.ActivePerPlane) * p.LambdaPerHour * p.PhiHours
	avg, steps, err := san.Uniformize(p0, mean, analyticEps, true,
		func(v, next []float64) {
			for f := range next {
				next[f] = v[f] * (1 - up[f])
				if f > 0 {
					next[f] += v[f-1] * up[f-1]
				}
			}
		},
		func(v []float64) float64 {
			var s float64
			for _, x := range v[:nf] {
				s += x
			}
			return s
		})
	if err != nil {
		return nil, steps, fmt.Errorf("capacity: uniformization: %w", err)
	}
	probs := make(map[int]float64)
	for f, x := range avg {
		probs[p.capacityAt(f)] += x
	}
	d, err := NewDistribution(p.Eta, p.ActivePerPlane, probs)
	return d, steps, err
}

// placeActives and placeSpares index the SAN marking.
const (
	placeActives = 0
	placeSpares  = 1
)

// Model returns the stochastic activity network of the plane: places
// (actives, spares), an exponential failure activity, and the
// deterministic scheduled-deployment activity with delay φ. The
// threshold policy appears as the failure activity being disabled at
// k = η with no spares (failures there are replaced immediately, leaving
// the marking unchanged).
func (p Params) Model() *san.Model {
	lambda := p.LambdaPerHour
	eta := p.Eta
	n := p.ActivePerPlane
	s := p.Spares
	return &san.Model{
		Places: []san.Place{
			{Name: "actives", Initial: n},
			{Name: "spares", Initial: s},
		},
		Activities: []san.Activity{
			{
				Name:   "satellite_failure",
				Timing: san.TimingExponential,
				Rate: func(m san.Marking) float64 {
					k := m[placeActives]
					if k <= eta && m[placeSpares] == 0 {
						// Threshold floor: replacement is immediate, the
						// marking cannot change.
						return 0
					}
					return float64(k) * lambda
				},
				Effect: func(m san.Marking) san.Marking {
					next := m.Clone()
					if next[placeSpares] > 0 {
						next[placeSpares]--
						return next
					}
					next[placeActives]--
					return next
				},
			},
			{
				Name:   "scheduled_deployment",
				Timing: san.TimingDeterministic,
				Delay:  p.PhiHours,
				Effect: func(m san.Marking) san.Marking {
					next := m.Clone()
					next[placeActives] = n
					next[placeSpares] = s
					return next
				},
			},
		},
	}
}

// SAN computes P(k) through the SAN engine: renewal average of the
// subordinate CTMC over one deterministic period.
func (p Params) SAN() (*Distribution, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	ctmc, avg, err := san.RenewalAverage(p.Model(), p.PhiHours, 0, analyticEps)
	if err != nil {
		return nil, fmt.Errorf("capacity: SAN solution: %w", err)
	}
	probs := make(map[int]float64)
	for i := 0; i < ctmc.NumStates(); i++ {
		probs[ctmc.State(i)[placeActives]] += avg[i]
	}
	return NewDistribution(p.Eta, p.ActivePerPlane, probs)
}

// Simulate computes P(k) by discrete-event simulation over the given
// horizon (hours). It is the slowest route and exists to validate the
// analytic ones; horizons of a few hundred periods give percent-level
// agreement.
func (p Params) Simulate(horizonHours float64, rng *stats.RNG) (*Distribution, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	res, err := san.Simulate(p.Model(), horizonHours, rng)
	if err != nil {
		return nil, fmt.Errorf("capacity: simulation: %w", err)
	}
	probs := make(map[int]float64)
	for key, frac := range res.Occupancy {
		probs[res.Markings[key][placeActives]] += frac
	}
	return NewDistribution(p.Eta, p.ActivePerPlane, probs)
}
