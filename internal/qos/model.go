package qos

import (
	"fmt"
	"math"

	"satqos/internal/capacity"
)

// Model is the paper's analytic QoS model with its standard exponential
// assumptions (§4.2.1): signal duration ~ Exp(µ) and iterative
// geolocation computation time ~ Exp(ν). All G-functions have exact
// closed forms under these assumptions; see GeneralModel for the
// quadrature path with arbitrary distributions.
type Model struct {
	// Geom is the plane geometry (θ, Tc).
	Geom Geometry
	// TauMin is the alert-message delivery deadline τ (minutes, measured
	// from initial detection).
	TauMin float64
	// Mu is the signal termination rate µ (min⁻¹); mean signal duration
	// is 1/µ.
	Mu float64
	// Nu is the iterative-computation completion rate ν (min⁻¹); mean
	// computation time is 1/ν.
	Nu float64
}

// NewModel validates and constructs the model. The paper's §4.3 defaults
// are τ = 5, µ = 0.5, ν = 30 on the reference geometry.
func NewModel(geom Geometry, tau, mu, nu float64) (Model, error) {
	if _, err := NewGeometry(geom.ThetaMin, geom.TcMin); err != nil {
		return Model{}, err
	}
	if tau <= 0 || math.IsNaN(tau) || math.IsInf(tau, 0) {
		return Model{}, fmt.Errorf("qos: deadline τ = %g min must be positive and finite", tau)
	}
	if mu <= 0 || math.IsNaN(mu) {
		return Model{}, fmt.Errorf("qos: signal termination rate µ = %g must be positive", mu)
	}
	if nu <= 0 || math.IsNaN(nu) {
		return Model{}, fmt.Errorf("qos: computation completion rate ν = %g must be positive", nu)
	}
	return Model{Geom: geom, TauMin: tau, Mu: mu, Nu: nu}, nil
}

// ReferenceModel returns the paper's §4.3 spot-check parameters:
// reference geometry, τ = 5, µ = 0.5, ν = 30.
func ReferenceModel() Model {
	return Model{Geom: ReferenceGeometry(), TauMin: 5, Mu: 0.5, Nu: 30}
}

// LHat returns L̂[k] = min(L1[k] − L2[k], τ): the portion of the
// single-coverage interval from which a withheld result can still reach
// simultaneous coverage before the deadline (Theorem 1).
func (m Model) LHat(k int) (float64, error) {
	l1, err := m.Geom.L1(k)
	if err != nil {
		return 0, err
	}
	l2, _ := m.Geom.L2(k)
	return math.Min(l1-l2, m.TauMin), nil
}

// LTilde returns L̃[k] = min(L1[k], τ): the reach of sequential
// coordination across the revisit period (Theorem 2).
func (m Model) LTilde(k int) (float64, error) {
	l1, err := m.Geom.L1(k)
	if err != nil {
		return 0, err
	}
	return math.Min(l1, m.TauMin), nil
}

// hCDF is the computation-time CDF H(t) = 1 − e^{−νt} (0 for t <= 0).
func (m Model) hCDF(t float64) float64 {
	if t <= 0 {
		return 0
	}
	return -math.Expm1(-m.Nu * t)
}

// windowIntegral computes J(a, b) = ∫ₐᵇ e^{−µw}(1 − e^{−ν(τ−w)}) dw for
// 0 <= a <= b <= τ: the probability-weighted window in which the signal
// survives until the coordinating pass at offset w AND the final
// iteration completes inside the remaining deadline budget. Closed form:
//
//	J = (e^{−µa} − e^{−µb})/µ − e^{−ντ} (e^{(ν−µ)b} − e^{(ν−µ)a})/(ν−µ),
//
// with the ν = µ limit handled explicitly. The second term is evaluated
// with the e^{−ντ} factor folded into each exponent — as written above,
// e^{(ν−µ)b} overflows for large ν even though the product is tiny
// (0 · ∞ = NaN); the folded exponents −ν(τ−w) − µw are nonpositive for
// every w ≤ τ and cannot overflow.
func (m Model) windowIntegral(a, b float64) float64 {
	if b <= a {
		return 0
	}
	first := (math.Exp(-m.Mu*a) - math.Exp(-m.Mu*b)) / m.Mu
	var second float64
	if m.Nu == m.Mu {
		second = math.Exp(-m.Nu*m.TauMin) * (b - a)
	} else {
		d := m.Nu - m.Mu
		second = (math.Exp(-m.Nu*(m.TauMin-b)-m.Mu*b) - math.Exp(-m.Nu*(m.TauMin-a)-m.Mu*a)) / d
	}
	v := first - second
	if v < 0 {
		return 0
	}
	return v
}

// G3 returns the paper's Eq. (4): the probability of delivering a
// level-3 (simultaneous dual coverage) result under OAQ, given an
// overlapping plane with k active satellites. Zero for underlapping k.
//
// The first term covers signals starting in the single-coverage interval
// α at most L̂[k] before the overlap interval β: the signal must survive
// until the overlapped footprints arrive (Wx of the paper) and the
// iterative computation must finish inside the deadline. The second term
// covers signals starting inside β, where simultaneous coverage is
// immediate.
func (m Model) G3(k int) (float64, error) {
	if err := m.Geom.validCapacity(k); err != nil {
		return 0, err
	}
	ov, err := m.Geom.Overlapping(k)
	if err != nil {
		return 0, err
	}
	if !ov {
		return 0, nil
	}
	l1, _ := m.Geom.L1(k)
	l2, _ := m.Geom.L2(k)
	lhat, _ := m.LHat(k)
	return (m.windowIntegral(0, lhat) + l2*m.hCDF(m.TauMin)) / l1, nil
}

// G3BAQ returns the level-3 probability under the BAQ baseline: without
// withholding, a simultaneous-coverage result requires the signal to
// start inside the overlap interval β, so the α-term of Eq. (4)
// disappears.
func (m Model) G3BAQ(k int) (float64, error) {
	if err := m.Geom.validCapacity(k); err != nil {
		return 0, err
	}
	ov, err := m.Geom.Overlapping(k)
	if err != nil {
		return 0, err
	}
	if !ov {
		return 0, nil
	}
	l1, _ := m.Geom.L1(k)
	l2, _ := m.Geom.L2(k)
	return l2 / l1 * m.hCDF(m.TauMin), nil
}

// G2 returns the probability of a level-2 (sequential multiple coverage)
// result under OAQ, given an underlapping plane with k active
// satellites; zero for overlapping k (per Table 1). Theorem 2 gives the
// two windows:
//
//   - the signal starts in a single-coverage interval αᵢ at offset
//     w ∈ [L2, L̃] before the next satellite's arrival (requires
//     τ > L2); it must survive w and the final iteration must complete
//     inside τ − w; and
//   - (only when τ > L1) the signal starts in the coverage gap γᵢ at
//     offset g before satellite i+1's arrival, survives to be detected
//     there (which starts the deadline clock — the paper's footnote 2
//     measures τ from initial detection), survives the further L1 wait
//     for satellite i+2, and the final iteration completes inside
//     τ − L1. This is Theorem 2's second window restated against the
//     protocol's detection-anchored deadline.
func (m Model) G2(k int) (float64, error) {
	if err := m.Geom.validCapacity(k); err != nil {
		return 0, err
	}
	ov, err := m.Geom.Overlapping(k)
	if err != nil {
		return 0, err
	}
	if ov {
		return 0, nil
	}
	l1, _ := m.Geom.L1(k)
	l2, _ := m.Geom.L2(k)
	ltilde, _ := m.LTilde(k)

	total := m.windowIntegral(l2, ltilde) // zero unless τ > L2
	if m.TauMin > l1 && l2 > 0 {
		// Gap window: survival over g + L1 from occurrence, with the
		// deadline clock starting at detection (the satellite i+1 pass):
		// ∫₀^{L2} e^{−µ(g+L1)} dg · H(τ − L1).
		survive := math.Exp(-m.Mu*l1) * (1 - math.Exp(-m.Mu*l2)) / m.Mu
		total += survive * m.hCDF(m.TauMin-l1)
	}
	return total / l1, nil
}

// G0 returns the probability of a level-0 (missing target) outcome:
// the signal starts in the coverage gap γ at distance g from the next
// footprint's arrival and terminates within g. Identical for OAQ and
// BAQ (no scheme can observe an unseen signal); zero for overlapping k.
func (m Model) G0(k int) (float64, error) {
	if err := m.Geom.validCapacity(k); err != nil {
		return 0, err
	}
	ov, err := m.Geom.Overlapping(k)
	if err != nil {
		return 0, err
	}
	if ov {
		return 0, nil
	}
	l1, _ := m.Geom.L1(k)
	l2, _ := m.Geom.L2(k)
	if l2 == 0 {
		return 0, nil
	}
	// (1/L1) ∫₀^{L2} (1 − e^{−µg}) dg.
	return (l2 - (1-math.Exp(-m.Mu*l2))/m.Mu) / l1, nil
}

// ConditionalPMF returns P(Y = y | k) for the given scheme as a PMF over
// the 4-level spectrum. Level 1 (single coverage) is the catch-all: the
// OAQ protocol guarantees the timely delivery of at least the
// preliminary result whenever the signal is detected.
func (m Model) ConditionalPMF(s Scheme, k int) (PMF, error) {
	if !s.Valid() {
		return PMF{}, fmt.Errorf("qos: unknown scheme %d", int(s))
	}
	var pmf PMF
	g0, err := m.G0(k)
	if err != nil {
		return PMF{}, err
	}
	pmf[LevelMiss] = g0
	switch s {
	case SchemeOAQ:
		g3, err := m.G3(k)
		if err != nil {
			return PMF{}, err
		}
		g2, err := m.G2(k)
		if err != nil {
			return PMF{}, err
		}
		pmf[LevelSimultaneousDual] = g3
		pmf[LevelSequentialDual] = g2
	case SchemeBAQ:
		g3, err := m.G3BAQ(k)
		if err != nil {
			return PMF{}, err
		}
		pmf[LevelSimultaneousDual] = g3
	}
	pmf[LevelSingle] = 1 - pmf[LevelMiss] - pmf[LevelSequentialDual] - pmf[LevelSimultaneousDual]
	if pmf[LevelSingle] < 0 {
		if pmf[LevelSingle] < -1e-9 {
			return PMF{}, fmt.Errorf("qos: negative single-coverage mass %g at k = %d", pmf[LevelSingle], k)
		}
		pmf[LevelSingle] = 0
	}
	return pmf, nil
}

// Compose evaluates Eq. (3): the unconditional QoS mass function
// P(Y = y) = Σ_k P(Y = y | k) P(k) over the plane-capacity distribution.
func (m Model) Compose(s Scheme, dist *capacity.Distribution) (PMF, error) {
	if dist == nil {
		return PMF{}, fmt.Errorf("qos: nil capacity distribution")
	}
	var out PMF
	for _, k := range dist.Support() {
		cond, err := m.ConditionalPMF(s, k)
		if err != nil {
			return PMF{}, err
		}
		pk := dist.P(k)
		for l := range out {
			out[l] += pk * cond[l]
		}
	}
	return out, nil
}

// Measure returns the paper's QoS measure P(Y >= y) under the given
// scheme and plane-capacity distribution.
func (m Model) Measure(s Scheme, dist *capacity.Distribution, y Level) (float64, error) {
	if !y.Valid() {
		return 0, fmt.Errorf("qos: invalid level %d", int(y))
	}
	pmf, err := m.Compose(s, dist)
	if err != nil {
		return 0, err
	}
	return pmf.CCDF(y), nil
}
