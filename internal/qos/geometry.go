// Package qos implements the paper's analytic QoS model (§4.2): the
// footprint-trajectory geometry (revisit time Tr[k], coverage time Tc,
// auxiliary lengths L1[k], L2[k], indicator I[k], and the
// consecutive-coverage bound M[k] of Eq. (2)), the conditional QoS-level
// probabilities P(Y = y | k) for both the OAQ and BAQ schemes (Eq. (4)
// and its companions, in closed form for exponential signal-duration and
// computation-time distributions and by quadrature for general ones),
// and the composition of Eq. (3) with the plane-capacity distribution
// P(k) of package capacity.
//
// Time is in minutes throughout, matching the paper (τ, µ, ν, θ, Tc).
package qos

import (
	"fmt"
	"math"
)

// Geometry captures the two constants that determine an orbital plane's
// footprint-trajectory geometry: the orbital period θ and the
// single-satellite coverage time Tc.
type Geometry struct {
	// ThetaMin is the orbital period θ in minutes (90 for the reference
	// constellation).
	ThetaMin float64
	// TcMin is the coverage time Tc in minutes (9 for the reference
	// constellation): the maximum time a ground point is covered by a
	// single footprint.
	TcMin float64
}

// NewGeometry validates and constructs the geometry.
func NewGeometry(thetaMin, tcMin float64) (Geometry, error) {
	if thetaMin <= 0 || math.IsNaN(thetaMin) || math.IsInf(thetaMin, 0) {
		return Geometry{}, fmt.Errorf("qos: orbital period θ = %g min must be positive and finite", thetaMin)
	}
	if tcMin <= 0 || tcMin >= thetaMin {
		return Geometry{}, fmt.Errorf("qos: coverage time Tc = %g min must be in (0, θ)", tcMin)
	}
	return Geometry{ThetaMin: thetaMin, TcMin: tcMin}, nil
}

// ReferenceGeometry returns the reference constellation's values:
// θ = 90 min, Tc = 9 min.
func ReferenceGeometry() Geometry {
	return Geometry{ThetaMin: 90, TcMin: 9}
}

// Tr returns the revisit time Tr[k] ≈ θ/k for a plane with k active
// satellites. k must be positive.
func (g Geometry) Tr(k int) (float64, error) {
	if k < 1 {
		return 0, fmt.Errorf("qos: plane capacity k = %d must be positive", k)
	}
	return g.ThetaMin / float64(k), nil
}

// L1 returns the auxiliary length L1[k] = Tr[k], the period of the
// footprint-trajectory pattern (see Fig. 5 of the paper).
func (g Geometry) L1(k int) (float64, error) { return g.Tr(k) }

// L2 returns the auxiliary length L2[k] = |Tc − Tr[k]|: the overlap
// duration when footprints overlap, or the coverage-gap duration when
// they underlap.
func (g Geometry) L2(k int) (float64, error) {
	tr, err := g.Tr(k)
	if err != nil {
		return 0, err
	}
	return math.Abs(g.TcMin - tr), nil
}

// Overlapping reports the indicator I[k] of Eq. (1): true iff
// Tr[k] < Tc, i.e. adjacent footprints in the plane overlap.
func (g Geometry) Overlapping(k int) (bool, error) {
	tr, err := g.Tr(k)
	if err != nil {
		return false, err
	}
	return tr < g.TcMin, nil
}

// I returns the indicator I[k] of Eq. (1) as an integer (1 = overlap).
func (g Geometry) I(k int) (int, error) {
	ov, err := g.Overlapping(k)
	if err != nil {
		return 0, err
	}
	if ov {
		return 1, nil
	}
	return 0, nil
}

// MaxTwoRegimeCapacity returns the largest plane capacity the paper's
// two-regime model admits: Tr[k] ≥ Tc/2 ⟺ k ≤ 2θ/Tc. Beyond it, triple
// simultaneous coverage appears and the analytic level probabilities no
// longer apply (20 for the reference geometry). Callers sizing a model
// for a dense Walker preset clamp k here.
func (g Geometry) MaxTwoRegimeCapacity() int {
	return int(math.Floor(2 * g.ThetaMin / g.TcMin))
}

// validCapacity checks that the paper's two-regime model applies to
// capacity k: the single-coverage interval L1 − L2 must be non-negative,
// which fails only when footprints are so dense that triple simultaneous
// coverage appears (Tr < Tc/2). The reference constellation never enters
// that regime (it would need k > 20).
func (g Geometry) validCapacity(k int) error {
	l1, err := g.L1(k)
	if err != nil {
		return err
	}
	l2, _ := g.L2(k)
	if l1 < l2 {
		return fmt.Errorf("qos: capacity k = %d implies triple-coverage geometry (Tr = %g < Tc/2 = %g) outside the model's two-regime structure",
			k, l1, g.TcMin/2)
	}
	return nil
}
