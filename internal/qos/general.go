package qos

import (
	"fmt"
	"math"

	"satqos/internal/numeric"
	"satqos/internal/stats"
)

// GeneralModel is the quadrature path of the analytic model: the same
// G-functions as Model, but for arbitrary signal-duration and
// computation-time distributions. It evaluates the defining integrals of
// §4.2.2 with adaptive Simpson quadrature instead of the exponential
// closed forms, enabling the sensitivity experiments that relax the
// paper's assumptions (e.g. Weibull signal durations, Erlang computation
// times) and providing an independent cross-check of the closed forms.
type GeneralModel struct {
	// Geom is the plane geometry (θ, Tc).
	Geom Geometry
	// TauMin is the alert deadline τ in minutes.
	TauMin float64
	// SignalDuration is the distribution f of the signal's duration.
	SignalDuration stats.Distribution
	// ComputeTime is the distribution h of one iterative geolocation
	// computation.
	ComputeTime stats.Distribution
	// Tol is the quadrature tolerance (numeric.DefaultTol when zero).
	Tol float64
}

// NewGeneralModel validates and constructs a general model.
func NewGeneralModel(geom Geometry, tau float64, f, h stats.Distribution) (GeneralModel, error) {
	if _, err := NewGeometry(geom.ThetaMin, geom.TcMin); err != nil {
		return GeneralModel{}, err
	}
	if tau <= 0 || math.IsNaN(tau) || math.IsInf(tau, 0) {
		return GeneralModel{}, fmt.Errorf("qos: deadline τ = %g min must be positive and finite", tau)
	}
	if f == nil || h == nil {
		return GeneralModel{}, fmt.Errorf("qos: signal-duration and computation-time distributions are required")
	}
	return GeneralModel{Geom: geom, TauMin: tau, SignalDuration: f, ComputeTime: h}, nil
}

func (m GeneralModel) tol() float64 {
	if m.Tol > 0 {
		return m.Tol
	}
	return numeric.DefaultTol
}

// window is the integrand of the coordination-window integrals:
// survival of the signal to offset w times the probability the final
// iteration fits in the remaining deadline budget τ − w.
func (m GeneralModel) window(w float64) float64 {
	return stats.Survival(m.SignalDuration, w) * m.ComputeTime.CDF(m.TauMin-w)
}

// G3 is the quadrature form of Eq. (4). Evaluations are memoized in the
// G-table (see gcache.go) and use the fixed-node Gauss–Kronrod fast
// path, falling back to adaptive Simpson when the embedded error
// estimate misses the tolerance.
func (m GeneralModel) G3(k int) (float64, error) {
	return m.gCached(3, k, func() (float64, error) { return m.g3(k) })
}

func (m GeneralModel) g3(k int) (float64, error) {
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
	lhat := math.Min(l1-l2, m.TauMin)
	alpha, err := numeric.IntegrateFast(m.window, 0, lhat, m.tol())
	if err != nil {
		return 0, fmt.Errorf("qos: G3 quadrature: %w", err)
	}
	return (alpha + l2*m.ComputeTime.CDF(m.TauMin)) / l1, nil
}

// G3BAQ is the BAQ baseline's level-3 probability.
func (m GeneralModel) G3BAQ(k int) (float64, error) {
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
	return l2 / l1 * m.ComputeTime.CDF(m.TauMin), nil
}

// G2 is the quadrature form of the sequential-coverage probability
// (Theorem 2, both windows). Memoized like G3.
func (m GeneralModel) G2(k int) (float64, error) {
	return m.gCached(2, k, func() (float64, error) { return m.g2(k) })
}

func (m GeneralModel) g2(k int) (float64, error) {
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
	ltilde := math.Min(l1, m.TauMin)

	var total float64
	if ltilde > l2 {
		v, err := numeric.IntegrateFast(m.window, l2, ltilde, m.tol())
		if err != nil {
			return 0, fmt.Errorf("qos: G2 quadrature: %w", err)
		}
		total += v
	}
	if m.TauMin > l1 && l2 > 0 {
		// Gap window with the detection-anchored deadline: the signal
		// survives g + L1 from occurrence and the final iteration fits in
		// τ − L1 of deadline budget (the clock starts at detection).
		v, err := numeric.IntegrateFast(func(g float64) float64 {
			return stats.Survival(m.SignalDuration, g+l1)
		}, 0, l2, m.tol())
		if err != nil {
			return 0, fmt.Errorf("qos: G2 gap quadrature: %w", err)
		}
		total += v * m.ComputeTime.CDF(m.TauMin-l1)
	}
	return total / l1, nil
}
