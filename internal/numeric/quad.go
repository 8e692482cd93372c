package numeric

import (
	"errors"
	"fmt"
	"math"
)

// ErrNoConvergence is returned when an iterative routine fails to reach
// the requested tolerance within its iteration budget.
var ErrNoConvergence = errors.New("numeric: no convergence")

// DefaultTol is the absolute tolerance used by the convenience wrappers.
const DefaultTol = 1e-10

// maxQuadDepth bounds the recursion depth of adaptive quadrature. At
// depth d the panel width is (b-a)/2^d; 52 panels below machine epsilon
// relative to the original interval is unreachable for any smooth
// integrand, so hitting the bound indicates a non-integrable singularity.
const maxQuadDepth = 52

// Integrate computes the definite integral of f over [a, b] with adaptive
// Simpson quadrature to absolute tolerance tol. The interval may be
// reversed (a > b), in which case the sign of the result flips, matching
// the usual convention.
func Integrate(f func(float64) float64, a, b, tol float64) (float64, error) {
	if tol <= 0 {
		return 0, fmt.Errorf("numeric: tolerance %g must be positive", tol)
	}
	if a == b {
		return 0, nil
	}
	sign := 1.0
	if a > b {
		a, b = b, a
		sign = -1
	}
	fa, fm, fb := f(a), f((a+b)/2), f(b)
	whole := simpson(a, b, fa, fm, fb)
	// Width floor: at a jump discontinuity the Richardson error and the
	// per-level tolerance both halve with the interval, so plain
	// recursion never terminates. Below this width the interval's
	// possible contribution is beneath the requested tolerance and the
	// local estimate is accepted.
	floor := (b - a) * 1e-12
	v, err := adaptiveSimpson(f, a, b, fa, fm, fb, whole, tol, maxQuadDepth, floor)
	return sign * v, err
}

func simpson(a, b, fa, fm, fb float64) float64 {
	return (b - a) / 6 * (fa + 4*fm + fb)
}

func adaptiveSimpson(f func(float64) float64, a, b, fa, fm, fb, whole, tol float64, depth int, floor float64) (float64, error) {
	m := (a + b) / 2
	lm, rm := (a+m)/2, (m+b)/2
	flm, frm := f(lm), f(rm)
	left := simpson(a, m, fa, flm, fm)
	right := simpson(m, b, fm, frm, fb)
	delta := left + right - whole
	// The factor 15 comes from the Richardson error estimate of the
	// composite Simpson rule.
	if math.Abs(delta) <= 15*tol || b-a <= floor {
		return left + right + delta/15, nil
	}
	if depth == 0 {
		return left + right, ErrNoConvergence
	}
	lv, lerr := adaptiveSimpson(f, a, m, fa, flm, fm, left, tol/2, depth-1, floor)
	rv, rerr := adaptiveSimpson(f, m, b, fm, frm, fb, right, tol/2, depth-1, floor)
	if lerr != nil {
		return lv + rv, lerr
	}
	return lv + rv, rerr
}
