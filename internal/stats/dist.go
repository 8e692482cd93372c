package stats

import (
	"fmt"
	"math"
)

// Distribution is a nonnegative continuous distribution: the common
// interface for the paper's signal-duration distribution f and
// iterative-computation-time distribution h.
//
// The paper assumes both are exponential (§4.2.1); the analytic model in
// package qos has closed forms for that case and falls back to quadrature
// over CDF/PDF for anything else satisfying this interface.
type Distribution interface {
	// CDF returns P(X <= x).
	CDF(x float64) float64
	// PDF returns the density at x (0 outside the support; for
	// distributions with atoms, the atom is exposed through CDF only).
	PDF(x float64) float64
	// Mean returns E[X].
	Mean() float64
	// Sample draws a variate using the supplied generator.
	Sample(r *RNG) float64
}

// Exponential is the Exp(rate) distribution, mean 1/rate.
type Exponential struct {
	Rate float64
}

// NewExponential validates and constructs an exponential distribution.
func NewExponential(rate float64) (Exponential, error) {
	if rate <= 0 || math.IsNaN(rate) || math.IsInf(rate, 0) {
		return Exponential{}, fmt.Errorf("stats: exponential rate %g must be positive and finite", rate)
	}
	return Exponential{Rate: rate}, nil
}

// CDF implements Distribution.
func (e Exponential) CDF(x float64) float64 {
	if x <= 0 {
		return 0
	}
	return -math.Expm1(-e.Rate * x)
}

// PDF implements Distribution.
func (e Exponential) PDF(x float64) float64 {
	if x < 0 {
		return 0
	}
	return e.Rate * math.Exp(-e.Rate*x)
}

// Mean implements Distribution.
func (e Exponential) Mean() float64 { return 1 / e.Rate }

// Sample implements Distribution.
func (e Exponential) Sample(r *RNG) float64 { return r.Exp(e.Rate) }

// Erlang is the Erlang(k, rate) distribution: the sum of k independent
// Exp(rate) phases. It is used to phase-approximate deterministic
// activities in the SAN engine (an Erlang with k phases and rate k/d has
// mean d and coefficient of variation 1/sqrt(k)).
type Erlang struct {
	K    int
	Rate float64
}

// NewErlang validates and constructs an Erlang distribution.
func NewErlang(k int, rate float64) (Erlang, error) {
	if k < 1 {
		return Erlang{}, fmt.Errorf("stats: Erlang shape %d must be >= 1", k)
	}
	if rate <= 0 {
		return Erlang{}, fmt.Errorf("stats: Erlang rate %g must be positive", rate)
	}
	return Erlang{K: k, Rate: rate}, nil
}

// CDF implements Distribution: 1 − Σ_{i<k} e^{−λx}(λx)^i/i!.
func (e Erlang) CDF(x float64) float64 {
	if x <= 0 {
		return 0
	}
	lx := e.Rate * x
	term := 1.0
	sum := 1.0
	for i := 1; i < e.K; i++ {
		term *= lx / float64(i)
		sum += term
	}
	return 1 - math.Exp(-lx)*sum
}

// PDF implements Distribution.
func (e Erlang) PDF(x float64) float64 {
	if x < 0 {
		return 0
	}
	lx := e.Rate * x
	// rate^k x^{k-1} e^{-rate x} / (k-1)! computed in log space for
	// stability at large k.
	logp := float64(e.K)*math.Log(e.Rate) + float64(e.K-1)*math.Log(x) - lx - lgammaInt(e.K)
	if x == 0 {
		if e.K == 1 {
			return e.Rate
		}
		return 0
	}
	return math.Exp(logp)
}

func lgammaInt(n int) float64 {
	v, _ := math.Lgamma(float64(n))
	return v
}

// Mean implements Distribution.
func (e Erlang) Mean() float64 { return float64(e.K) / e.Rate }

// Sample implements Distribution.
func (e Erlang) Sample(r *RNG) float64 {
	var s float64
	for i := 0; i < e.K; i++ {
		s += r.Exp(e.Rate)
	}
	return s
}

// Deterministic is the degenerate distribution concentrated at Value. It
// models the paper's deterministic activity times (the scheduled
// ground-spare deployment period φ).
type Deterministic struct {
	Value float64
}

// CDF implements Distribution (step function at Value).
func (d Deterministic) CDF(x float64) float64 {
	if x >= d.Value {
		return 1
	}
	return 0
}

// PDF implements Distribution. The density is a Dirac atom, which cannot
// be represented pointwise; 0 is returned everywhere and consumers that
// need the atom must use CDF.
func (d Deterministic) PDF(x float64) float64 { return 0 }

// Mean implements Distribution.
func (d Deterministic) Mean() float64 { return d.Value }

// Sample implements Distribution.
func (d Deterministic) Sample(r *RNG) float64 { return d.Value }

// Uniform is the continuous uniform distribution on [A, B]. The paper
// uses uniformity of Poisson arrival instants over a cycle (PASTA) to
// place signal occurrences within the footprint period.
type Uniform struct {
	A, B float64
}

// CDF implements Distribution.
func (u Uniform) CDF(x float64) float64 {
	switch {
	case x <= u.A:
		return 0
	case x >= u.B:
		return 1
	default:
		return (x - u.A) / (u.B - u.A)
	}
}

// PDF implements Distribution.
func (u Uniform) PDF(x float64) float64 {
	if x < u.A || x > u.B {
		return 0
	}
	return 1 / (u.B - u.A)
}

// Mean implements Distribution.
func (u Uniform) Mean() float64 { return (u.A + u.B) / 2 }

// Sample implements Distribution.
func (u Uniform) Sample(r *RNG) float64 { return u.A + (u.B-u.A)*r.Float64() }

// Weibull is the Weibull(shape, scale) distribution. It is not used by
// the paper's model; it exists so the sensitivity experiments can relax
// the exponential signal-duration assumption (heavier or lighter tails)
// through the quadrature path of the analytic model.
type Weibull struct {
	Shape, Scale float64
}

// NewWeibull validates and constructs a Weibull distribution.
func NewWeibull(shape, scale float64) (Weibull, error) {
	if shape <= 0 || scale <= 0 {
		return Weibull{}, fmt.Errorf("stats: Weibull shape %g and scale %g must be positive", shape, scale)
	}
	return Weibull{Shape: shape, Scale: scale}, nil
}

// CDF implements Distribution.
func (w Weibull) CDF(x float64) float64 {
	if x <= 0 {
		return 0
	}
	return -math.Expm1(-math.Pow(x/w.Scale, w.Shape))
}

// PDF implements Distribution.
func (w Weibull) PDF(x float64) float64 {
	if x <= 0 {
		return 0
	}
	z := x / w.Scale
	return w.Shape / w.Scale * math.Pow(z, w.Shape-1) * math.Exp(-math.Pow(z, w.Shape))
}

// Mean implements Distribution.
func (w Weibull) Mean() float64 { return w.Scale * math.Gamma(1+1/w.Shape) }

// Sample implements Distribution.
func (w Weibull) Sample(r *RNG) float64 {
	return w.Scale * math.Pow(-math.Log(1-r.Float64()), 1/w.Shape)
}

// Compile-time interface compliance checks.
var (
	_ Distribution = Exponential{}
	_ Distribution = Erlang{}
	_ Distribution = Deterministic{}
	_ Distribution = Uniform{}
	_ Distribution = Weibull{}
)

// Survival returns 1 − d.CDF(x), the probability the variate exceeds x.
func Survival(d Distribution, x float64) float64 { return 1 - d.CDF(x) }
