package numeric

import (
	"fmt"
	"math"
	"testing"
	"testing/quick"
)

func TestIntegratePolynomial(t *testing.T) {
	tests := []struct {
		name string
		f    func(float64) float64
		a, b float64
		want float64
	}{
		{"constant", func(x float64) float64 { return 3 }, 0, 2, 6},
		{"linear", func(x float64) float64 { return x }, 0, 1, 0.5},
		{"cubic", func(x float64) float64 { return x * x * x }, 0, 2, 4},
		{"quartic", func(x float64) float64 { return x * x * x * x }, -1, 1, 0.4},
		{"reversed", func(x float64) float64 { return x }, 1, 0, -0.5},
		{"empty", func(x float64) float64 { return 42 }, 5, 5, 0},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			got, err := Integrate(tt.f, tt.a, tt.b, 1e-12)
			if err != nil {
				t.Fatalf("Integrate: %v", err)
			}
			if !ApproxEqual(got, tt.want, 1e-10) {
				t.Errorf("Integrate = %v, want %v", got, tt.want)
			}
		})
	}
}

func TestIntegrateTranscendental(t *testing.T) {
	tests := []struct {
		name string
		f    func(float64) float64
		a, b float64
		want float64
	}{
		{"sin over period", math.Sin, 0, 2 * math.Pi, 0},
		{"sin half period", math.Sin, 0, math.Pi, 2},
		{"exp", math.Exp, 0, 1, math.E - 1},
		{"gaussian-ish", func(x float64) float64 { return math.Exp(-x * x) }, -6, 6, math.Sqrt(math.Pi)},
		{"decaying exp", func(x float64) float64 { return 0.5 * math.Exp(-0.5*x) }, 0, 40, 1 - math.Exp(-20)},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			got, err := Integrate(tt.f, tt.a, tt.b, 1e-12)
			if err != nil {
				t.Fatalf("Integrate: %v", err)
			}
			if !ApproxEqual(got, tt.want, 1e-9) {
				t.Errorf("Integrate = %v, want %v", got, tt.want)
			}
		})
	}
}

func TestIntegrateStepDiscontinuity(t *testing.T) {
	// A jump discontinuity must not defeat the adaptive recursion (the
	// width floor accepts the vanishing straddling interval). Survival
	// function of a deterministic 2-minute duration over [0, 5]:
	// ∫ = 2 exactly.
	step := func(x float64) float64 {
		if x < 2 {
			return 1
		}
		return 0
	}
	got, err := Integrate(step, 0, 5, 1e-10)
	if err != nil {
		t.Fatalf("Integrate over a step: %v", err)
	}
	if !ApproxEqual(got, 2, 1e-8) {
		t.Errorf("step integral = %v, want 2", got)
	}
	// Step at an endpoint-aligned dyadic point is exact immediately.
	got, err = Integrate(step, 0, 4, 1e-10)
	if err != nil {
		t.Fatalf("dyadic step: %v", err)
	}
	if !ApproxEqual(got, 2, 1e-8) {
		t.Errorf("dyadic step integral = %v, want 2", got)
	}
}

func TestIntegrateRejectsBadTolerance(t *testing.T) {
	if _, err := Integrate(math.Sin, 0, 1, 0); err == nil {
		t.Fatal("expected error for zero tolerance")
	}
	if _, err := Integrate(math.Sin, 0, 1, -1); err == nil {
		t.Fatal("expected error for negative tolerance")
	}
}

func TestIntegrateToInfinity(t *testing.T) {
	// ∫_0^∞ λ e^{-λx} dx = 1 for any rate λ.
	for _, rate := range []float64{0.1, 0.5, 2, 30} {
		got, err := IntegrateToInfinity(func(x float64) float64 {
			return rate * math.Exp(-rate*x)
		}, 0, 1e-10)
		if err != nil {
			t.Fatalf("rate %v: %v", rate, err)
		}
		if !ApproxEqual(got, 1, 1e-7) {
			t.Errorf("rate %v: integral = %v, want 1", rate, got)
		}
	}
	// ∫_a^∞ e^{-x} dx = e^{-a}.
	got, err := IntegrateToInfinity(func(x float64) float64 { return math.Exp(-x) }, 2, 1e-10)
	if err != nil {
		t.Fatalf("IntegrateToInfinity: %v", err)
	}
	if !ApproxEqual(got, math.Exp(-2), 1e-8) {
		t.Errorf("tail integral = %v, want %v", got, math.Exp(-2))
	}
}

// Additivity is the defining property of the integral:
// ∫_a^c = ∫_a^b + ∫_b^c for any b between a and c.
func TestIntegrateAdditivityProperty(t *testing.T) {
	f := func(x float64) float64 { return math.Exp(-x/3) * (1 + math.Sin(x)) }
	prop := func(a, span1, span2 float64) bool {
		a = math.Mod(math.Abs(a), 10)
		b := a + math.Mod(math.Abs(span1), 5)
		c := b + math.Mod(math.Abs(span2), 5)
		whole := MustIntegrate(f, a, c)
		parts := MustIntegrate(f, a, b) + MustIntegrate(f, b, c)
		return ApproxEqual(whole, parts, 1e-8)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Linearity: ∫(αf + βg) = α∫f + β∫g.
func TestIntegrateLinearityProperty(t *testing.T) {
	f := math.Sin
	g := func(x float64) float64 { return x * x }
	prop := func(alpha, beta float64) bool {
		alpha = math.Mod(alpha, 100)
		beta = math.Mod(beta, 100)
		combined := MustIntegrate(func(x float64) float64 {
			return alpha*f(x) + beta*g(x)
		}, 0, 3)
		separate := alpha*MustIntegrate(f, 0, 3) + beta*MustIntegrate(g, 0, 3)
		return ApproxEqual(combined, separate, 1e-8)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestTrapezoid(t *testing.T) {
	// Exact for linear data.
	ys := []float64{0, 1, 2, 3, 4}
	if got := Trapezoid(ys, 1); got != 8 {
		t.Errorf("Trapezoid linear = %v, want 8", got)
	}
	if got := Trapezoid(nil, 1); got != 0 {
		t.Errorf("Trapezoid(nil) = %v, want 0", got)
	}
	if got := Trapezoid([]float64{7}, 1); got != 0 {
		t.Errorf("Trapezoid(single) = %v, want 0", got)
	}
	// Converges for smooth data.
	n := 10001
	h := math.Pi / float64(n-1)
	sin := make([]float64, n)
	for i := range sin {
		sin[i] = math.Sin(float64(i) * h)
	}
	if got := Trapezoid(sin, h); !ApproxEqual(got, 2, 1e-6) {
		t.Errorf("Trapezoid sin = %v, want 2", got)
	}
}

func BenchmarkIntegrateSmooth(b *testing.B) {
	f := func(x float64) float64 { return math.Exp(-0.5*x) * (1 - math.Exp(-30*(5-x))) }
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Integrate(f, 0, 5, 1e-10); err != nil {
			b.Fatal(err)
		}
	}
}

// MustIntegrate is Integrate with DefaultTol; it panics on failure. It is
// intended for integrands that are known smooth (the closed-form
// cross-checks in package qos).
func MustIntegrate(f func(float64) float64, a, b float64) float64 {
	v, err := Integrate(f, a, b, DefaultTol)
	if err != nil {
		panic(fmt.Sprintf("numeric: MustIntegrate(%g, %g): %v", a, b, err))
	}
	return v
}

// IntegrateToInfinity computes the improper integral of f over
// [a, +inf). It maps the tail onto a finite interval via t = a + x/(1-x)
// and applies adaptive Simpson quadrature. The integrand must decay at
// infinity (as all the survival-function integrands in this codebase do).
func IntegrateToInfinity(f func(float64) float64, a, tol float64) (float64, error) {
	g := func(x float64) float64 {
		if x >= 1 {
			return 0
		}
		d := 1 - x
		return f(a+x/d) / (d * d)
	}
	return Integrate(g, 0, 1, tol)
}

// Trapezoid computes the integral of samples ys taken at uniformly spaced
// points with step h using the composite trapezoid rule. It is used for
// time-averaging transient CTMC solutions, where the solution is already
// available only on a grid.
func Trapezoid(ys []float64, h float64) float64 {
	if len(ys) < 2 {
		return 0
	}
	sum := (ys[0] + ys[len(ys)-1]) / 2
	for _, y := range ys[1 : len(ys)-1] {
		sum += y
	}
	return sum * h
}
