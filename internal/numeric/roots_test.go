package numeric

import (
	"fmt"
	"math"
	"testing"
	"testing/quick"
)

func TestBrentKnownRoots(t *testing.T) {
	tests := []struct {
		name string
		f    func(float64) float64
		a, b float64
		want float64
	}{
		{"linear", func(x float64) float64 { return 2*x - 4 }, 0, 10, 2},
		{"sqrt2", func(x float64) float64 { return x*x - 2 }, 0, 2, math.Sqrt2},
		{"cos", math.Cos, 0, 3, math.Pi / 2},
		{"cubic", func(x float64) float64 { return x*x*x - x - 2 }, 1, 2, 1.5213797068045676},
		{"root at left", func(x float64) float64 { return x - 1 }, 1, 5, 1},
		{"root at right", func(x float64) float64 { return x - 5 }, 1, 5, 5},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			got, err := Brent(tt.f, tt.a, tt.b, 1e-12)
			if err != nil {
				t.Fatalf("Brent: %v", err)
			}
			if !ApproxEqual(got, tt.want, 1e-9) {
				t.Errorf("Brent = %v, want %v", got, tt.want)
			}
		})
	}
}

func TestBrentRejectsNonBracketing(t *testing.T) {
	if _, err := Brent(func(x float64) float64 { return x*x + 1 }, -1, 1, 1e-9); err == nil {
		t.Fatal("expected error for non-bracketing interval")
	}
}

func TestBisect(t *testing.T) {
	got, err := Bisect(func(x float64) float64 { return x*x*x - 27 }, 0, 10, 1e-10)
	if err != nil {
		t.Fatalf("Bisect: %v", err)
	}
	if !ApproxEqual(got, 3, 1e-8) {
		t.Errorf("Bisect = %v, want 3", got)
	}
	// Discontinuous step: bisection still brackets the jump.
	step := func(x float64) float64 {
		if x < 1.25 {
			return -1
		}
		return 1
	}
	got, err = Bisect(step, 0, 2, 1e-10)
	if err != nil {
		t.Fatalf("Bisect step: %v", err)
	}
	if !ApproxEqual(got, 1.25, 1e-8) {
		t.Errorf("Bisect step = %v, want 1.25", got)
	}
	if _, err := Bisect(func(x float64) float64 { return 1 }, 0, 1, 1e-9); err == nil {
		t.Fatal("expected error for non-bracketing interval")
	}
}

// For any increasing continuous function, Brent recovers the preimage:
// Brent(f - y) == f^{-1}(y).
func TestBrentInversionProperty(t *testing.T) {
	f := func(x float64) float64 { return x + math.Exp(x/10) }
	prop := func(raw float64) bool {
		x := math.Mod(math.Abs(raw), 20)
		y := f(x)
		root, err := Brent(func(v float64) float64 { return f(v) - y }, -1, 25, 1e-13)
		if err != nil {
			return false
		}
		return ApproxEqual(root, x, 1e-8)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// Brent finds a root of f in the bracketing interval [a, b] using Brent's
// method (inverse quadratic interpolation with bisection fallback). f(a)
// and f(b) must have opposite signs.
func Brent(f func(float64) float64, a, b, tol float64) (float64, error) {
	fa, fb := f(a), f(b)
	if fa == 0 {
		return a, nil
	}
	if fb == 0 {
		return b, nil
	}
	if (fa > 0) == (fb > 0) {
		return 0, fmt.Errorf("numeric: Brent: f(%g)=%g and f(%g)=%g do not bracket a root", a, fa, b, fb)
	}
	if math.Abs(fa) < math.Abs(fb) {
		a, b, fa, fb = b, a, fb, fa
	}
	c, fc := a, fa
	var d float64
	mflag := true
	for i := 0; i < 200; i++ {
		if fb == 0 || math.Abs(b-a) < tol {
			return b, nil
		}
		var s float64
		if fa != fc && fb != fc {
			// Inverse quadratic interpolation.
			s = a*fb*fc/((fa-fb)*(fa-fc)) +
				b*fa*fc/((fb-fa)*(fb-fc)) +
				c*fa*fb/((fc-fa)*(fc-fb))
		} else {
			// Secant step.
			s = b - fb*(b-a)/(fb-fa)
		}
		lo, hi := (3*a+b)/4, b
		if lo > hi {
			lo, hi = hi, lo
		}
		bad := s < lo || s > hi ||
			(mflag && math.Abs(s-b) >= math.Abs(b-c)/2) ||
			(!mflag && math.Abs(s-b) >= math.Abs(c-d)/2) ||
			(mflag && math.Abs(b-c) < tol) ||
			(!mflag && math.Abs(c-d) < tol)
		if bad {
			s = (a + b) / 2
			mflag = true
		} else {
			mflag = false
		}
		fs := f(s)
		d, c, fc = c, b, fb
		if (fa > 0) != (fs > 0) {
			b, fb = s, fs
		} else {
			a, fa = s, fs
		}
		if math.Abs(fa) < math.Abs(fb) {
			a, b, fa, fb = b, a, fb, fa
		}
	}
	return b, ErrNoConvergence
}

// Bisect finds a root of f in [a, b] by bisection. It is slower than
// Brent but unconditionally robust; it is used where f may be
// discontinuous (e.g. inverting empirical CDFs).
func Bisect(f func(float64) float64, a, b, tol float64) (float64, error) {
	fa, fb := f(a), f(b)
	if fa == 0 {
		return a, nil
	}
	if fb == 0 {
		return b, nil
	}
	if (fa > 0) == (fb > 0) {
		return 0, fmt.Errorf("numeric: Bisect: interval [%g, %g] does not bracket a root", a, b)
	}
	for i := 0; i < 200 && math.Abs(b-a) > tol; i++ {
		m := (a + b) / 2
		fm := f(m)
		if fm == 0 {
			return m, nil
		}
		if (fa > 0) != (fm > 0) {
			b = m
		} else {
			a, fa = m, fm
		}
	}
	return (a + b) / 2, nil
}
