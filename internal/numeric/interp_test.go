package numeric

import (
	"fmt"
	"math"
	"sort"
	"testing"
	"testing/quick"
)

func TestNewLinearValidation(t *testing.T) {
	if _, err := NewLinear([]float64{1, 2}, []float64{1}); err == nil {
		t.Error("expected error for mismatched lengths")
	}
	if _, err := NewLinear([]float64{1}, []float64{1}); err == nil {
		t.Error("expected error for single knot")
	}
	if _, err := NewLinear([]float64{1, 1}, []float64{1, 2}); err == nil {
		t.Error("expected error for non-increasing xs")
	}
	if _, err := NewLinear([]float64{2, 1}, []float64{1, 2}); err == nil {
		t.Error("expected error for decreasing xs")
	}
}

func TestLinearAt(t *testing.T) {
	l, err := NewLinear([]float64{0, 1, 3}, []float64{0, 10, 30})
	if err != nil {
		t.Fatal(err)
	}
	tests := []struct{ x, want float64 }{
		{0, 0}, {0.5, 5}, {1, 10}, {2, 20}, {3, 30},
		{-5, 0},  // constant extrapolation left
		{99, 30}, // constant extrapolation right
	}
	for _, tt := range tests {
		if got := l.At(tt.x); !ApproxEqual(got, tt.want, 1e-12) {
			t.Errorf("At(%v) = %v, want %v", tt.x, got, tt.want)
		}
	}
}

func TestLinearIsIndependentOfCallerMutation(t *testing.T) {
	xs := []float64{0, 1}
	ys := []float64{0, 1}
	l, err := NewLinear(xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	xs[0], ys[1] = 99, -99
	if got := l.At(0.5); !ApproxEqual(got, 0.5, 1e-12) {
		t.Errorf("interpolant changed after caller mutation: At(0.5) = %v", got)
	}
}

// Interpolation of a linear function is exact everywhere inside the knots.
func TestLinearExactOnLinesProperty(t *testing.T) {
	prop := func(m, c, raw float64) bool {
		m = math.Mod(m, 50)
		c = math.Mod(c, 50)
		xs := []float64{0, 0.7, 1.9, 4.2, 8}
		ys := make([]float64, len(xs))
		for i, x := range xs {
			ys[i] = m*x + c
		}
		l, err := NewLinear(xs, ys)
		if err != nil {
			return false
		}
		x := math.Mod(math.Abs(raw), 8)
		return ApproxEqual(l.At(x), m*x+c, 1e-9)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestClamp(t *testing.T) {
	tests := []struct{ v, lo, hi, want float64 }{
		{5, 0, 10, 5},
		{-1, 0, 10, 0},
		{11, 0, 10, 10},
		{0, 0, 0, 0},
	}
	for _, tt := range tests {
		if got := Clamp(tt.v, tt.lo, tt.hi); got != tt.want {
			t.Errorf("Clamp(%v, %v, %v) = %v, want %v", tt.v, tt.lo, tt.hi, got, tt.want)
		}
	}
}

func TestApproxEqual(t *testing.T) {
	tests := []struct {
		a, b, tol float64
		want      bool
	}{
		{1, 1, 1e-9, true},
		{1, 1 + 1e-12, 1e-9, true},
		{1, 2, 1e-9, false},
		{1e12, 1e12 * (1 + 1e-12), 1e-9, true}, // relative comparison
		{0, 1e-12, 1e-9, true},
		{math.NaN(), 1, 1e-9, false},
		{1, math.NaN(), 1e-9, false},
		{math.NaN(), math.NaN(), 1e-9, false},
	}
	for _, tt := range tests {
		if got := ApproxEqual(tt.a, tt.b, tt.tol); got != tt.want {
			t.Errorf("ApproxEqual(%v, %v, %v) = %v, want %v", tt.a, tt.b, tt.tol, got, tt.want)
		}
	}
}

func TestLinspaceLogspace(t *testing.T) {
	lin := Linspace(0, 1, 5)
	wantLin := []float64{0, 0.25, 0.5, 0.75, 1}
	for i := range lin {
		if !ApproxEqual(lin[i], wantLin[i], 1e-12) {
			t.Errorf("Linspace[%d] = %v, want %v", i, lin[i], wantLin[i])
		}
	}
	if got := Linspace(3, 9, 1); len(got) != 1 || got[0] != 3 {
		t.Errorf("Linspace n=1 = %v", got)
	}

	log := Logspace(1e-5, 1e-4, 3)
	if log[0] != 1e-5 || log[2] != 1e-4 {
		t.Errorf("Logspace endpoints = %v", log)
	}
	if !ApproxEqual(log[1], math.Sqrt(1e-5*1e-4), 1e-9) {
		t.Errorf("Logspace midpoint = %v, want geometric mean", log[1])
	}
	if got := Logspace(2, 8, 1); len(got) != 1 || got[0] != 2 {
		t.Errorf("Logspace n=1 = %v", got)
	}
}

// Linear performs piecewise-linear interpolation of the points (xs, ys)
// at x. xs must be strictly increasing. Outside the range of xs the
// nearest endpoint value is returned (constant extrapolation), which is
// the safe behavior for probability curves.
type Linear struct {
	xs, ys []float64
}

// NewLinear builds a linear interpolant over the given knots. It copies
// both slices so that later mutation by the caller cannot corrupt the
// interpolant.
func NewLinear(xs, ys []float64) (*Linear, error) {
	if len(xs) != len(ys) {
		return nil, fmt.Errorf("numeric: interp: %d xs vs %d ys", len(xs), len(ys))
	}
	if len(xs) < 2 {
		return nil, fmt.Errorf("numeric: interp: need at least 2 knots, got %d", len(xs))
	}
	for i := 1; i < len(xs); i++ {
		if xs[i] <= xs[i-1] {
			return nil, fmt.Errorf("numeric: interp: xs not strictly increasing at index %d", i)
		}
	}
	l := &Linear{xs: make([]float64, len(xs)), ys: make([]float64, len(ys))}
	copy(l.xs, xs)
	copy(l.ys, ys)
	return l, nil
}

// At evaluates the interpolant at x.
func (l *Linear) At(x float64) float64 {
	n := len(l.xs)
	if x <= l.xs[0] {
		return l.ys[0]
	}
	if x >= l.xs[n-1] {
		return l.ys[n-1]
	}
	i := sort.SearchFloat64s(l.xs, x)
	// xs[i-1] < x <= xs[i]
	x0, x1 := l.xs[i-1], l.xs[i]
	y0, y1 := l.ys[i-1], l.ys[i]
	return y0 + (y1-y0)*(x-x0)/(x1-x0)
}

// Clamp restricts v to [lo, hi].
func Clamp(v, lo, hi float64) float64 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

// Logspace returns n points logarithmically spaced between a and b
// inclusive. Both endpoints must be positive. It is used for
// failure-rate sweeps (λ axes in the paper's figures are linear, but the
// harness supports both spacings).
func Logspace(a, b float64, n int) []float64 {
	if n == 1 {
		return []float64{a}
	}
	la, lb := math.Log(a), math.Log(b)
	out := make([]float64, n)
	for i := range out {
		f := float64(i) / float64(n-1)
		out[i] = math.Exp(la + f*(lb-la))
	}
	// Pin endpoints exactly to avoid round-off surprises in sweep labels.
	out[0], out[n-1] = a, b
	return out
}
