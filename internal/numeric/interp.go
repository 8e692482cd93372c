package numeric

import (
	"math"
)

// ApproxEqual reports whether a and b agree to within tol, absolutely or
// relatively (whichever is looser). NaNs never compare equal.
func ApproxEqual(a, b, tol float64) bool {
	if math.IsNaN(a) || math.IsNaN(b) {
		return false
	}
	diff := math.Abs(a - b)
	if diff <= tol {
		return true
	}
	scale := math.Max(math.Abs(a), math.Abs(b))
	return diff <= tol*scale
}

// Linspace returns n points uniformly spaced between a and b inclusive.
func Linspace(a, b float64, n int) []float64 {
	if n == 1 {
		return []float64{a}
	}
	out := make([]float64, n)
	for i := range out {
		f := float64(i) / float64(n-1)
		out[i] = a + f*(b-a)
	}
	out[n-1] = b
	return out
}
