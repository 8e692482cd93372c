package stats

import "math"

// WilsonCI returns the Wilson score confidence interval for a binomial
// proportion observed as pHat out of n trials, at critical value z
// (1.96 for 95%). Unlike the Wald interval of Proportion.CI95, the
// Wilson interval never collapses to zero width at pHat ∈ {0, 1} and
// stays inside [0, 1], which makes it the right tolerance for
// comparing Monte-Carlo estimates against a golden corpus: an exact
// empirical 0 still admits the true probability being slightly above 0.
//
// pHat is clamped into [0, 1]; n <= 0 returns the vacuous interval
// [0, 1].
func WilsonCI(pHat float64, n int, z float64) (lo, hi float64) {
	if n <= 0 || math.IsNaN(pHat) {
		return 0, 1
	}
	p := math.Min(math.Max(pHat, 0), 1)
	nf := float64(n)
	z2 := z * z
	denom := 1 + z2/nf
	center := (p + z2/(2*nf)) / denom
	hw := z / denom * math.Sqrt(p*(1-p)/nf+z2/(4*nf*nf))
	lo = math.Max(center-hw, 0)
	hi = math.Min(center+hw, 1)
	return lo, hi
}
