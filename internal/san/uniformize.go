package san

import (
	"fmt"
	"math"
)

// maxSteps bounds the DTMC steps of one uniformization series. A chain
// that absorbs stops long before it; one that never absorbs needs about
// ΛT steps, and past this count the series is refused, not cut short.
const maxSteps = 20_000_000

// Uniformize sums the uniformization series of a finite chain from the
// start distribution p0 over a horizon of mean = ΛT uniformized steps.
// step writes next = v·P, where P = I + Q/Λ is the uniformized DTMC, and
// transient returns the mass of v outside the absorbing states (those
// with exit rate 0). With vₙ = p0·Pⁿ and N ~ Poisson(ΛT):
//
//	p(T)             = Σₙ P(N = n) · vₙ       (average false)
//	(1/T)∫₀ᵀ p(t) dt = Σₙ P(N > n)/ΛT · vₙ    (average true)
//
// The series stops at the Fox–Glynn right point, or as soon as the
// transient mass of vₙ is below eps. Every later iterate then equals vₙ
// to within eps, so vₙ takes the whole remaining weight in closed form:
// 1 minus the weight already spent (never below 0, which rounding could
// reach), as the weights sum to 1, for the average because
// Σₙ P(N > n) = ΛT. The work is therefore bounded by the steps to
// absorption however long the horizon. It returns the sum and the
// number of DTMC steps taken.
func Uniformize(p0 []float64, mean, eps float64, average bool,
	step func(v, next []float64), transient func(v []float64) float64) ([]float64, int, error) {
	w := newPoisson(mean, eps, average)
	cur := append([]float64(nil), p0...)
	next := make([]float64, len(p0))
	sum := make([]float64, len(p0))
	var spent float64
	for n := 0; ; n++ {
		wn, ok := w.at(n)
		if !ok || transient(cur) < eps {
			addScaled(sum, math.Max(0, 1-spent), cur)
			return sum, n, nil
		}
		addScaled(sum, wn, cur)
		spent += wn
		if n == maxSteps {
			return nil, n, fmt.Errorf("san: uniformization at Poisson mean %g needs over %d steps", mean, maxSteps)
		}
		step(cur, next)
		cur, next = next, cur
	}
}

func addScaled(dst []float64, a float64, x []float64) {
	for i, xi := range x {
		dst[i] += a * xi
	}
}

// poisson holds the weights Uniformize gives its iterates, from the law
// of N ~ Poisson(mean) truncated as Fox and Glynn do ("Computing Poisson
// probabilities", CACM 31(4), 1988). The mass outside a window
// [left, right] is below eps. Inside it the probabilities are built
// outward from the mode, relative to it, and normalized by their sum, so
// none underflows and they sum to 1. Tails are suffix sums of them, so
// a deep tail keeps its relative precision instead of vanishing in
// 1 − cdf. The window is built on first use: a chain that absorbs long
// before the left point, as a plane does at a large mean, never pays for
// the window's O(√mean) size.
type poisson struct {
	mean, eps float64
	average   bool
	left      int
	w         []float64 // the weights at n = left, left+1, …, right
}

func newPoisson(mean, eps float64, average bool) *poisson {
	p := &poisson{mean: mean, eps: eps, average: average}
	if average {
		// The average weights are tails divided by the mean, which
		// scales a truncation error by 1/mean when the mean is small.
		p.eps *= math.Min(1, mean)
	}
	// Chernoff: P(N ≤ mean − x) ≤ exp(−x²/(2·mean)) = eps/2. In this form
	// an infinite mean puts the left point out of reach, not at NaN.
	if l := mean * (1 - math.Sqrt(2*math.Log(2/p.eps)/mean)); l > 0 {
		p.left = int(math.Min(l, maxSteps+1))
	}
	return p
}

// at returns the weight of iterate n, or false past the right point.
func (p *poisson) at(n int) (float64, bool) {
	if n < p.left {
		if p.average {
			return 1 / p.mean, true // P(N > n) = 1 to within eps/2
		}
		return 0, true
	}
	if p.w == nil {
		p.build()
	}
	if i := n - p.left; i < len(p.w) {
		return p.w[i], true
	}
	return 0, false
}

func (p *poisson) build() {
	m, left := p.mean, p.left
	mode := max(left, int(m))
	// r[i] is P(N = left+i) relative to the mode.
	r := make([]float64, mode-left+1, 2*(mode-left)+64)
	r[mode-left] = 1
	for n := mode; n > left; n-- {
		r[n-1-left] = r[n-left] * float64(n) / m
	}
	// Past the mode the ratio q = m/(n+1) of successive terms falls
	// below 1, so the mass beyond n is below r_n·q/(1−q) and the summed
	// tails beyond n below r_n/(1−q)².
	for n := mode; ; n++ {
		q := m / float64(n+1)
		if q < 1 && r[n-left]/((1-q)*(1-q)) <= p.eps/2 {
			break
		}
		r = append(r, r[n-left]*q)
	}
	var total float64
	for _, v := range r {
		total += v
	}
	p.w = r
	if !p.average {
		for i := range r {
			r[i] /= total
		}
		return
	}
	// P(N > n)/mean = Σ_{j≥n} P(N = j)/(j+1), since P(N = j+1)/mean is
	// P(N = j)/(j+1): a suffix sum that never divides by the mean.
	var tail float64
	for i := len(r) - 1; i >= 0; i-- {
		tail += r[i] / total / float64(left+i+1)
		r[i] = tail
	}
}
