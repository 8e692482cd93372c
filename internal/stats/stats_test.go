package stats

import (
	"fmt"
	"math"
	"sort"
	"testing"
	"testing/quick"
)

func approx(a, b, tol float64) bool {
	d := math.Abs(a - b)
	if d <= tol {
		return true
	}
	return d <= tol*math.Max(math.Abs(a), math.Abs(b))
}

func TestRNGDeterminism(t *testing.T) {
	a := NewRNG(42, 0)
	b := NewRNG(42, 0)
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same (seed, stream) produced different sequences")
		}
	}
}

func TestRNGStreamIndependence(t *testing.T) {
	a := NewRNG(42, 0)
	b := NewRNG(42, 1)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Errorf("streams 0 and 1 collided %d/100 times", same)
	}
}

func TestRNGFloat64Range(t *testing.T) {
	r := NewRNG(1, 1)
	for i := 0; i < 10000; i++ {
		v := r.Float64()
		if v < 0 || v >= 1 {
			t.Fatalf("Float64 = %v outside [0, 1)", v)
		}
	}
}

func TestRNGUniformMoments(t *testing.T) {
	r := NewRNG(7, 0)
	var s Summary
	for i := 0; i < 200000; i++ {
		s.Observe(r.Float64())
	}
	if !approx(s.Mean(), 0.5, 0.01) {
		t.Errorf("uniform mean = %v, want 0.5", s.Mean())
	}
	if !approx(s.Variance(), 1.0/12, 0.05) {
		t.Errorf("uniform variance = %v, want 1/12", s.Variance())
	}
}

func TestRNGExpMoments(t *testing.T) {
	r := NewRNG(7, 1)
	rate := 0.5
	var s Summary
	for i := 0; i < 200000; i++ {
		s.Observe(r.Exp(rate))
	}
	if !approx(s.Mean(), 2, 0.05) {
		t.Errorf("exp mean = %v, want 2", s.Mean())
	}
	if !approx(s.Variance(), 4, 0.1) {
		t.Errorf("exp variance = %v, want 4", s.Variance())
	}
}

func TestRNGNormMoments(t *testing.T) {
	r := NewRNG(9, 2)
	var s Summary
	for i := 0; i < 200000; i++ {
		s.Observe(r.Norm())
	}
	if math.Abs(s.Mean()) > 0.02 {
		t.Errorf("normal mean = %v, want ~0", s.Mean())
	}
	if !approx(s.Variance(), 1, 0.05) {
		t.Errorf("normal variance = %v, want 1", s.Variance())
	}
}

func TestRNGPanics(t *testing.T) {
	r := NewRNG(1, 0)
	for name, fn := range map[string]func(){
		"Intn(0)": func() { r.Intn(0) },
		"Exp(0)":  func() { r.Exp(0) },
		"Exp(-1)": func() { r.Exp(-1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s did not panic", name)
				}
			}()
			fn()
		}()
	}
}

func TestExponentialDistribution(t *testing.T) {
	e, err := NewExponential(0.5)
	if err != nil {
		t.Fatal(err)
	}
	if e.Mean() != 2 {
		t.Errorf("Mean = %v, want 2", e.Mean())
	}
	if e.CDF(0) != 0 || e.CDF(-1) != 0 {
		t.Error("CDF should be 0 at and below 0")
	}
	if !approx(e.CDF(2), 1-math.Exp(-1), 1e-12) {
		t.Errorf("CDF(2) = %v", e.CDF(2))
	}
	if !approx(e.PDF(2), 0.5*math.Exp(-1), 1e-12) {
		t.Errorf("PDF(2) = %v", e.PDF(2))
	}
	if e.PDF(-1) != 0 {
		t.Error("PDF should be 0 below 0")
	}
	for _, bad := range []float64{0, -1, math.NaN(), math.Inf(1)} {
		if _, err := NewExponential(bad); err == nil {
			t.Errorf("NewExponential(%v) should fail", bad)
		}
	}
}

func TestErlangDistribution(t *testing.T) {
	e, err := NewErlang(3, 1.5)
	if err != nil {
		t.Fatal(err)
	}
	if !approx(e.Mean(), 2, 1e-12) {
		t.Errorf("Mean = %v, want 2", e.Mean())
	}
	// Erlang(1, λ) == Exponential(λ).
	e1, _ := NewErlang(1, 0.7)
	exp1, _ := NewExponential(0.7)
	for _, x := range []float64{0.1, 1, 5} {
		if !approx(e1.CDF(x), exp1.CDF(x), 1e-12) {
			t.Errorf("Erlang(1).CDF(%v) = %v, want %v", x, e1.CDF(x), exp1.CDF(x))
		}
		if !approx(e1.PDF(x), exp1.PDF(x), 1e-10) {
			t.Errorf("Erlang(1).PDF(%v) = %v, want %v", x, e1.PDF(x), exp1.PDF(x))
		}
	}
	if _, err := NewErlang(0, 1); err == nil {
		t.Error("NewErlang(0, 1) should fail")
	}
	if _, err := NewErlang(2, 0); err == nil {
		t.Error("NewErlang(2, 0) should fail")
	}
	// Sampling mean converges to k/rate.
	r := NewRNG(5, 0)
	var s Summary
	for i := 0; i < 100000; i++ {
		s.Observe(e.Sample(r))
	}
	if !approx(s.Mean(), 2, 0.05) {
		t.Errorf("Erlang sample mean = %v, want 2", s.Mean())
	}
}

func TestDeterministicDistribution(t *testing.T) {
	d := Deterministic{Value: 30000}
	if d.Mean() != 30000 {
		t.Errorf("Mean = %v", d.Mean())
	}
	if d.CDF(29999.9) != 0 || d.CDF(30000) != 1 {
		t.Error("CDF step position wrong")
	}
	r := NewRNG(1, 0)
	if d.Sample(r) != 30000 {
		t.Error("Sample should be the constant")
	}
	if d.PDF(30000) != 0 {
		t.Error("PDF of the atom is represented as 0 by contract")
	}
}

func TestUniformDistribution(t *testing.T) {
	u, err := NewUniform(2, 6)
	if err != nil {
		t.Fatal(err)
	}
	if u.Mean() != 4 {
		t.Errorf("Mean = %v, want 4", u.Mean())
	}
	if u.CDF(1) != 0 || u.CDF(7) != 1 || u.CDF(4) != 0.5 {
		t.Error("uniform CDF wrong")
	}
	if u.PDF(4) != 0.25 || u.PDF(1) != 0 {
		t.Error("uniform PDF wrong")
	}
	if _, err := NewUniform(3, 3); err == nil {
		t.Error("NewUniform(3, 3) should fail")
	}
	r := NewRNG(3, 0)
	for i := 0; i < 1000; i++ {
		v := u.Sample(r)
		if v < 2 || v >= 6 {
			t.Fatalf("uniform sample %v outside [2, 6)", v)
		}
	}
}

func TestWeibullDistribution(t *testing.T) {
	// Weibull(1, scale) == Exponential(1/scale).
	w, err := NewWeibull(1, 2)
	if err != nil {
		t.Fatal(err)
	}
	e, _ := NewExponential(0.5)
	for _, x := range []float64{0.5, 1, 3} {
		if !approx(w.CDF(x), e.CDF(x), 1e-12) {
			t.Errorf("Weibull(1,2).CDF(%v) = %v, want %v", x, w.CDF(x), e.CDF(x))
		}
	}
	if !approx(w.Mean(), 2, 1e-12) {
		t.Errorf("Mean = %v, want 2", w.Mean())
	}
	if _, err := NewWeibull(0, 1); err == nil {
		t.Error("NewWeibull(0, 1) should fail")
	}
	r := NewRNG(4, 0)
	w2, _ := NewWeibull(2, 1)
	var s Summary
	for i := 0; i < 100000; i++ {
		s.Observe(w2.Sample(r))
	}
	if !approx(s.Mean(), w2.Mean(), 0.02) {
		t.Errorf("Weibull sample mean = %v, want %v", s.Mean(), w2.Mean())
	}
}

// CDFs are monotone nondecreasing and bounded by [0, 1]; Survival is the
// complement.
func TestCDFMonotoneProperty(t *testing.T) {
	dists := []Distribution{
		Exponential{Rate: 0.2},
		Erlang{K: 4, Rate: 2},
		Uniform{A: 1, B: 3},
		Weibull{Shape: 1.5, Scale: 2},
		Deterministic{Value: 5},
	}
	prop := func(rawA, rawB float64) bool {
		a := math.Mod(math.Abs(rawA), 20)
		b := math.Mod(math.Abs(rawB), 20)
		if a > b {
			a, b = b, a
		}
		for _, d := range dists {
			ca, cb := d.CDF(a), d.CDF(b)
			if ca < 0 || cb > 1 || ca > cb {
				return false
			}
			if !approx(Survival(d, a), 1-ca, 1e-12) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// Empirical CDF of samples converges to the analytic CDF
// (a one-point Kolmogorov–Smirnov-style check at several probes).
func TestSampleMatchesCDF(t *testing.T) {
	dists := map[string]Distribution{
		"exp":     Exponential{Rate: 0.5},
		"erlang":  Erlang{K: 3, Rate: 1},
		"uniform": Uniform{A: 0, B: 10},
		"weibull": Weibull{Shape: 2, Scale: 3},
	}
	r := NewRNG(99, 0)
	for name, d := range dists {
		const n = 60000
		samples := make([]float64, n)
		for i := range samples {
			samples[i] = d.Sample(r)
		}
		for _, x := range []float64{d.Mean() * 0.5, d.Mean(), d.Mean() * 2} {
			var count int
			for _, s := range samples {
				if s <= x {
					count++
				}
			}
			got := float64(count) / n
			want := d.CDF(x)
			if math.Abs(got-want) > 0.01 {
				t.Errorf("%s: empirical CDF(%v) = %v, analytic %v", name, x, got, want)
			}
		}
	}
}

func TestSummary(t *testing.T) {
	var s Summary
	if s.N() != 0 || s.Variance() != 0 || !math.IsInf(s.CI95(), 1) {
		t.Error("zero-value Summary wrong")
	}
	for _, x := range []float64{2, 4, 4, 4, 5, 5, 7, 9} {
		s.Observe(x)
	}
	if s.N() != 8 {
		t.Errorf("N = %d", s.N())
	}
	if !approx(s.Mean(), 5, 1e-12) {
		t.Errorf("Mean = %v, want 5", s.Mean())
	}
	if !approx(s.Variance(), 32.0/7, 1e-12) {
		t.Errorf("Variance = %v, want 32/7", s.Variance())
	}
	if s.Min() != 2 || s.Max() != 9 {
		t.Errorf("Min/Max = %v/%v", s.Min(), s.Max())
	}
	if s.CI95() <= 0 {
		t.Error("CI95 should be positive")
	}
	if len(s.String()) == 0 {
		t.Error("empty String()")
	}
}

func TestProportion(t *testing.T) {
	var p Proportion
	if p.Estimate() != 0 || !math.IsInf(p.CI95(), 1) {
		t.Error("zero-value Proportion wrong")
	}
	for i := 0; i < 100; i++ {
		p.Observe(i < 25)
	}
	if p.Estimate() != 0.25 {
		t.Errorf("Estimate = %v, want 0.25", p.Estimate())
	}
	want := 1.96 * math.Sqrt(0.25*0.75/100)
	if !approx(p.CI95(), want, 1e-12) {
		t.Errorf("CI95 = %v, want %v", p.CI95(), want)
	}
}

func TestQuantile(t *testing.T) {
	data := []float64{3, 1, 4, 1, 5, 9, 2, 6}
	med, err := Quantile(data, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if !approx(med, 3.5, 1e-12) {
		t.Errorf("median = %v, want 3.5", med)
	}
	lo, _ := Quantile(data, 0)
	hi, _ := Quantile(data, 1)
	if lo != 1 || hi != 9 {
		t.Errorf("extremes = %v, %v", lo, hi)
	}
	if _, err := Quantile(nil, 0.5); err == nil {
		t.Error("expected error for empty data")
	}
	if _, err := Quantile(data, 1.5); err == nil {
		t.Error("expected error for out-of-range level")
	}
	single, err := Quantile([]float64{7}, 0.3)
	if err != nil || single != 7 {
		t.Errorf("single-element quantile = %v, %v", single, err)
	}
	// Input must not be reordered.
	if data[0] != 3 || data[5] != 9 {
		t.Error("Quantile mutated its input")
	}
}

func BenchmarkRNGExp(b *testing.B) {
	r := NewRNG(1, 0)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = r.Exp(0.5)
	}
}

// NewUniform validates and constructs a uniform distribution.
func NewUniform(a, b float64) (Uniform, error) {
	if !(a < b) {
		return Uniform{}, fmt.Errorf("stats: uniform bounds [%g, %g] must satisfy a < b", a, b)
	}
	return Uniform{A: a, B: b}, nil
}

// Summary accumulates observations and reports mean, variance, and
// normal-approximation confidence intervals. The zero value is ready to
// use.
type Summary struct {
	n              int
	mean, m2       float64
	min, max       float64
	haveObservtion bool
}

// Observe adds one observation (Welford's online algorithm, numerically
// stable for long simulation runs).
func (s *Summary) Observe(x float64) {
	s.n++
	delta := x - s.mean
	s.mean += delta / float64(s.n)
	s.m2 += delta * (x - s.mean)
	if !s.haveObservtion || x < s.min {
		s.min = x
	}
	if !s.haveObservtion || x > s.max {
		s.max = x
	}
	s.haveObservtion = true
}

// N returns the number of observations.
func (s *Summary) N() int { return s.n }

// Mean returns the sample mean (0 with no observations).
func (s *Summary) Mean() float64 { return s.mean }

// Variance returns the unbiased sample variance (0 with fewer than two
// observations).
func (s *Summary) Variance() float64 {
	if s.n < 2 {
		return 0
	}
	return s.m2 / float64(s.n-1)
}

// StdDev returns the sample standard deviation.
func (s *Summary) StdDev() float64 { return math.Sqrt(s.Variance()) }

// Min returns the smallest observation (0 with no observations).
func (s *Summary) Min() float64 { return s.min }

// Max returns the largest observation (0 with no observations).
func (s *Summary) Max() float64 { return s.max }

// CI95 returns the half-width of the 95% normal-approximation confidence
// interval for the mean.
func (s *Summary) CI95() float64 {
	if s.n < 2 {
		return math.Inf(1)
	}
	return 1.96 * s.StdDev() / math.Sqrt(float64(s.n))
}

// String renders a compact summary line.
func (s *Summary) String() string {
	return fmt.Sprintf("n=%d mean=%.6g ±%.3g sd=%.4g min=%.4g max=%.4g",
		s.n, s.Mean(), s.CI95(), s.StdDev(), s.min, s.max)
}

// Proportion estimates a Bernoulli probability from successes out of
// trials, with a Wald 95% interval half-width. It is the estimator used
// when validating the analytic P(Y >= y) against simulated episodes.
type Proportion struct {
	Successes, Trials int
}

// Observe records one trial.
func (p *Proportion) Observe(success bool) {
	p.Trials++
	if success {
		p.Successes++
	}
}

// Estimate returns the sample proportion (0 with no trials).
func (p *Proportion) Estimate() float64 {
	if p.Trials == 0 {
		return 0
	}
	return float64(p.Successes) / float64(p.Trials)
}

// CI95 returns the Wald 95% half-width (infinite with no trials).
func (p *Proportion) CI95() float64 {
	if p.Trials == 0 {
		return math.Inf(1)
	}
	est := p.Estimate()
	return 1.96 * math.Sqrt(est*(1-est)/float64(p.Trials))
}

// Quantile returns the q-quantile (0 <= q <= 1) of the data using linear
// interpolation between order statistics. The input slice is not
// modified.
func Quantile(data []float64, q float64) (float64, error) {
	if len(data) == 0 {
		return 0, fmt.Errorf("stats: Quantile of empty data")
	}
	if q < 0 || q > 1 || math.IsNaN(q) {
		return 0, fmt.Errorf("stats: Quantile level %g outside [0, 1]", q)
	}
	sorted := make([]float64, len(data))
	copy(sorted, data)
	sort.Float64s(sorted)
	if len(sorted) == 1 {
		return sorted[0], nil
	}
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return sorted[lo], nil
	}
	frac := pos - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac, nil
}
