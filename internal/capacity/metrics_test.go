package capacity

import (
	"math"
	"testing"
)

func massOf(m map[int]float64) float64 {
	var s float64
	for _, v := range m {
		s += v
	}
	return s
}

func TestMeanTimeToThresholdClosedForm(t *testing.T) {
	// The degradation chain is hypoexponential: 3 stages at 14λ (two
	// spares plus the first capacity loss), then 13λ, 12λ, 11λ down to
	// η = 10.
	lambda := 1e-4
	p := ReferenceParams(10, lambda, 30000)
	got, err := p.MeanTimeToThreshold()
	if err != nil {
		t.Fatal(err)
	}
	want := 3/(14*lambda) + 1/(13*lambda) + 1/(12*lambda) + 1/(11*lambda)
	if !approx(got, want, 1e-9) {
		t.Errorf("MTTA = %v, want %v", got, want)
	}
}

func TestMeanTimeToThresholdScalesInverselyWithLambda(t *testing.T) {
	a, err := ReferenceParams(10, 1e-5, 30000).MeanTimeToThreshold()
	if err != nil {
		t.Fatal(err)
	}
	b, err := ReferenceParams(10, 1e-4, 30000).MeanTimeToThreshold()
	if err != nil {
		t.Fatal(err)
	}
	if !approx(a/b, 10, 1e-9) {
		t.Errorf("MTTA ratio = %v, want 10 (linear in 1/λ)", a/b)
	}
}

func TestMeanTimeToThresholdExplainsFigure7(t *testing.T) {
	// The high-λ regime of Figure 7: when the expected time to reach the
	// threshold is well below φ, the threshold state dominates.
	p := ReferenceParams(10, 1e-4, 30000)
	mtta, err := p.MeanTimeToThreshold()
	if err != nil {
		t.Fatal(err)
	}
	dwell, err := p.ThresholdDwellFraction()
	if err != nil {
		t.Fatal(err)
	}
	approxDwell := 1 - mtta/p.PhiHours
	if math.Abs(dwell-approxDwell) > 0.05 {
		t.Errorf("dwell %v vs (1 - MTTA/φ) = %v: renewal picture broken", dwell, approxDwell)
	}
}

func TestMeanTimeToThresholdDegenerate(t *testing.T) {
	p := ReferenceParams(14, 1e-4, 30000)
	p.Spares = 0
	got, err := p.MeanTimeToThreshold()
	if err != nil {
		t.Fatal(err)
	}
	if got != 0 {
		t.Errorf("η = N with no spares: MTTA = %v, want 0", got)
	}
	bad := Params{}
	if _, err := bad.MeanTimeToThreshold(); err == nil {
		t.Error("invalid params accepted")
	}
}

func TestExpectedCapacityMonotone(t *testing.T) {
	prev := math.Inf(1)
	for _, lambda := range []float64{1e-5, 3e-5, 1e-4} {
		m, err := ReferenceParams(10, lambda, 30000).ExpectedCapacity()
		if err != nil {
			t.Fatal(err)
		}
		if m < 10 || m > 14 {
			t.Errorf("E[K] = %v outside [10, 14]", m)
		}
		if m > prev {
			t.Errorf("E[K] should fall with λ: %v after %v", m, prev)
		}
		prev = m
	}
}

func TestConstellationDistribution(t *testing.T) {
	p := ReferenceParams(12, 5e-5, 30000)
	dist, err := ConstellationDistribution(p, 7)
	if err != nil {
		t.Fatal(err)
	}
	if !approx(massOf(dist), 1, 1e-9) {
		t.Errorf("constellation mass = %v", massOf(dist))
	}
	// Support bounds: 7 planes × [12, 14].
	for total, prob := range dist {
		if total < 84 || total > 98 {
			t.Errorf("impossible total %d with probability %v", total, prob)
		}
	}
	// Mean additivity.
	plane, err := p.Analytic()
	if err != nil {
		t.Fatal(err)
	}
	var mean float64
	for total, prob := range dist {
		mean += float64(total) * prob
	}
	if !approx(mean, 7*plane.Mean(), 1e-9) {
		t.Errorf("constellation mean = %v, want %v", mean, 7*plane.Mean())
	}
	if _, err := ConstellationDistribution(p, 0); err == nil {
		t.Error("zero planes accepted")
	}
}

// Map iteration order is randomized per range loop, so an unordered
// accumulation would differ in the last bits from call to call.
func TestConstellationAtLeastDeterministic(t *testing.T) {
	p := ReferenceParams(10, 5e-5, 30000)
	want, err := ConstellationAtLeast(p, 7, 90)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		got, err := ConstellationAtLeast(p, 7, 90)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("call %d: P(total >= 90) = %v, first call gave %v", i, got, want)
		}
	}
}

func TestConstellationAtLeast(t *testing.T) {
	p := ReferenceParams(12, 5e-5, 30000)
	all, err := ConstellationAtLeast(p, 7, 84)
	if err != nil {
		t.Fatal(err)
	}
	if !approx(all, 1, 1e-9) {
		t.Errorf("P(total >= 7η) = %v, want 1", all)
	}
	none, err := ConstellationAtLeast(p, 7, 99)
	if err != nil {
		t.Fatal(err)
	}
	if none != 0 {
		t.Errorf("P(total >= 99) = %v, want 0", none)
	}
	mid, err := ConstellationAtLeast(p, 7, 95)
	if err != nil {
		t.Fatal(err)
	}
	if mid <= 0 || mid >= 1 {
		t.Errorf("P(total >= 95) = %v, want in (0, 1)", mid)
	}
	// Monotone in m.
	lower, err := ConstellationAtLeast(p, 7, 90)
	if err != nil {
		t.Fatal(err)
	}
	if lower < mid {
		t.Errorf("survival not monotone: P(>=90)=%v < P(>=95)=%v", lower, mid)
	}
}

func TestSurvivalFunction(t *testing.T) {
	d, err := NewDistribution(10, 14, map[int]float64{14: 0.5, 12: 0.3, 10: 0.2})
	if err != nil {
		t.Fatal(err)
	}
	sf := d.SurvivalFunction()
	if !approx(sf[10], 1, 1e-12) {
		t.Errorf("P(K>=10) = %v, want 1", sf[10])
	}
	if !approx(sf[12], 0.8, 1e-12) {
		t.Errorf("P(K>=12) = %v, want 0.8", sf[12])
	}
	if !approx(sf[14], 0.5, 1e-12) {
		t.Errorf("P(K>=14) = %v, want 0.5", sf[14])
	}
	if !approx(sf[13], 0.5, 1e-12) {
		t.Errorf("P(K>=13) = %v, want 0.5", sf[13])
	}
}

func BenchmarkConstellationDistribution(b *testing.B) {
	p := ReferenceParams(10, 5e-5, 30000)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := ConstellationDistribution(p, 7); err != nil {
			b.Fatal(err)
		}
	}
}

// ThresholdDwellFraction returns the long-run fraction of time the
// plane spends at the threshold capacity η — P(K = η) — directly from
// the renewal structure: the cycle has length φ of which the tail
// beyond the (capped) first-passage time is spent at η.
func (p Params) ThresholdDwellFraction() (float64, error) {
	dist, err := p.Analytic()
	if err != nil {
		return 0, err
	}
	return dist.P(p.Eta), nil
}

// ExpectedCapacity returns E[K], the mean number of active satellites
// in the plane under the deployment policies.
func (p Params) ExpectedCapacity() (float64, error) {
	dist, err := p.Analytic()
	if err != nil {
		return 0, err
	}
	return dist.Mean(), nil
}

// SurvivalFunction returns P(K >= k) for each capacity in the plane's
// support, descending from N — the per-plane availability curve.
func (d *Distribution) SurvivalFunction() map[int]float64 {
	out := make(map[int]float64, d.N-d.Eta+1)
	var acc float64
	for k := d.N; k >= d.Eta; k-- {
		acc += d.P(k)
		v := acc
		if v > 1 {
			v = 1
		}
		out[k] = v
	}
	return out
}
