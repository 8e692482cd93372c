package qos

import (
	"math"
	"testing"
	"testing/quick"

	"satqos/internal/capacity"
)

func TestNewModelValidation(t *testing.T) {
	g := ReferenceGeometry()
	if _, err := NewModel(g, 5, 0.5, 30); err != nil {
		t.Fatalf("reference model rejected: %v", err)
	}
	bad := []struct{ tau, mu, nu float64 }{
		{0, 0.5, 30}, {-5, 0.5, 30}, {math.NaN(), 0.5, 30}, {math.Inf(1), 0.5, 30},
		{5, 0, 30}, {5, -1, 30}, {5, math.NaN(), 30},
		{5, 0.5, 0}, {5, 0.5, -1}, {5, 0.5, math.NaN()},
	}
	for _, b := range bad {
		if _, err := NewModel(g, b.tau, b.mu, b.nu); err == nil {
			t.Errorf("NewModel(τ=%v, µ=%v, ν=%v) accepted", b.tau, b.mu, b.nu)
		}
	}
	if _, err := NewModel(Geometry{}, 5, 0.5, 30); err == nil {
		t.Error("NewModel with invalid geometry accepted")
	}
}

// §4.3 spot check: with τ = 5, µ = 0.5, ν = 30, the paper reports
// P(Y=3 | k=12) = 0.44 under OAQ and 0.20 under BAQ.
func TestSection43SpotValues(t *testing.T) {
	m := ReferenceModel()
	g3, err := m.G3(12)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(g3-0.44) > 0.005 {
		t.Errorf("OAQ P(Y=3|12) = %v, paper reports 0.44", g3)
	}
	g3b, err := m.G3BAQ(12)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(g3b-0.20) > 0.005 {
		t.Errorf("BAQ P(Y=3|12) = %v, paper reports 0.20", g3b)
	}
}

func TestG3UnderlappingIsZero(t *testing.T) {
	m := ReferenceModel()
	for _, k := range []int{9, 10} {
		g3, err := m.G3(k)
		if err != nil {
			t.Fatal(err)
		}
		if g3 != 0 {
			t.Errorf("G3(%d) = %v, want 0 for underlapping capacity", k, g3)
		}
		g3b, err := m.G3BAQ(k)
		if err != nil {
			t.Fatal(err)
		}
		if g3b != 0 {
			t.Errorf("G3BAQ(%d) = %v, want 0", k, g3b)
		}
	}
}

func TestG2OverlappingIsZero(t *testing.T) {
	m := ReferenceModel()
	for k := 11; k <= 14; k++ {
		g2, err := m.G2(k)
		if err != nil {
			t.Fatal(err)
		}
		if g2 != 0 {
			t.Errorf("G2(%d) = %v, want 0 for overlapping capacity", k, g2)
		}
		g0, err := m.G0(k)
		if err != nil {
			t.Fatal(err)
		}
		if g0 != 0 {
			t.Errorf("G0(%d) = %v, want 0 for overlapping capacity", k, g0)
		}
	}
}

func TestG2SequentialDualPositiveWhenDeadlineAllows(t *testing.T) {
	m := ReferenceModel()
	// k = 10: L2 = 0 < τ, so sequential dual coverage is reachable.
	g2, err := m.G2(10)
	if err != nil {
		t.Fatal(err)
	}
	if g2 <= 0 || g2 >= 1 {
		t.Errorf("G2(10) = %v, want in (0, 1)", g2)
	}
	// k = 9: L2 = 1 < τ = 5, also reachable but smaller (longer wait,
	// bigger gap).
	g29, err := m.G2(9)
	if err != nil {
		t.Fatal(err)
	}
	if g29 <= 0 || g29 >= g2 {
		t.Errorf("G2(9) = %v, want in (0, G2(10)=%v)", g29, g2)
	}
	// With τ below L2 the window closes entirely.
	short, err := NewModel(m.Geom, 0.5, m.Mu, m.Nu)
	if err != nil {
		t.Fatal(err)
	}
	g2s, err := short.G2(9)
	if err != nil {
		t.Fatal(err)
	}
	if g2s != 0 {
		t.Errorf("G2(9) at τ=0.5 = %v, want 0 (τ <= L2)", g2s)
	}
}

func TestG2GapWindowActivatesForLongDeadlines(t *testing.T) {
	// τ > L1 opens Theorem 2's second window (signal detected by
	// satellite i+1, refined by satellite i+2).
	m := ReferenceModel()
	long, err := NewModel(m.Geom, 12, m.Mu, m.Nu) // τ = 12 > L1[9] = 10
	if err != nil {
		t.Fatal(err)
	}
	g2Long, err := long.G2(9)
	if err != nil {
		t.Fatal(err)
	}
	mid, err := NewModel(m.Geom, 9.9, m.Mu, m.Nu) // just below L1[9]
	if err != nil {
		t.Fatal(err)
	}
	g2Mid, err := mid.G2(9)
	if err != nil {
		t.Fatal(err)
	}
	if g2Long <= g2Mid {
		t.Errorf("gap window should add mass: τ=12 gives %v <= τ=9.9 gives %v", g2Long, g2Mid)
	}
}

func TestG0MissingTarget(t *testing.T) {
	m := ReferenceModel()
	// k = 10 has L2 = 0: no gap, no missed targets.
	g0, err := m.G0(10)
	if err != nil {
		t.Fatal(err)
	}
	if g0 != 0 {
		t.Errorf("G0(10) = %v, want 0 (zero-width gap)", g0)
	}
	// k = 9 has a 1-minute gap; with mean signal duration 2 min some
	// signals die unseen.
	g09, err := m.G0(9)
	if err != nil {
		t.Fatal(err)
	}
	// (L2 − (1 − e^{−µL2})/µ)/L1 with L1=10, L2=1, µ=0.5.
	want := (1 - (1-math.Exp(-0.5))/0.5) / 10
	if !approx(g09, want, 1e-12) {
		t.Errorf("G0(9) = %v, want %v", g09, want)
	}
	// Longer signals escape less.
	longSignal, _ := NewModel(m.Geom, 5, 0.05, 30)
	g0Long, err := longSignal.G0(9)
	if err != nil {
		t.Fatal(err)
	}
	if g0Long >= g09 {
		t.Errorf("longer signals should be missed less: %v >= %v", g0Long, g09)
	}
}

func TestConditionalPMFSumsToOne(t *testing.T) {
	m := ReferenceModel()
	for _, s := range []Scheme{SchemeBAQ, SchemeOAQ} {
		for k := 9; k <= 14; k++ {
			pmf, err := m.ConditionalPMF(s, k)
			if err != nil {
				t.Fatalf("%v k=%d: %v", s, k, err)
			}
			if !approx(pmf.Total(), 1, 1e-9) {
				t.Errorf("%v k=%d: total mass %v", s, k, pmf.Total())
			}
			for l, v := range pmf {
				if v < 0 || v > 1 {
					t.Errorf("%v k=%d level %d: probability %v outside [0, 1]", s, k, l, v)
				}
			}
		}
	}
	if _, err := m.ConditionalPMF(Scheme(99), 12); err == nil {
		t.Error("unknown scheme accepted")
	}
}

// Table 1 structure: level 2 only under I[k]=0 and only for OAQ; level 3
// only under I[k]=1; level 0 only under I[k]=0.
func TestTable1Structure(t *testing.T) {
	m := ReferenceModel()
	for k := 9; k <= 14; k++ {
		ov, err := m.Geom.Overlapping(k)
		if err != nil {
			t.Fatal(err)
		}
		oaq, err := m.ConditionalPMF(SchemeOAQ, k)
		if err != nil {
			t.Fatal(err)
		}
		baq, err := m.ConditionalPMF(SchemeBAQ, k)
		if err != nil {
			t.Fatal(err)
		}
		if ov {
			if oaq[LevelSequentialDual] != 0 || baq[LevelSequentialDual] != 0 {
				t.Errorf("k=%d overlap: sequential-dual mass must be 0", k)
			}
			if oaq[LevelMiss] != 0 || baq[LevelMiss] != 0 {
				t.Errorf("k=%d overlap: miss mass must be 0", k)
			}
		} else {
			if oaq[LevelSimultaneousDual] != 0 || baq[LevelSimultaneousDual] != 0 {
				t.Errorf("k=%d underlap: simultaneous-dual mass must be 0", k)
			}
			if baq[LevelSequentialDual] != 0 {
				t.Errorf("k=%d underlap: BAQ cannot reach sequential dual", k)
			}
		}
	}
}

// OAQ stochastically dominates BAQ at every capacity: P(Y >= y | k) is
// at least as large for every level y.
func TestOAQDominatesBAQProperty(t *testing.T) {
	g := ReferenceGeometry()
	prop := func(rawTau, rawMu, rawNu float64, rawK uint8) bool {
		tau := 0.5 + math.Mod(math.Abs(rawTau), 12)
		mu := 0.05 + math.Mod(math.Abs(rawMu), 2)
		nu := 0.5 + math.Mod(math.Abs(rawNu), 50)
		k := 9 + int(rawK%6) // 9..14
		m, err := NewModel(g, tau, mu, nu)
		if err != nil {
			return false
		}
		oaq, err := m.ConditionalPMF(SchemeOAQ, k)
		if err != nil {
			return false
		}
		baq, err := m.ConditionalPMF(SchemeBAQ, k)
		if err != nil {
			return false
		}
		for y := LevelMiss; y <= LevelSimultaneousDual; y++ {
			if oaq.CCDF(y) < baq.CCDF(y)-1e-12 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 400}); err != nil {
		t.Error(err)
	}
}

// G3 grows as signals last longer (µ shrinks) and as the deadline grows;
// BAQ's G3 is insensitive to µ (§4.3, Figure 8 discussion).
func TestOpportunitySensitivity(t *testing.T) {
	g := ReferenceGeometry()
	var prev float64
	for i, mu := range []float64{2, 1, 0.5, 0.2, 0.1} {
		m, err := NewModel(g, 5, mu, 30)
		if err != nil {
			t.Fatal(err)
		}
		g3, err := m.G3(12)
		if err != nil {
			t.Fatal(err)
		}
		if i > 0 && g3 <= prev {
			t.Errorf("OAQ G3 should grow as µ falls: µ=%v gives %v <= %v", mu, g3, prev)
		}
		prev = g3
	}
	b1, _ := NewModel(g, 5, 0.5, 30)
	b2, _ := NewModel(g, 5, 0.2, 30)
	v1, err := b1.G3BAQ(12)
	if err != nil {
		t.Fatal(err)
	}
	v2, err := b2.G3BAQ(12)
	if err != nil {
		t.Fatal(err)
	}
	if v1 != v2 {
		t.Errorf("BAQ G3 must not depend on µ: %v vs %v", v1, v2)
	}
	// τ sensitivity.
	prev = 0
	for i, tau := range []float64{1, 2, 3, 5, 8} {
		m, _ := NewModel(g, tau, 0.5, 30)
		g3, err := m.G3(12)
		if err != nil {
			t.Fatal(err)
		}
		if i > 0 && g3 <= prev {
			t.Errorf("OAQ G3 should grow with τ: τ=%v gives %v <= %v", tau, g3, prev)
		}
		prev = g3
	}
}

func TestMuEqualsNuLimit(t *testing.T) {
	// The ν = µ branch of the window integral must agree with nearby
	// ν ≠ µ values.
	g := ReferenceGeometry()
	same, err := NewModel(g, 5, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	near, err := NewModel(g, 5, 2, 2+1e-9)
	if err != nil {
		t.Fatal(err)
	}
	g3same, err := same.G3(12)
	if err != nil {
		t.Fatal(err)
	}
	g3near, err := near.G3(12)
	if err != nil {
		t.Fatal(err)
	}
	if !approx(g3same, g3near, 1e-6) {
		t.Errorf("ν=µ limit discontinuous: %v vs %v", g3same, g3near)
	}
}

// TestWindowIntegralExtremeRatesRegression pins a fuzzer-found overflow:
// for fast computation (large ν) and a long deadline, the factored form
// of the window integral multiplied an underflowed e^{−ντ} by an
// overflowed e^{(ν−µ)b}, yielding NaN probabilities. The stabilized
// closed form must stay finite, well-formed, and agree with the
// quadrature path.
func TestWindowIntegralExtremeRatesRegression(t *testing.T) {
	geom, err := NewGeometry(58, 14)
	if err != nil {
		t.Fatal(err)
	}
	m, err := NewModel(geom, 30, 0.5, 77)
	if err != nil {
		t.Fatal(err)
	}
	pmf, err := m.ConditionalPMF(SchemeOAQ, 4)
	if err != nil {
		t.Fatal(err)
	}
	for l, v := range pmf {
		if math.IsNaN(v) || v < 0 || v > 1 {
			t.Fatalf("level %d probability %v out of range", l, v)
		}
	}
	if !approx(pmf.Total(), 1, 1e-9) {
		t.Fatalf("mass %v, want 1", pmf.Total())
	}
	general, err := NewGeneralModel(geom, 30, mustExp(t, 0.5), mustExp(t, 77))
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []struct {
		name string
		cf   func(int) (float64, error)
		gq   func(int) (float64, error)
	}{
		{"G2", m.G2, general.G2},
		{"G0", m.G0, general.G0},
	} {
		a, err := p.cf(4)
		if err != nil {
			t.Fatal(err)
		}
		b, err := p.gq(4)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(a-b) > 1e-8 {
			t.Errorf("%s closed %v vs quadrature %v", p.name, a, b)
		}
	}
}

func TestComposeEq3(t *testing.T) {
	m := ReferenceModel()
	dist, err := capacity.NewDistribution(10, 14, map[int]float64{
		14: 0.5, 12: 0.3, 10: 0.2,
	})
	if err != nil {
		t.Fatal(err)
	}
	pmf, err := m.Compose(SchemeOAQ, dist)
	if err != nil {
		t.Fatal(err)
	}
	if !approx(pmf.Total(), 1, 1e-9) {
		t.Errorf("composed mass = %v", pmf.Total())
	}
	// Hand-composed check for level 3.
	g314, _ := m.G3(14)
	g312, _ := m.G3(12)
	want := 0.5*g314 + 0.3*g312 // G3(10) = 0
	if !approx(pmf[LevelSimultaneousDual], want, 1e-12) {
		t.Errorf("composed P(Y=3) = %v, want %v", pmf[LevelSimultaneousDual], want)
	}
	// Measure wraps CCDF.
	v, err := m.Measure(SchemeOAQ, dist, LevelSequentialDual)
	if err != nil {
		t.Fatal(err)
	}
	if !approx(v, pmf[LevelSequentialDual]+pmf[LevelSimultaneousDual], 1e-12) {
		t.Errorf("Measure(Y>=2) = %v", v)
	}
	if _, err := m.Measure(SchemeOAQ, dist, Level(9)); err == nil {
		t.Error("invalid level accepted")
	}
	if _, err := m.Compose(SchemeOAQ, nil); err == nil {
		t.Error("nil distribution accepted")
	}
}

// Figure 9 endpoint checks (η = 10, τ = 5, µ = 0.2, ν = 30,
// φ = 30000 h): the paper reports P(Y>=2) ≈ 0.75 (OAQ) vs 0.33 (BAQ) at
// λ = 1e-5, and ≈ 0.41 vs 0.04 at λ = 1e-4; P(Y>=1) = 1 for both.
func TestFigure9Endpoints(t *testing.T) {
	g := ReferenceGeometry()
	m, err := NewModel(g, 5, 0.2, 30)
	if err != nil {
		t.Fatal(err)
	}
	check := func(lambda, wantOAQ, wantBAQ, tol float64) {
		t.Helper()
		dist, err := capacity.ReferenceParams(10, lambda, 30000).Analytic()
		if err != nil {
			t.Fatal(err)
		}
		oaq, err := m.Measure(SchemeOAQ, dist, LevelSequentialDual)
		if err != nil {
			t.Fatal(err)
		}
		baq, err := m.Measure(SchemeBAQ, dist, LevelSequentialDual)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(oaq-wantOAQ) > tol {
			t.Errorf("λ=%v: OAQ P(Y>=2) = %v, paper ≈ %v", lambda, oaq, wantOAQ)
		}
		if math.Abs(baq-wantBAQ) > tol {
			t.Errorf("λ=%v: BAQ P(Y>=2) = %v, paper ≈ %v", lambda, baq, wantBAQ)
		}
		// P(Y >= 1) = 1 for both over this λ domain (k never drops below
		// 10, and the k = 10 gap has zero width).
		for _, s := range []Scheme{SchemeOAQ, SchemeBAQ} {
			v, err := m.Measure(s, dist, LevelSingle)
			if err != nil {
				t.Fatal(err)
			}
			if !approx(v, 1, 1e-9) {
				t.Errorf("λ=%v %v: P(Y>=1) = %v, want 1", lambda, s, v)
			}
		}
	}
	check(1e-5, 0.75, 0.33, 0.04)
	check(1e-4, 0.41, 0.04, 0.04)
}

func TestExpectedLevelAndGain(t *testing.T) {
	m := ReferenceModel()
	dist, err := capacity.NewDistribution(10, 14, map[int]float64{
		14: 0.5, 12: 0.3, 10: 0.2,
	})
	if err != nil {
		t.Fatal(err)
	}
	oaqMean, err := m.ExpectedLevel(SchemeOAQ, dist)
	if err != nil {
		t.Fatal(err)
	}
	baqMean, err := m.ExpectedLevel(SchemeBAQ, dist)
	if err != nil {
		t.Fatal(err)
	}
	if oaqMean <= baqMean {
		t.Errorf("E[Y]: OAQ %v <= BAQ %v", oaqMean, baqMean)
	}
	if oaqMean < 1 || oaqMean > 3 {
		t.Errorf("E[Y] = %v outside the spectrum", oaqMean)
	}
	gain, err := m.Gain(dist)
	if err != nil {
		t.Fatal(err)
	}
	if !approx(gain, oaqMean-baqMean, 1e-12) {
		t.Errorf("Gain = %v, want %v", gain, oaqMean-baqMean)
	}
	// Hand check against the composed PMFs.
	pmf, err := m.Compose(SchemeOAQ, dist)
	if err != nil {
		t.Fatal(err)
	}
	if !approx(oaqMean, pmf.Mean(), 1e-12) {
		t.Errorf("ExpectedLevel %v != composed mean %v", oaqMean, pmf.Mean())
	}
	if _, err := m.ExpectedLevel(SchemeOAQ, nil); err == nil {
		t.Error("nil distribution accepted")
	}
	if _, err := m.Gain(nil); err == nil {
		t.Error("Gain with nil distribution accepted")
	}
}

func BenchmarkConditionalPMF(b *testing.B) {
	m := ReferenceModel()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := m.ConditionalPMF(SchemeOAQ, 12); err != nil {
			b.Fatal(err)
		}
	}
}

// ExpectedLevel returns E[Y], the mean QoS level under the given scheme
// and plane-capacity distribution — a scalar summary of the spectrum
// useful for sweeps and ablations.
func (m Model) ExpectedLevel(s Scheme, dist *capacity.Distribution) (float64, error) {
	pmf, err := m.Compose(s, dist)
	if err != nil {
		return 0, err
	}
	return pmf.Mean(), nil
}

// Gain returns E[Y_OAQ] − E[Y_BAQ]: the mean QoS-level improvement the
// opportunity-adaptive scheme buys over the baseline at this operating
// point.
func (m Model) Gain(dist *capacity.Distribution) (float64, error) {
	oaq, err := m.ExpectedLevel(SchemeOAQ, dist)
	if err != nil {
		return 0, err
	}
	baq, err := m.ExpectedLevel(SchemeBAQ, dist)
	if err != nil {
		return 0, err
	}
	return oaq - baq, nil
}
