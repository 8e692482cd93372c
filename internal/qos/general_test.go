package qos

import (
	"fmt"
	"math"
	"testing"

	"satqos/internal/numeric"
	"satqos/internal/stats"
)

func mustExp(t *testing.T, rate float64) stats.Exponential {
	t.Helper()
	e, err := stats.NewExponential(rate)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func TestNewGeneralModelValidation(t *testing.T) {
	g := ReferenceGeometry()
	f := mustExp(t, 0.5)
	h := mustExp(t, 30)
	if _, err := NewGeneralModel(g, 5, f, h); err != nil {
		t.Fatalf("valid general model rejected: %v", err)
	}
	if _, err := NewGeneralModel(g, 0, f, h); err == nil {
		t.Error("zero deadline accepted")
	}
	if _, err := NewGeneralModel(g, math.NaN(), f, h); err == nil {
		t.Error("NaN deadline accepted")
	}
	if _, err := NewGeneralModel(g, 5, nil, h); err == nil {
		t.Error("nil signal distribution accepted")
	}
	if _, err := NewGeneralModel(g, 5, f, nil); err == nil {
		t.Error("nil computation distribution accepted")
	}
	if _, err := NewGeneralModel(Geometry{}, 5, f, h); err == nil {
		t.Error("invalid geometry accepted")
	}
}

// The quadrature path must agree with the closed forms everywhere the
// closed forms apply (exponential f and h).
func TestGeneralModelMatchesClosedForm(t *testing.T) {
	g := ReferenceGeometry()
	cases := []struct{ tau, mu, nu float64 }{
		{5, 0.5, 30},
		{5, 0.2, 30},
		{2, 0.5, 5},
		{8, 1, 1}, // µ = ν branch
		{12, 0.3, 10},
	}
	for _, c := range cases {
		closed, err := NewModel(g, c.tau, c.mu, c.nu)
		if err != nil {
			t.Fatal(err)
		}
		general, err := NewGeneralModel(g, c.tau, mustExp(t, c.mu), mustExp(t, c.nu))
		if err != nil {
			t.Fatal(err)
		}
		for k := 9; k <= 14; k++ {
			type pair struct {
				name    string
				cf, gq  func(int) (float64, error)
				maxDiff float64
			}
			pairs := []pair{
				{"G3", closed.G3, general.G3, 1e-8},
				{"G3BAQ", closed.G3BAQ, general.G3BAQ, 1e-10},
				{"G2", closed.G2, general.G2, 1e-8},
				{"G0", closed.G0, general.G0, 1e-8},
			}
			for _, p := range pairs {
				a, err := p.cf(k)
				if err != nil {
					t.Fatalf("%s closed k=%d: %v", p.name, k, err)
				}
				b, err := p.gq(k)
				if err != nil {
					t.Fatalf("%s quad k=%d: %v", p.name, k, err)
				}
				if math.Abs(a-b) > p.maxDiff {
					t.Errorf("τ=%v µ=%v ν=%v k=%d: %s closed %v vs quadrature %v",
						c.tau, c.mu, c.nu, k, p.name, a, b)
				}
			}
		}
	}
}

func TestGeneralConditionalPMF(t *testing.T) {
	g := ReferenceGeometry()
	// Non-exponential mix: Weibull signal (heavier shoulder), Erlang
	// computation (less variable).
	w, err := stats.NewWeibull(2, 2)
	if err != nil {
		t.Fatal(err)
	}
	e3, err := stats.NewErlang(3, 90)
	if err != nil {
		t.Fatal(err)
	}
	m, err := NewGeneralModel(g, 5, w, e3)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range []Scheme{SchemeBAQ, SchemeOAQ} {
		for k := 9; k <= 14; k++ {
			pmf, err := m.ConditionalPMF(s, k)
			if err != nil {
				t.Fatalf("%v k=%d: %v", s, k, err)
			}
			if !approx(pmf.Total(), 1, 1e-8) {
				t.Errorf("%v k=%d: mass %v", s, k, pmf.Total())
			}
			for l, v := range pmf {
				if v < 0 {
					t.Errorf("%v k=%d level %d: negative %v", s, k, l, v)
				}
			}
		}
	}
	if _, err := m.ConditionalPMF(Scheme(0), 12); err == nil {
		t.Error("invalid scheme accepted")
	}
}

// A deterministic computation time that always beats the deadline should
// push G3BAQ to exactly L2/L1.
func TestGeneralDeterministicComputation(t *testing.T) {
	g := ReferenceGeometry()
	f := mustExp(t, 0.5)
	h := stats.Deterministic{Value: 0.01} // 36 ms of computation
	m, err := NewGeneralModel(g, 5, f, h)
	if err != nil {
		t.Fatal(err)
	}
	got, err := m.G3BAQ(12)
	if err != nil {
		t.Fatal(err)
	}
	if !approx(got, 1.5/7.5, 1e-12) {
		t.Errorf("G3BAQ = %v, want L2/L1 = 0.2", got)
	}
	// And a computation slower than the deadline kills level 3 entirely.
	slow := stats.Deterministic{Value: 10}
	m2, err := NewGeneralModel(g, 5, f, slow)
	if err != nil {
		t.Fatal(err)
	}
	got, err = m2.G3(12)
	if err != nil {
		t.Fatal(err)
	}
	if got != 0 {
		t.Errorf("G3 with computation slower than deadline = %v, want 0", got)
	}
}

func TestPMFCCDFAndMean(t *testing.T) {
	p := PMF{0.1, 0.2, 0.3, 0.4}
	if !approx(p.CCDF(LevelMiss), 1, 1e-12) {
		t.Errorf("CCDF(0) = %v, want 1", p.CCDF(LevelMiss))
	}
	if !approx(p.CCDF(LevelSingle), 0.9, 1e-12) {
		t.Errorf("CCDF(1) = %v", p.CCDF(LevelSingle))
	}
	if !approx(p.CCDF(LevelSimultaneousDual), 0.4, 1e-12) {
		t.Errorf("CCDF(3) = %v", p.CCDF(LevelSimultaneousDual))
	}
	if !approx(p.Mean(), 0.2+0.6+1.2, 1e-12) {
		t.Errorf("Mean = %v", p.Mean())
	}
	if !approx(p.Total(), 1, 1e-12) {
		t.Errorf("Total = %v", p.Total())
	}
}

func TestLevelAndSchemeStrings(t *testing.T) {
	if LevelMiss.String() == "" || LevelSimultaneousDual.String() == "" {
		t.Error("empty level names")
	}
	if Level(7).String() != "Level(7)" {
		t.Errorf("unknown level string = %q", Level(7).String())
	}
	if SchemeOAQ.String() != "OAQ" || SchemeBAQ.String() != "BAQ" {
		t.Error("scheme names wrong")
	}
	if Scheme(9).String() != "Scheme(9)" {
		t.Errorf("unknown scheme string = %q", Scheme(9).String())
	}
	if !LevelSingle.Valid() || Level(-1).Valid() || Level(4).Valid() {
		t.Error("Level.Valid wrong")
	}
	if !SchemeBAQ.Valid() || Scheme(0).Valid() {
		t.Error("Scheme.Valid wrong")
	}
}

func TestParseScheme(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want Scheme
		err  string
	}{
		{in: "oaq", want: SchemeOAQ},
		{in: "OAQ", want: SchemeOAQ},
		{in: "Baq", want: SchemeBAQ},
		{in: "", err: `unknown scheme "" (oaq | baq)`},
		{in: "qam", err: `unknown scheme "qam" (oaq | baq)`},
		{in: " oaq", err: `unknown scheme " oaq" (oaq | baq)`},
	} {
		got, err := ParseScheme(tc.in)
		if tc.err != "" {
			if err == nil || err.Error() != tc.err {
				t.Errorf("ParseScheme(%q) error = %v, want %q", tc.in, err, tc.err)
			}
			continue
		}
		if err != nil || got != tc.want {
			t.Errorf("ParseScheme(%q) = %v, %v; want %v", tc.in, got, err, tc.want)
		}
		if back, err := ParseScheme(got.String()); err != nil || back != got {
			t.Errorf("ParseScheme(%q) does not round-trip: %v, %v", got.String(), back, err)
		}
	}
}

// G0 is the quadrature form of the missing-target probability.
// Memoized like G3.
func (m GeneralModel) G0(k int) (float64, error) {
	return m.gCached(0, k, func() (float64, error) { return m.g0(k) })
}

func (m GeneralModel) g0(k int) (float64, error) {
	if err := m.Geom.validCapacity(k); err != nil {
		return 0, err
	}
	ov, err := m.Geom.Overlapping(k)
	if err != nil {
		return 0, err
	}
	if ov {
		return 0, nil
	}
	l1, _ := m.Geom.L1(k)
	l2, _ := m.Geom.L2(k)
	if l2 == 0 {
		return 0, nil
	}
	v, err := numeric.IntegrateFast(m.SignalDuration.CDF, 0, l2, m.tol())
	if err != nil {
		return 0, fmt.Errorf("qos: G0 quadrature: %w", err)
	}
	return v / l1, nil
}

// ConditionalPMF mirrors Model.ConditionalPMF through the quadrature
// path.
func (m GeneralModel) ConditionalPMF(s Scheme, k int) (PMF, error) {
	if !s.Valid() {
		return PMF{}, fmt.Errorf("qos: unknown scheme %d", int(s))
	}
	var pmf PMF
	g0, err := m.G0(k)
	if err != nil {
		return PMF{}, err
	}
	pmf[LevelMiss] = g0
	switch s {
	case SchemeOAQ:
		g3, err := m.G3(k)
		if err != nil {
			return PMF{}, err
		}
		g2, err := m.G2(k)
		if err != nil {
			return PMF{}, err
		}
		pmf[LevelSimultaneousDual] = g3
		pmf[LevelSequentialDual] = g2
	case SchemeBAQ:
		g3, err := m.G3BAQ(k)
		if err != nil {
			return PMF{}, err
		}
		pmf[LevelSimultaneousDual] = g3
	}
	pmf[LevelSingle] = 1 - pmf[LevelMiss] - pmf[LevelSequentialDual] - pmf[LevelSimultaneousDual]
	if pmf[LevelSingle] < 0 {
		if pmf[LevelSingle] < -1e-9 {
			return PMF{}, fmt.Errorf("qos: negative single-coverage mass %g at k = %d", pmf[LevelSingle], k)
		}
		pmf[LevelSingle] = 0
	}
	return pmf, nil
}
