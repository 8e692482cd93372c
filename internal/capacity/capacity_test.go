package capacity

import (
	"math"
	"testing"
	"testing/quick"

	"satqos/internal/stats"
)

func approx(a, b, tol float64) bool {
	d := math.Abs(a - b)
	if d <= tol {
		return true
	}
	return d <= tol*math.Max(math.Abs(a), math.Abs(b))
}

func TestParamsValidate(t *testing.T) {
	good := ReferenceParams(10, 1e-5, 30000)
	if err := good.Validate(); err != nil {
		t.Fatalf("reference params rejected: %v", err)
	}
	bad := []Params{
		{ActivePerPlane: 0, Spares: 2, Eta: 1, LambdaPerHour: 1e-5, PhiHours: 1},
		{ActivePerPlane: 14, Spares: -1, Eta: 10, LambdaPerHour: 1e-5, PhiHours: 1},
		{ActivePerPlane: 14, Spares: 2, Eta: 0, LambdaPerHour: 1e-5, PhiHours: 1},
		{ActivePerPlane: 14, Spares: 2, Eta: 15, LambdaPerHour: 1e-5, PhiHours: 1},
		{ActivePerPlane: 14, Spares: 2, Eta: 10, LambdaPerHour: 0, PhiHours: 1},
		{ActivePerPlane: 14, Spares: 2, Eta: 10, LambdaPerHour: 1e-5, PhiHours: 0},
		{ActivePerPlane: 14, Spares: 2, Eta: 10, LambdaPerHour: math.NaN(), PhiHours: 1},
		// Fuzz regressions from the RK4 solve: λ = +Inf broke its step
		// selection and φ = +Inf made it integrate forever. Both stay
		// rejected: neither is a rate or a period.
		{ActivePerPlane: 14, Spares: 2, Eta: 10, LambdaPerHour: math.Inf(1), PhiHours: 1},
		{ActivePerPlane: 14, Spares: 2, Eta: 10, LambdaPerHour: 1e-5, PhiHours: math.Inf(1)},
		{ActivePerPlane: 14, Spares: 2, Eta: 10, LambdaPerHour: 1e-5, PhiHours: math.NaN()},
	}
	for i, p := range bad {
		if err := p.Validate(); err == nil {
			t.Errorf("case %d: invalid params accepted: %+v", i, p)
		}
	}
}

func TestCapacityAt(t *testing.T) {
	p := ReferenceParams(10, 1e-5, 30000)
	tests := []struct{ f, want int }{
		{0, 14}, {1, 14}, {2, 14}, // spares absorb the first two failures
		{3, 13}, {4, 12}, {5, 11}, {6, 10},
		{7, 10}, // threshold floor
	}
	for _, tt := range tests {
		if got := p.capacityAt(tt.f); got != tt.want {
			t.Errorf("capacityAt(%d) = %d, want %d", tt.f, got, tt.want)
		}
	}
	if got := p.maxFailures(); got != 6 {
		t.Errorf("maxFailures = %d, want 6", got)
	}
}

func TestDistributionValidation(t *testing.T) {
	if _, err := NewDistribution(10, 14, map[int]float64{9: 1}); err == nil {
		t.Error("expected support error below eta")
	}
	if _, err := NewDistribution(10, 14, map[int]float64{15: 1}); err == nil {
		t.Error("expected support error above N")
	}
	if _, err := NewDistribution(10, 14, map[int]float64{14: 0.5}); err == nil {
		t.Error("expected mass error")
	}
	if _, err := NewDistribution(10, 14, map[int]float64{14: 1.5, 13: -0.5}); err == nil {
		t.Error("expected negativity error")
	}
	d, err := NewDistribution(10, 14, map[int]float64{14: 0.25, 12: 0.75})
	if err != nil {
		t.Fatal(err)
	}
	if d.P(14) != 0.25 || d.P(13) != 0 {
		t.Error("P lookup wrong")
	}
	if !approx(d.Mean(), 0.25*14+0.75*12, 1e-12) {
		t.Errorf("Mean = %v", d.Mean())
	}
	sup := d.Support()
	if len(sup) != 2 || sup[0] != 12 || sup[1] != 14 {
		t.Errorf("Support = %v", sup)
	}
	if len(d.String()) == 0 {
		t.Error("empty String()")
	}
}

func TestAnalyticMassAndMonotonicity(t *testing.T) {
	// At tiny λ the plane almost surely stays at full capacity; as λ
	// grows, mass shifts toward the threshold.
	pLow := ReferenceParams(10, 1e-7, 30000)
	dLow, err := pLow.Analytic()
	if err != nil {
		t.Fatal(err)
	}
	if dLow.P(14) < 0.99 {
		t.Errorf("P(14) at λ=1e-7 is %v, want ≈1", dLow.P(14))
	}
	pHigh := ReferenceParams(10, 1e-3, 30000)
	dHigh, err := pHigh.Analytic()
	if err != nil {
		t.Fatal(err)
	}
	if dHigh.P(10) < 0.9 {
		t.Errorf("P(10) at λ=1e-3 is %v, want ≈1", dHigh.P(10))
	}
	if dHigh.Mean() >= dLow.Mean() {
		t.Errorf("mean capacity should fall with λ: %v vs %v", dHigh.Mean(), dLow.Mean())
	}
}

func TestAnalyticMatchesSAN(t *testing.T) {
	for _, lambda := range []float64{1e-5, 5e-5, 1e-4} {
		for _, eta := range []int{10, 12} {
			p := ReferenceParams(eta, lambda, 30000)
			a, err := p.Analytic()
			if err != nil {
				t.Fatalf("Analytic(λ=%v, η=%d): %v", lambda, eta, err)
			}
			s, err := p.SAN()
			if err != nil {
				t.Fatalf("SAN(λ=%v, η=%d): %v", lambda, eta, err)
			}
			for k := eta; k <= 14; k++ {
				if !approx(a.P(k), s.P(k), 1e-5) && math.Abs(a.P(k)-s.P(k)) > 1e-6 {
					t.Errorf("λ=%v η=%d k=%d: analytic %v vs SAN %v", lambda, eta, k, a.P(k), s.P(k))
				}
			}
		}
	}
}

func TestAnalyticMatchesSimulation(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation cross-check skipped in -short mode")
	}
	p := ReferenceParams(12, 1e-4, 30000)
	a, err := p.Analytic()
	if err != nil {
		t.Fatal(err)
	}
	rng := stats.NewRNG(2024, 0)
	// 300 renewal periods.
	sim, err := p.Simulate(300*p.PhiHours, rng)
	if err != nil {
		t.Fatal(err)
	}
	for k := 12; k <= 14; k++ {
		if math.Abs(a.P(k)-sim.P(k)) > 0.02 {
			t.Errorf("k=%d: analytic %v vs simulated %v", k, a.P(k), sim.P(k))
		}
	}
}

// Figure 7's qualitative claims: at λ = 1e-5 full capacity dominates and
// P(K=10) is very small; at λ = 1e-4 the threshold capacity dominates.
func TestFigure7Shape(t *testing.T) {
	low := ReferenceParams(10, 1e-5, 30000)
	dLow, err := low.Analytic()
	if err != nil {
		t.Fatal(err)
	}
	if dLow.P(14) < 0.5 {
		t.Errorf("P(14 | λ=1e-5) = %v, want dominant", dLow.P(14))
	}
	if dLow.P(10) > 0.05 {
		t.Errorf("P(10 | λ=1e-5) = %v, want very small", dLow.P(10))
	}
	high := ReferenceParams(10, 1e-4, 30000)
	dHigh, err := high.Analytic()
	if err != nil {
		t.Fatal(err)
	}
	for k := 11; k <= 14; k++ {
		if dHigh.P(10) <= dHigh.P(k) {
			t.Errorf("P(10 | λ=1e-4) = %v not dominant over P(%d) = %v", dHigh.P(10), k, dHigh.P(k))
		}
	}
	// Monotone λ sweep: P(K=10) increases with λ.
	prev := -1.0
	for _, lambda := range []float64{1e-5, 2e-5, 4e-5, 8e-5, 1e-4} {
		d, err := ReferenceParams(10, lambda, 30000).Analytic()
		if err != nil {
			t.Fatal(err)
		}
		if d.P(10) < prev {
			t.Errorf("P(10) not monotone in λ at %v: %v < %v", lambda, d.P(10), prev)
		}
		prev = d.P(10)
	}
}

// The distribution from any route sums to one and lives on [η, N].
func TestDistributionMassProperty(t *testing.T) {
	prop := func(rawLambda, rawPhi float64, rawEta uint8) bool {
		lambda := 1e-6 + math.Mod(math.Abs(rawLambda), 1e-3)
		phi := 1000 + math.Mod(math.Abs(rawPhi), 50000)
		eta := 9 + int(rawEta%6) // 9..14
		p := ReferenceParams(eta, lambda, phi)
		d, err := p.Analytic()
		if err != nil {
			return false
		}
		var sum float64
		for k := eta; k <= 14; k++ {
			v := d.P(k)
			if v < -1e-9 {
				return false
			}
			sum += v
		}
		return approx(sum, 1, 1e-9)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestSANRejectInvalid(t *testing.T) {
	p := Params{}
	if _, err := p.Analytic(); err == nil {
		t.Error("Analytic accepted zero params")
	}
	if _, err := p.SAN(); err == nil {
		t.Error("SAN accepted zero params")
	}
	if _, err := p.Simulate(100, stats.NewRNG(1, 0)); err == nil {
		t.Error("Simulate accepted zero params")
	}
}

func TestEtaEqualsNDegenerate(t *testing.T) {
	// η = N: capacity can never drop; P(N) = 1.
	p := ReferenceParams(14, 1e-4, 30000)
	d, err := p.Analytic()
	if err != nil {
		t.Fatal(err)
	}
	if !approx(d.P(14), 1, 1e-9) {
		t.Errorf("P(14) = %v, want 1", d.P(14))
	}
	s, err := p.SAN()
	if err != nil {
		t.Fatal(err)
	}
	if !approx(s.P(14), 1, 1e-9) {
		t.Errorf("SAN P(14) = %v, want 1", s.P(14))
	}
}

func TestZeroSpares(t *testing.T) {
	// Without spares the first failure reduces capacity immediately;
	// P(14) must be strictly smaller than with spares.
	with := ReferenceParams(10, 5e-5, 30000)
	without := with
	without.Spares = 0
	dWith, err := with.Analytic()
	if err != nil {
		t.Fatal(err)
	}
	dWithout, err := without.Analytic()
	if err != nil {
		t.Fatal(err)
	}
	if dWithout.P(14) >= dWith.P(14) {
		t.Errorf("spares should help: without %v >= with %v", dWithout.P(14), dWith.P(14))
	}
}

func BenchmarkAnalytic(b *testing.B) {
	p := ReferenceParams(10, 5e-5, 30000)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := p.Analytic(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSANRoute(b *testing.B) {
	p := ReferenceParams(10, 5e-5, 30000)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := p.SAN(); err != nil {
			b.Fatal(err)
		}
	}
}

// The uniformized solve agrees with the SAN route to 1e-12 over five
// decades of λ and nine of φ, at the threshold extremes, in at most a
// few hundred DTMC steps. It agrees with the RK4 referee too where that
// is well conditioned and quick: its flow balance divides by r_f·φ, so
// below λφ = 1e-2 its own rounding nears 1e-12, and its cost grows as
// 20·N·λ·φ steps, about 50 ms at λφ = 100.
func TestAnalyticMatchesSANGrid(t *testing.T) {
	for _, lambda := range []float64{1e-6, 1e-4, 1e-2, 1, 10} {
		for _, phi := range []float64{1, 2160, 30000, 1e6, 1e9} {
			for _, eta := range []int{1, 10, 14} {
				p := ReferenceParams(eta, lambda, phi)
				a, steps, err := p.uniformized()
				if err != nil {
					t.Fatal(err)
				}
				if steps > 300 {
					t.Errorf("%+v: %d DTMC steps", p, steps)
				}
				refs := map[string]*Distribution{}
				if refs["SAN"], err = p.SAN(); err != nil {
					t.Fatal(err)
				}
				if lambda*phi >= 1e-2 && lambda*phi <= 100 {
					if refs["RK4"], err = analyticRK4(p); err != nil {
						t.Fatal(err)
					}
				}
				for name, ref := range refs {
					for k := eta; k <= 14; k++ {
						if d := math.Abs(a.P(k) - ref.P(k)); d > 1e-12 {
							t.Errorf("λ=%g φ=%g η=%d k=%d: uniformized %v vs %s %v (Δ %.3g)",
								lambda, phi, eta, k, a.P(k), name, ref.P(k), d)
						}
					}
				}
			}
		}
	}
}

// FuzzAnalytic: over any plane with N + S ≤ 64, the uniformized solve
// never panics, every accepted Params gives a PMF that is non-negative
// and sums to 1 within 1e-12, and the DTMC series stops within 1e4
// steps whatever λ and φ are. The solve is called uncached so fuzzing
// does not grow the memo.
func FuzzAnalytic(f *testing.F) {
	f.Add(uint8(14), uint8(2), uint8(10), 1e-4, 30000.0)
	f.Add(uint8(14), uint8(2), uint8(1), 1e-4, 1.0)
	f.Add(uint8(14), uint8(2), uint8(10), 1.0, 1e9)
	f.Add(uint8(63), uint8(1), uint8(1), 10.0, 1e9)
	f.Add(uint8(1), uint8(0), uint8(1), 5e-324, 1e-300)
	f.Add(uint8(40), uint8(24), uint8(1), 1e300, 1e300)
	f.Fuzz(func(t *testing.T, n, s, eta uint8, lambda, phi float64) {
		if int(n)+int(s) > 64 {
			return
		}
		p := Params{ActivePerPlane: int(n), Spares: int(s), Eta: int(eta), LambdaPerHour: lambda, PhiHours: phi}
		d, steps, err := p.uniformized()
		if p.Validate() != nil {
			if err == nil {
				t.Fatalf("%+v: invalid params solved", p)
			}
			return
		}
		if err != nil {
			t.Fatalf("%+v: %v", p, err)
		}
		if steps > 1e4 {
			t.Errorf("%+v: %d DTMC steps", p, steps)
		}
		var sum float64
		for k := p.Eta; k <= p.ActivePerPlane; k++ {
			if d.P(k) < 0 {
				t.Errorf("%+v: P(%d) = %g", p, k, d.P(k))
			}
			sum += d.P(k)
		}
		if math.Abs(sum-1) > 1e-12 {
			t.Errorf("%+v: total mass %.17g", p, sum)
		}
	})
}
