package stochgeom

import (
	"math"
	"testing"

	"satqos/internal/constellation"
	"satqos/internal/stats"
)

func refShell(t *testing.T) Shell {
	t.Helper()
	cfg, err := constellation.PresetConfig("reference")
	if err != nil {
		t.Fatal(err)
	}
	s, err := ShellFromConfig(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// A polar shell seen from the pole covers the pole whenever the
// satellite's latitude is within ψ of it; by symmetry of the marginal
// the answer is exactly ψ/π. Same closed form for an equatorial shell
// and an equatorial target.
func TestVisibleProbClosedForms(t *testing.T) {
	cases := []struct {
		name string
		inc  float64 // degrees
		lat  float64 // radians
	}{
		{"polar shell, polar target", 90, math.Pi / 2},
		{"equatorial shell, equatorial target", 0, 0},
	}
	for _, tc := range cases {
		for _, psi := range []float64{0.05, 0.25, 0.7} {
			s := Shell{N: 100, AltitudeKm: 780, InclinationDeg: tc.inc, HalfAngle: psi}
			p, err := s.VisibleProb(tc.lat)
			if err != nil {
				t.Fatalf("%s ψ=%g: %v", tc.name, psi, err)
			}
			want := psi / math.Pi
			if math.Abs(p-want) > 1e-9 {
				t.Errorf("%s ψ=%g: p = %.12f, want ψ/π = %.12f", tc.name, psi, p, want)
			}
		}
	}
}

// A target poleward of ι + ψ can never be covered; for a polar shell
// and an equatorial target, p increases toward ½ as ψ → π/2 (each
// latitude ring then contributes exactly half its longitudes).
func TestVisibleProbExtremes(t *testing.T) {
	s := Shell{N: 10, AltitudeKm: 780, InclinationDeg: 53, HalfAngle: 0.2}
	p, err := s.VisibleProb(85 * math.Pi / 180)
	if err != nil {
		t.Fatal(err)
	}
	if p != 0 {
		t.Errorf("out-of-reach target: p = %g, want 0", p)
	}
	wide := Shell{N: 10, AltitudeKm: 20000, InclinationDeg: 90, HalfAngle: 1.5}
	p, err = wide.VisibleProb(0)
	if err != nil {
		t.Fatal(err)
	}
	if p < 0.4 || p > 0.5 {
		t.Errorf("wide-footprint polar shell at equator: p = %g, want in (0.4, 0.5)", p)
	}
}

func TestVisibleProbSymmetryAndRetrograde(t *testing.T) {
	s := refShell(t)
	for _, lat := range []float64{0.1, 0.4, 0.8, 1.2} {
		pPlus, err := s.VisibleProb(lat)
		if err != nil {
			t.Fatal(err)
		}
		pMinus, err := s.VisibleProb(-lat)
		if err != nil {
			t.Fatal(err)
		}
		if pPlus != pMinus {
			t.Errorf("lat ±%g: p(+) = %g ≠ p(−) = %g", lat, pPlus, pMinus)
		}
	}
	// Retrograde ι and its supplement bound the same latitudes.
	pro := Shell{N: 10, AltitudeKm: 780, InclinationDeg: 80, HalfAngle: 0.3}
	retro := pro
	retro.InclinationDeg = 100
	pp, err := pro.VisibleProb(0.5)
	if err != nil {
		t.Fatal(err)
	}
	pr, err := retro.VisibleProb(0.5)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(pp-pr) > 1e-12 {
		t.Errorf("retrograde supplement: p(80°) = %g ≠ p(100°) = %g", pp, pr)
	}
}

func TestHalfAngleDerivations(t *testing.T) {
	// ε = 0 gives the horizon-limited cap ψ = acos(Re/(Re+h)).
	psi, err := HalfAngleFromElevationDeg(780, 0)
	if err != nil {
		t.Fatal(err)
	}
	want := math.Acos(6378.137 / (6378.137 + 780))
	if math.Abs(psi-want) > 1e-12 {
		t.Errorf("ε=0: ψ = %g, want %g", psi, want)
	}
	// Raising the mask shrinks the cap.
	psi25, err := HalfAngleFromElevationDeg(780, 25)
	if err != nil {
		t.Fatal(err)
	}
	if psi25 >= psi {
		t.Errorf("ε=25°: ψ = %g not smaller than ε=0 ψ = %g", psi25, psi)
	}
	// Coverage-time route matches ShellFromConfig on the reference design.
	cfg, err := constellation.PresetConfig("reference")
	if err != nil {
		t.Fatal(err)
	}
	s := refShell(t)
	fromTc, err := HalfAngleFromCoverageTime(s.AltitudeKm, cfg.CoverageTimeMin)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(fromTc-s.HalfAngle) > 1e-9 {
		t.Errorf("coverage-time ψ = %g, config ψ = %g", fromTc, s.HalfAngle)
	}

	for _, bad := range []struct{ alt, elev float64 }{{-1, 10}, {780, -1}, {780, 90}} {
		if _, err := HalfAngleFromElevationDeg(bad.alt, bad.elev); err == nil {
			t.Errorf("HalfAngleFromElevationDeg(%g, %g): want error", bad.alt, bad.elev)
		}
	}
	if _, err := HalfAngleFromCoverageTime(780, -3); err == nil {
		t.Error("negative coverage time: want error")
	}
}

func TestShellValidate(t *testing.T) {
	good := Shell{N: 10, AltitudeKm: 780, InclinationDeg: 86.4, HalfAngle: 0.3}
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []Shell{
		{N: 0, AltitudeKm: 780, InclinationDeg: 86.4, HalfAngle: 0.3},
		{N: 10, AltitudeKm: -5, InclinationDeg: 86.4, HalfAngle: 0.3},
		{N: 10, AltitudeKm: 780, InclinationDeg: 200, HalfAngle: 0.3},
		{N: 10, AltitudeKm: 780, InclinationDeg: 86.4, HalfAngle: 0},
		{N: 10, AltitudeKm: 780, InclinationDeg: 86.4, HalfAngle: 2},
	}
	for i, s := range bad {
		if err := s.Validate(); err == nil {
			t.Errorf("bad shell %d validated", i)
		}
	}
}

func TestEvaluatePMFWellFormed(t *testing.T) {
	d := Design{Shells: []Shell{refShell(t)}}
	v, err := d.Evaluate(30 * math.Pi / 180)
	if err != nil {
		t.Fatal(err)
	}
	if len(v.PMF) != d.TotalSatellites()+1 {
		t.Fatalf("PMF length %d, want %d", len(v.PMF), d.TotalSatellites()+1)
	}
	var sum float64
	for k, p := range v.PMF {
		if p < 0 {
			t.Fatalf("P(%d) = %g negative", k, p)
		}
		sum += p
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Fatalf("PMF sums to %.12f", sum)
	}
	mean := v.Mean()
	wantMean := float64(d.TotalSatellites()) * v.ShellProbs[0]
	if math.Abs(mean-wantMean) > 1e-9 {
		t.Errorf("mean %g, want Np = %g", mean, wantMean)
	}
	if cf := v.CoverageFraction(); math.Abs(cf-(1-v.PMF[0])) > 1e-12 {
		t.Errorf("coverage fraction %g ≠ 1 − P(0) = %g", cf, 1-v.PMF[0])
	}
	if l := v.Localizability(4); l != v.CCDF(4) {
		t.Errorf("localizability %g ≠ CCDF(4) %g", l, v.CCDF(4))
	}
}

func TestPVisibleMatchesEvaluate(t *testing.T) {
	d := Design{Shells: []Shell{refShell(t)}}
	lat := 0.6
	v, err := d.Evaluate(lat)
	if err != nil {
		t.Fatal(err)
	}
	for k := 0; k <= d.TotalSatellites(); k += 7 {
		p, err := d.PVisible(k, lat)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(p-v.P(k)) > 1e-12 {
			t.Errorf("P(K=%d): point query %g, full PMF %g", k, p, v.P(k))
		}
	}
	if p, err := d.PVisible(-1, lat); err != nil || p != 0 {
		t.Errorf("P(K=-1) = %g, %v; want 0, nil", p, err)
	}
	if p, err := d.PVisible(d.TotalSatellites()+1, lat); err != nil || p != 0 {
		t.Errorf("P(K=N+1) = %g, %v; want 0, nil", p, err)
	}
}

// A two-shell mixture must equal the convolution of its parts; its
// mean is additive.
func TestMixtureConvolution(t *testing.T) {
	leo := Shell{N: 24, AltitudeKm: 780, InclinationDeg: 86.4, HalfAngle: 0.25}
	meo := Shell{N: 10, AltitudeKm: 8000, InclinationDeg: 55, HalfAngle: 0.6}
	lat := 0.4
	mix := Design{Shells: []Shell{leo, meo}}
	v, err := mix.Evaluate(lat)
	if err != nil {
		t.Fatal(err)
	}
	vLeo, err := Design{Shells: []Shell{leo}}.Evaluate(lat)
	if err != nil {
		t.Fatal(err)
	}
	vMeo, err := Design{Shells: []Shell{meo}}.Evaluate(lat)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := v.Mean(), vLeo.Mean()+vMeo.Mean(); math.Abs(got-want) > 1e-9 {
		t.Errorf("mixture mean %g, want %g", got, want)
	}
	var sum float64
	for _, p := range v.PMF {
		sum += p
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Errorf("mixture PMF sums to %.12f", sum)
	}
	// Spot-check one convolution term.
	var want3 float64
	for a := 0; a <= 3; a++ {
		want3 += vLeo.P(a) * vMeo.P(3-a)
	}
	if math.Abs(v.P(3)-want3) > 1e-12 {
		t.Errorf("mixture P(3) = %g, want %g", v.P(3), want3)
	}
}

func TestCapacityDistributionAdapter(t *testing.T) {
	d := Design{Shells: []Shell{refShell(t)}}
	v, err := d.Evaluate(0.5)
	if err != nil {
		t.Fatal(err)
	}
	dist, err := v.CapacityDistribution(1, 10)
	if err != nil {
		t.Fatal(err)
	}
	var sum float64
	for k := 1; k <= 10; k++ {
		sum += dist.P(k)
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Fatalf("adapter mass %g, want 1", sum)
	}
	// Boundary bins absorb the folded tails.
	wantLow := v.P(0) + v.P(1)
	if math.Abs(dist.P(1)-wantLow) > 1e-12 {
		t.Errorf("P(1) = %g, want folded %g", dist.P(1), wantLow)
	}
	wantHigh := v.CCDF(10)
	if math.Abs(dist.P(10)-wantHigh) > 1e-9 {
		t.Errorf("P(10) = %g, want folded tail %g", dist.P(10), wantHigh)
	}
	if _, err := v.CapacityDistribution(0, 10); err == nil {
		t.Error("eta = 0: want error")
	}
	if _, err := v.CapacityDistribution(5, 4); err == nil {
		t.Error("n < eta: want error")
	}
}

// TestBinomialPMFBitIdentical: reading lgamma(k+1) from one table
// gives the same floats, bit for bit, as three Lgamma calls per term.
func TestBinomialPMFBitIdentical(t *testing.T) {
	for _, n := range []int{66, 98, 140, 648, 1584} {
		for _, p := range []float64{0, 0.003, 0.013, 0.2, 0.7, 1} {
			got := make([]float64, n+1)
			binomialPMF(got, n, p)
			for k := 0; k <= n; k++ {
				var want float64
				switch {
				case p <= 0:
					if k == 0 {
						want = 1
					}
				case p >= 1:
					if k == n {
						want = 1
					}
				default:
					lgN, _ := math.Lgamma(float64(n) + 1)
					lgK, _ := math.Lgamma(float64(k) + 1)
					lgNK, _ := math.Lgamma(float64(n-k) + 1)
					want = math.Exp(lgN - lgK - lgNK + float64(k)*math.Log(p) + float64(n-k)*math.Log1p(-p))
				}
				if math.Float64bits(got[k]) != math.Float64bits(want) {
					t.Fatalf("N=%d p=%g: P(%d) = %v, three-lgamma formula %v", n, p, k, got[k], want)
				}
			}
		}
	}
}

// TestCapacityDistributionBitReproducible: the adapter folds the
// out-of-support mass in a fixed order, so 200 rebuilds of one 41-key
// law (a Binomial(40, 0.3) visible count clamped onto [10, 14]) give
// bit-identical bound masses and means.
func TestCapacityDistributionBitReproducible(t *testing.T) {
	v := &Visibility{PMF: make([]float64, 41)}
	binomialPMF(v.PMF, 40, 0.3)
	build := func() (lo, hi, mean float64) {
		d, err := v.CapacityDistribution(10, 14)
		if err != nil {
			t.Fatal(err)
		}
		return d.P(10), d.P(14), d.Mean()
	}
	lo0, hi0, mean0 := build()
	for i := 1; i < 200; i++ {
		lo, hi, mean := build()
		if math.Float64bits(lo) != math.Float64bits(lo0) ||
			math.Float64bits(hi) != math.Float64bits(hi0) ||
			math.Float64bits(mean) != math.Float64bits(mean0) {
			t.Fatalf("rebuild %d: P(10)=%v P(14)=%v mean=%v, first build %v %v %v",
				i, lo, hi, mean, lo0, hi0, mean0)
		}
	}
}

// TestVisibleProbMatchesMidpointRule checks the cap integral against
// an independent dense midpoint rule over the whole u range, on every
// preset from the equator to 70° in 0.5° steps. The midpoint rule
// needs no knowledge of where the integrand is nonzero; with 20000
// nodes its error at the √ kinks of the band edges is below 2e-7, so
// the 1e-6 tolerance leaves room for it and nothing else. A quadrature
// whose nodes all miss the narrow band (returning p = 0 for a visible
// shell) fails here by orders of magnitude.
func TestVisibleProbMatchesMidpointRule(t *testing.T) {
	const nodes, tol = 20000, 1e-6
	for _, name := range constellation.PresetNames() {
		d, err := FromPreset(name)
		if err != nil {
			t.Fatal(err)
		}
		s := d.Shells[0]
		sinInc := math.Sin(s.effInclination())
		cosPsi := math.Cos(s.HalfAngle)
		for i := 0; i <= 140; i++ {
			latDeg := 0.5 * float64(i)
			lat := latDeg * math.Pi / 180
			p, err := s.VisibleProb(lat)
			if err != nil {
				t.Fatal(err)
			}
			sinT, cosT := math.Sincos(lat)
			var sum float64
			for j := 0; j < nodes; j++ {
				u := -math.Pi/2 + (float64(j)+0.5)*math.Pi/nodes
				sinPhi := sinInc * math.Sin(u)
				cosPhi := math.Sqrt(1 - sinPhi*sinPhi)
				num := cosPsi - sinPhi*sinT
				den := cosPhi * cosT
				switch {
				case num <= -den:
					sum++
				case num < den:
					sum += math.Acos(num/den) / math.Pi
				}
			}
			if want := sum / nodes; math.Abs(p-want) > tol {
				t.Errorf("%s at %g°: p = %.9f, midpoint rule %.9f", name, latDeg, p, want)
			}
		}
	}
}

// Monte-Carlo check of the cap integral: sample the BPP latitude
// marginal via φ = asin(sin ι · sin u), u ~ Uniform(−π/2, π/2), and a
// uniform longitude, and count cap hits. The analytic p must land in
// the Wilson interval of the empirical fraction.
func TestVisibleProbMonteCarlo(t *testing.T) {
	s := refShell(t)
	sinInc := math.Sin(s.effInclination())
	cosPsi := math.Cos(s.HalfAngle)
	rng := stats.NewRNG(2003, 17)
	for _, latDeg := range []float64{0, 20, 30, 60, 85} {
		lat := latDeg * math.Pi / 180
		p, err := s.VisibleProb(lat)
		if err != nil {
			t.Fatal(err)
		}
		const trials = 200000
		sinT, cosT := math.Sincos(lat)
		hits := 0
		for i := 0; i < trials; i++ {
			u := (rng.Float64() - 0.5) * math.Pi
			sinPhi := sinInc * math.Sin(u)
			cosPhi := math.Sqrt(1 - sinPhi*sinPhi)
			dLon := (rng.Float64() - 0.5) * 2 * math.Pi
			cosSep := sinPhi*sinT + cosPhi*cosT*math.Cos(dLon)
			if cosSep >= cosPsi {
				hits++
			}
		}
		pHat := float64(hits) / trials
		lo, hi := stats.WilsonCI(pHat, trials, 3.9) // ~1e-4 two-sided
		if p < lo || p > hi {
			t.Errorf("lat %g°: analytic p = %.6f outside Wilson CI [%.6f, %.6f] of %d-trial MC", latDeg, p, lo, hi, trials)
		}
	}
}

func TestFromPreset(t *testing.T) {
	for _, name := range constellation.PresetNames() {
		d, err := FromPreset(name)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		cfg, err := constellation.PresetConfig(name)
		if err != nil {
			t.Fatal(err)
		}
		if got, want := d.TotalSatellites(), cfg.Planes*cfg.ActivePerPlane; got != want {
			t.Errorf("%s: %d satellites, want %d", name, got, want)
		}
	}
	if _, err := FromPreset("nope"); err == nil {
		t.Error("unknown preset: want error")
	}
	if err := (Design{}).Validate(); err == nil {
		t.Error("empty design: want error")
	}
}
