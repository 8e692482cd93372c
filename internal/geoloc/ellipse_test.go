package geoloc

import (
	"math"
	"testing"
	"testing/quick"

	"satqos/internal/mat"
	"satqos/internal/stats"
)

func approx(a, b, tol float64) bool {
	d := math.Abs(a - b)
	if d <= tol {
		return true
	}
	return d <= tol*math.Max(math.Abs(a), math.Abs(b))
}

func estimateWithCov(rows [][]float64) Estimate {
	cov, err := mat.FromRows(rows)
	if err != nil {
		panic(err)
	}
	return Estimate{Covariance: cov}
}

func TestErrorEllipseAxisAligned(t *testing.T) {
	// var(north) = 9, var(east) = 4: major axis 3 km along north.
	e := estimateWithCov([][]float64{
		{9, 0, 0},
		{0, 4, 0},
		{0, 0, 1},
	})
	major, minor, theta := e.ErrorEllipse()
	if !approx(major, 3, 1e-12) || !approx(minor, 2, 1e-12) {
		t.Errorf("axes = %v, %v, want 3, 2", major, minor)
	}
	if math.Abs(theta) > 1e-12 {
		t.Errorf("orientation = %v, want 0 (north)", theta)
	}
	// Swap: major along east.
	e = estimateWithCov([][]float64{
		{4, 0, 0},
		{0, 9, 0},
		{0, 0, 1},
	})
	major, minor, theta = e.ErrorEllipse()
	if !approx(major, 3, 1e-12) || !approx(minor, 2, 1e-12) {
		t.Errorf("axes = %v, %v", major, minor)
	}
	if !approx(theta, math.Pi/2, 1e-12) {
		t.Errorf("orientation = %v, want π/2 (east)", theta)
	}
}

func TestErrorEllipseDiagonalCase(t *testing.T) {
	// Perfect correlation along the 45° diagonal: eigenvalues 2 and 0.
	e := estimateWithCov([][]float64{
		{1, 1, 0},
		{1, 1, 0},
		{0, 0, 1},
	})
	major, minor, theta := e.ErrorEllipse()
	if !approx(major, math.Sqrt2, 1e-12) {
		t.Errorf("major = %v, want √2", major)
	}
	if minor > 1e-9 {
		t.Errorf("minor = %v, want 0", minor)
	}
	if !approx(theta, math.Pi/4, 1e-12) {
		t.Errorf("orientation = %v, want π/4", theta)
	}
}

func TestErrorEllipseWithoutCovariance(t *testing.T) {
	var e Estimate
	major, minor, _ := e.ErrorEllipse()
	if !math.IsInf(major, 1) || !math.IsInf(minor, 1) {
		t.Error("ellipse without covariance should be infinite")
	}
	if !math.IsInf(e.CEP50(), 1) {
		t.Error("CEP without covariance should be infinite")
	}
}

func TestCEP50Circular(t *testing.T) {
	// Circular 1-km covariance: CEP ≈ 1.1774 σ × ... the approximation
	// gives 0.562 + 0.617 = 1.179, vs the exact Rayleigh 1.1774.
	e := estimateWithCov([][]float64{
		{1, 0, 0},
		{0, 1, 0},
		{0, 0, 1},
	})
	if cep := e.CEP50(); math.Abs(cep-1.1774) > 0.01 {
		t.Errorf("circular CEP = %v, want ≈1.1774", cep)
	}
}

// The ellipse axes are invariant under rotation of the covariance and
// the trace is preserved: major² + minor² = var_n + var_e.
func TestErrorEllipseInvariantsProperty(t *testing.T) {
	prop := func(rawA, rawB, rawC float64) bool {
		// Build an SPD 2×2 block from a random factor.
		a := 0.5 + math.Mod(math.Abs(rawA), 5)
		b := math.Mod(rawB, 2)
		c := 0.5 + math.Mod(math.Abs(rawC), 5)
		// Gram matrix of [[a b] [0 c]] is SPD.
		vn := a*a + b*b
		ve := c * c
		cov := b * c
		e := estimateWithCov([][]float64{
			{vn, cov, 0},
			{cov, ve, 0},
			{0, 0, 1},
		})
		major, minor, theta := e.ErrorEllipse()
		if major < minor || minor < 0 {
			return false
		}
		if theta < 0 || theta >= math.Pi {
			return false
		}
		return approx(major*major+minor*minor, vn+ve, 1e-9)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// A real single-pass fix has a strongly elongated ellipse; a dual-
// geometry fix is much rounder and smaller.
func TestEllipseShapeAcrossCoverageClasses(t *testing.T) {
	o1 := refOrbit(t, 0, 0)
	truth := emitterUnder(o1, 2)
	o2 := refOrbit(t, math.Pi/7, -0.12)
	rng := stats.NewRNG(55, 0)
	_ = rng

	m1 := observe(t, o1, truth, 0, 4, 9, 301)
	guess := offsetPosition(truth, 20, 20)
	single, err := (Estimator{}).Solve(m1, guess, carrierHz, nil)
	if err != nil {
		t.Fatal(err)
	}
	m2 := observe(t, o2, truth, 0, 4, 9, 302)
	dual, err := (Estimator{}).Solve(append(append([]Measurement{}, m1...), m2...), guess, carrierHz, nil)
	if err != nil {
		t.Fatal(err)
	}
	sMaj, sMin, _ := single.ErrorEllipse()
	dMaj, _, _ := dual.ErrorEllipse()
	if sMaj/sMin < 3 {
		t.Errorf("single-pass aspect ratio = %v, want elongated (cross-track ambiguity)", sMaj/sMin)
	}
	if dMaj >= sMaj {
		t.Errorf("dual major axis %v should collapse below single %v", dMaj, sMaj)
	}
	if dual.CEP50() >= single.CEP50() {
		t.Errorf("dual CEP %v should beat single %v", dual.CEP50(), single.CEP50())
	}
}

// ErrorEllipse returns the 1σ position-uncertainty ellipse of the
// estimate in the local north/east plane: semi-major and semi-minor
// axis lengths (km) and the orientation of the major axis measured from
// north toward east (radians, in [0, π)). It is the eigenstructure of
// the 2×2 position block of the posterior covariance.
//
// Single-pass Doppler fixes produce strongly elongated ellipses (the
// cross-track direction is weakly observable); a second pass from a
// different geometry collapses the major axis — the geometric reason
// sequential and simultaneous multiple coverage improve QoS.
func (e Estimate) ErrorEllipse() (majorKm, minorKm, orientation float64) {
	if e.Covariance == nil {
		return math.Inf(1), math.Inf(1), 0
	}
	a := e.Covariance.At(0, 0) // var(north)
	b := e.Covariance.At(0, 1) // cov(north, east)
	c := e.Covariance.At(1, 1) // var(east)
	// Eigenvalues of [[a b] [b c]].
	tr := a + c
	d := math.Sqrt((a-c)*(a-c)/4 + b*b)
	l1 := tr/2 + d
	l2 := tr/2 - d
	if l2 < 0 {
		l2 = 0
	}
	// Major-axis direction: eigenvector of l1.
	var theta float64
	switch {
	case b == 0 && a >= c:
		theta = 0
	case b == 0:
		theta = math.Pi / 2
	default:
		theta = math.Atan2(l1-a, b)
		// Convert from (north, east) component angle to bearing from
		// north: the eigenvector is (x_n, x_e) ∝ (b, l1 − a); bearing =
		// atan2(east, north).
		theta = math.Atan2(l1-a, b)
	}
	for theta < 0 {
		theta += math.Pi
	}
	for theta >= math.Pi {
		theta -= math.Pi
	}
	return math.Sqrt(l1), math.Sqrt(l2), theta
}

// CEP50 returns the radius (km) of the circle centered on the estimate
// that contains the true position with probability 0.5, using the
// standard Rayleigh-family approximation
//
//	CEP ≈ 0.562 σ_major + 0.617 σ_minor,
//
// accurate to a few percent for aspect ratios up to about 3, and a
// conservative overestimate beyond (the usual practice for elongated
// Doppler fixes).
func (e Estimate) CEP50() float64 {
	major, minor, _ := e.ErrorEllipse()
	if math.IsInf(major, 1) {
		return math.Inf(1)
	}
	return 0.562*major + 0.617*minor
}
