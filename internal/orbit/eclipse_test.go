package orbit

import (
	"fmt"
	"math"
	"testing"
)

func TestSunDirectionSeasons(t *testing.T) {
	// Vernal equinox: sun along +X, no declination.
	s := SunDirection(0)
	if !approx(s.X, 1, 1e-9) || math.Abs(s.Z) > 1e-9 {
		t.Errorf("equinox sun = %v", s)
	}
	// Unit vector at all times.
	for _, tm := range []float64{0, YearMin / 4, YearMin / 2, YearMin * 0.77} {
		if !approx(SunDirection(tm).Norm(), 1, 1e-12) {
			t.Errorf("non-unit sun direction at %v", tm)
		}
	}
	// June solstice (quarter year): maximum northern declination.
	solstice := SunDirection(YearMin / 4)
	if !approx(solstice.Z, math.Sin(ObliquityRad), 1e-9) {
		t.Errorf("solstice declination = %v, want sin(23.44°)", solstice.Z)
	}
	// Autumn equinox: sun along −X.
	if s := SunDirection(YearMin / 2); !approx(s.X, -1, 1e-9) {
		t.Errorf("autumn sun = %v", s)
	}
	// Annual periodicity.
	a, b := SunDirection(123456), SunDirection(123456+YearMin)
	if a.Sub(b).Norm() > 1e-9 {
		t.Errorf("sun not annual-periodic: %v vs %v", a, b)
	}
}

func TestEclipsedGeometry(t *testing.T) {
	sun := Vec3{X: 1}
	r := EarthRadiusKm + 300
	cases := []struct {
		name string
		pos  Vec3
		want bool
	}{
		{"sunlit side", Vec3{X: r}, false},
		{"deep shadow", Vec3{X: -r}, true},
		{"terminator above pole", Vec3{Z: r}, false},
		{"behind but outside cylinder", Vec3{X: -r, Y: EarthRadiusKm * 1.2}, false},
		{"behind and inside cylinder", Vec3{X: -r, Y: EarthRadiusKm * 0.5}, true},
	}
	for _, c := range cases {
		if got := Eclipsed(c.pos, sun); got != c.want {
			t.Errorf("%s: Eclipsed = %v, want %v", c.name, got, c.want)
		}
	}
}

func TestBetaAngleExtremes(t *testing.T) {
	// Equatorial orbit at equinox: sun in the orbital plane, β = 0.
	eq, err := NewCircularOrbit(90, 0, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if beta := BetaAngle(eq, 0); math.Abs(beta) > 1e-9 {
		t.Errorf("equatorial equinox β = %v, want 0", beta)
	}
	// Polar orbit with RAAN 90° at equinox: normal ±X... choose RAAN so
	// the normal points at the sun: normal = (sinΩ·sin i, −cosΩ·sin i,
	// cos i); for i=90°, Ω=90°: normal = (1, 0, 0) = sun → β = 90°.
	polar, err := NewCircularOrbit(90, math.Pi/2, math.Pi/2, 0)
	if err != nil {
		t.Fatal(err)
	}
	if beta := BetaAngle(polar, 0); !approx(beta, math.Pi/2, 1e-9) {
		t.Errorf("terminator-riding β = %v, want π/2", beta)
	}
}

func TestEclipseFractionClosedFormLimits(t *testing.T) {
	o, err := NewCircularOrbit(90, 86*math.Pi/180, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	// β = 0 for a ~280 km orbit: around 40% of the orbit in shadow.
	f0 := EclipseFraction(o, 0)
	if f0 < 0.35 || f0 > 0.45 {
		t.Errorf("β=0 eclipse fraction = %v, want ≈0.4", f0)
	}
	// Eclipse fraction shrinks monotonically with |β| and vanishes at
	// the terminator.
	prev := f0
	for _, beta := range []float64{0.2, 0.5, 1.0, 1.4} {
		f := EclipseFraction(o, beta)
		if f > prev {
			t.Errorf("eclipse fraction not decreasing at β=%v: %v > %v", beta, f, prev)
		}
		prev = f
	}
	if f := EclipseFraction(o, math.Pi/2); f != 0 {
		t.Errorf("terminator eclipse fraction = %v, want 0", f)
	}
}

func TestEclipseFractionMatchesSimulation(t *testing.T) {
	// Closed form vs direct shadow integration, at two different orbit
	// orientations (hence beta angles).
	for _, raan := range []float64{0, 0.9} {
		o, err := NewCircularOrbit(90, 86*math.Pi/180, raan, 0)
		if err != nil {
			t.Fatal(err)
		}
		beta := BetaAngle(o, 0)
		analytic := EclipseFraction(o, beta)
		measured, err := EclipseFractionMeasured(o, 0, 0.01)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(analytic-measured) > 0.01 {
			t.Errorf("RAAN %v (β=%.3f): analytic %v vs measured %v", raan, beta, analytic, measured)
		}
	}
}

func TestEclipseFractionMeasuredValidation(t *testing.T) {
	o, _ := NewCircularOrbit(90, math.Pi/2, 0, 0)
	if _, err := EclipseFractionMeasured(o, 0, 0); err == nil {
		t.Error("zero step accepted")
	}
	if _, err := EclipseFractionMeasured(o, 0, 30); err == nil {
		t.Error("giant step accepted")
	}
}

// The readiness-to-serve tie-in: over a third of each reference orbit
// is power-constrained at low beta — the physical scale of the paper's
// "continuously changing readiness-to-serve".
func TestReferenceOrbitEclipseScale(t *testing.T) {
	o, err := NewCircularOrbit(90, 86*math.Pi/180, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	minutes := EclipseFraction(o, 0) * o.PeriodMin
	if minutes < 30 || minutes > 40 {
		t.Errorf("eclipse per orbit = %v min, want ≈36", minutes)
	}
}

// Solar and eclipse geometry. The paper's central notion — the
// continuously changing readiness-to-serve of a mobile resource — has a
// physical root beyond footprint motion: a LEO satellite spends a third
// of each orbit in the earth's shadow, constraining power for sensing
// and crosslink coordination. This file provides the (simplified,
// circular-ecliptic) sun model, the cylindrical-shadow eclipse test, and
// the classical beta-angle eclipse-fraction formula used to size that
// effect.

const (
	// YearMin is the length of the anomalistic year in minutes.
	YearMin = 365.25 * 24 * 60
	// ObliquityRad is the earth's axial tilt.
	ObliquityRad = 23.439 * math.Pi / 180
	// SunDistanceKm is the (constant, circular-orbit) earth–sun
	// distance.
	SunDistanceKm = 149_597_870.7
)

// SunDirection returns the unit vector from the earth to the sun in the
// ECI frame at time t (minutes), for a circular ecliptic sun starting
// at the vernal equinox at t = 0.
func SunDirection(t float64) Vec3 {
	// Ecliptic longitude advances uniformly.
	l := 2 * math.Pi * t / YearMin
	cl, sl := math.Cos(l), math.Sin(l)
	ce, se := math.Cos(ObliquityRad), math.Sin(ObliquityRad)
	// Rotate the ecliptic-plane direction by the obliquity about +X.
	return Vec3{X: cl, Y: sl * ce, Z: sl * se}
}

// Eclipsed reports whether a satellite at the given ECI position is
// inside the earth's cylindrical shadow for the given sun direction:
// behind the terminator plane and within one earth radius of the
// shadow axis. The cylindrical model ignores penumbra, which for LEO
// changes eclipse times by only a few seconds.
func Eclipsed(satPos, sunDir Vec3) bool {
	along := satPos.Dot(sunDir)
	if along >= 0 {
		return false // sunlit side
	}
	radial := satPos.Sub(sunDir.Scale(along))
	return radial.Norm() < EarthRadiusKm
}

// BetaAngle returns the angle between the sun direction and the orbital
// plane of o at time t — the parameter that controls eclipse duration.
// |β| = 90° means the orbit rides the terminator and never enters
// shadow.
func BetaAngle(o CircularOrbit, t float64) float64 {
	// Orbit normal from the RAAN/inclination geometry.
	ci, si := math.Cos(o.Inclination), math.Sin(o.Inclination)
	cO, sO := math.Cos(o.RAAN), math.Sin(o.RAAN)
	normal := Vec3{X: sO * si, Y: -cO * si, Z: ci}
	s := SunDirection(t)
	return math.Asin(numClamp(normal.Dot(s), -1, 1))
}

// EclipseFraction returns the fraction of the orbit spent in shadow for
// a circular orbit with the given beta angle — the classical closed
// form: the half-angle of the shadow arc satisfies
//
//	cos(Δ/2) = √(h² + 2Rh) / (a·cos β),
//
// where a = R + h; zero when the orbit never crosses the shadow
// cylinder (|β| above the critical angle).
func EclipseFraction(o CircularOrbit, beta float64) float64 {
	a := o.SemiMajorAxisKm()
	h := a - EarthRadiusKm
	if h <= 0 {
		return 1
	}
	num := math.Sqrt(h*h + 2*EarthRadiusKm*h)
	den := a * math.Cos(beta)
	if den <= 0 || num >= den {
		return 0
	}
	return math.Acos(num/den) / math.Pi
}

// EclipseFractionMeasured integrates the eclipse state around one orbit
// at time t0 (sampling with the given step), for validating the closed
// form and for use with perturbed trajectories.
func EclipseFractionMeasured(o CircularOrbit, t0, stepMin float64) (float64, error) {
	if stepMin <= 0 || stepMin >= o.PeriodMin/8 {
		return 0, fmt.Errorf("orbit: eclipse sampling step %g must be in (0, period/8)", stepMin)
	}
	sun := SunDirection(t0) // the sun barely moves over one LEO orbit
	var dark float64
	for t := t0; t < t0+o.PeriodMin; t += stepMin {
		if Eclipsed(o.PositionECI(t), sun) {
			dark += stepMin
		}
	}
	return dark / o.PeriodMin, nil
}

func numClamp(v, lo, hi float64) float64 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}
