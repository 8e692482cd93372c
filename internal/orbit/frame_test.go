package orbit

import (
	"math"
	"testing"
)

// TestFrameMatchesPositionECI: the frame-based unit position agrees with
// the validated 3-1-3 rotation of PositionECI across inclinations, RAANs
// and phases, to floating-point accuracy.
func TestFrameMatchesPositionECI(t *testing.T) {
	for _, inc := range []float64{0, 53 * math.Pi / 180, 86.4 * math.Pi / 180, math.Pi / 2, 98.6 * math.Pi / 180} {
		for _, raan := range []float64{0, 0.7, math.Pi, 1.8 * math.Pi} {
			o, err := NewCircularOrbit(95.6, inc, raan, 0.3)
			if err != nil {
				t.Fatal(err)
			}
			f := o.Frame()
			for _, tm := range []float64{0, 11.2, 47.9, 95.6, 512.3} {
				u := o.Phase0 + o.MeanMotion()*tm
				su, cu := math.Sincos(u)
				got := f.UnitPosition(cu, su)
				want := o.PositionECI(tm).Scale(1 / o.SemiMajorAxisKm())
				if d := got.Sub(want).Norm(); d > 1e-12 {
					t.Fatalf("inc=%g raan=%g t=%g: frame position off by %g", inc, raan, tm, d)
				}
			}
		}
	}
}

// TestFrameOrthonormal: P and Q are orthonormal for any plane.
func TestFrameOrthonormal(t *testing.T) {
	f := NewFrame(1.1, 2.3)
	if d := math.Abs(f.P.Norm() - 1); d > 1e-15 {
		t.Errorf("|P| off by %g", d)
	}
	if d := math.Abs(f.Q.Norm() - 1); d > 1e-15 {
		t.Errorf("|Q| off by %g", d)
	}
	if d := math.Abs(f.P.Dot(f.Q)); d > 1e-15 {
		t.Errorf("P·Q = %g, want 0", d)
	}
}

// TestUnitECIMatchesECI: the unit direction is ECI(t)/Re, and its dot
// product with another point's unit direction is the cosine of their
// great-circle separation.
func TestUnitECIMatchesECI(t *testing.T) {
	a := LatLon{Lat: 0.52, Lon: -1.74}
	b := LatLon{Lat: -0.2, Lon: 0.8}
	for _, tm := range []float64{0, 13.7, 720.1} {
		u := a.UnitECI(tm)
		want := a.ECI(tm).Scale(1 / EarthRadiusKm)
		if d := u.Sub(want).Norm(); d > 1e-14 {
			t.Fatalf("t=%g: unit direction off by %g", tm, d)
		}
		// Both points rotate rigidly, so the angle is t-invariant and
		// equals the haversine great circle.
		got := math.Acos(math.Min(1, math.Max(-1, a.UnitECI(tm).Dot(b.UnitECI(tm)))))
		if d := math.Abs(got - GreatCircle(a, b)); d > 1e-9 {
			t.Fatalf("t=%g: dot-product angle %g vs haversine %g", tm, got, GreatCircle(a, b))
		}
	}
}

// TestPeriodFromAltitudeRoundTrip: PeriodMinFromAltitudeKm inverts
// AltitudeKm, and reproduces the reference designs' figures (a ~550 km
// shell orbits in roughly 95-96 minutes).
func TestPeriodFromAltitudeRoundTrip(t *testing.T) {
	for _, alt := range []float64{550, 600, 780, 1200} {
		period := PeriodMinFromAltitudeKm(alt)
		o, err := NewCircularOrbit(period, 0.9, 0, 0)
		if err != nil {
			t.Fatal(err)
		}
		if d := math.Abs(o.AltitudeKm() - alt); d > 1e-6 {
			t.Errorf("altitude %g km round-trips to %g (off by %g)", alt, o.AltitudeKm(), d)
		}
	}
	if p := PeriodMinFromAltitudeKm(550); p < 94 || p > 97 {
		t.Errorf("550 km period = %g min, want ~95.6", p)
	}
}

// Frame returns the orbit's cached-plane basis.
func (o CircularOrbit) Frame() Frame {
	return NewFrame(o.Inclination, o.RAAN)
}
