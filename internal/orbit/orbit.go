package orbit

import (
	"fmt"
	"math"
)

// CircularOrbit is a circular (zero-eccentricity) orbit described by its
// period, inclination, right ascension of the ascending node (RAAN), and
// the argument of latitude at epoch (the satellite's angular position
// along the orbit at t = 0, measured from the ascending node).
type CircularOrbit struct {
	PeriodMin   float64 // orbital period θ, minutes
	Inclination float64 // radians
	RAAN        float64 // radians
	Phase0      float64 // argument of latitude at epoch, radians
}

// NewCircularOrbit validates and constructs a circular orbit.
func NewCircularOrbit(periodMin, inclination, raan, phase0 float64) (CircularOrbit, error) {
	if periodMin <= 0 || math.IsNaN(periodMin) || math.IsInf(periodMin, 0) {
		return CircularOrbit{}, fmt.Errorf("orbit: period %g min must be positive and finite", periodMin)
	}
	return CircularOrbit{
		PeriodMin:   periodMin,
		Inclination: inclination,
		RAAN:        raan,
		Phase0:      phase0,
	}, nil
}

// SemiMajorAxisKm returns the orbit radius implied by the period through
// Kepler's third law: a = (µ (T/2π)²)^(1/3).
func (o CircularOrbit) SemiMajorAxisKm() float64 {
	n := 2 * math.Pi / o.PeriodMin // mean motion, rad/min
	return math.Cbrt(MuKm3PerMin2 / (n * n))
}

// AltitudeKm returns the orbital altitude above the spherical earth.
func (o CircularOrbit) AltitudeKm() float64 {
	return o.SemiMajorAxisKm() - EarthRadiusKm
}

// MeanMotion returns the angular rate of the satellite along its orbit in
// rad/min.
func (o CircularOrbit) MeanMotion() float64 {
	return 2 * math.Pi / o.PeriodMin
}

// argumentOfLatitude returns the along-track angle at time t.
func (o CircularOrbit) argumentOfLatitude(t float64) float64 {
	return o.Phase0 + o.MeanMotion()*t
}

// PositionECI returns the inertial position at time t (minutes).
func (o CircularOrbit) PositionECI(t float64) Vec3 {
	return o.perifocalToECI(o.argumentOfLatitude(t)).Scale(o.SemiMajorAxisKm())
}

// VelocityECI returns the inertial velocity at time t in km/min.
func (o CircularOrbit) VelocityECI(t float64) Vec3 {
	u := o.argumentOfLatitude(t)
	// d/dt of the position direction is n × (unit vector advanced 90°).
	speed := o.SemiMajorAxisKm() * o.MeanMotion()
	return o.perifocalToECI(u + math.Pi/2).Scale(speed)
}

// perifocalToECI maps a unit position at argument-of-latitude u into the
// inertial frame through the 3-1-3 rotation (RAAN, inclination).
func (o CircularOrbit) perifocalToECI(u float64) Vec3 {
	cu, su := math.Cos(u), math.Sin(u)
	ci, si := math.Cos(o.Inclination), math.Sin(o.Inclination)
	cO, sO := math.Cos(o.RAAN), math.Sin(o.RAAN)
	// In-plane unit vector (cu, su, 0) rotated by inclination about X,
	// then by RAAN about Z.
	x := cO*cu - sO*su*ci
	y := sO*cu + cO*su*ci
	z := su * si
	return Vec3{X: x, Y: y, Z: z}
}

// SubSatellite returns the sub-satellite point at time t on the rotating
// earth.
func (o CircularOrbit) SubSatellite(t float64) LatLon {
	return SubPoint(o.PositionECI(t), t)
}
