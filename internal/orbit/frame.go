package orbit

import "math"

// Frame is the orthonormal in-plane basis of a circular orbit's plane in
// the inertial frame: the unit position of a satellite at argument of
// latitude u is P·cos u + Q·sin u. Caching a Frame turns the per-query
// 3-1-3 rotation (two sincos calls for RAAN and inclination) into six
// multiplications, which is what lets a constellation-wide coverage scan
// generate every in-plane satellite position from one anchor angle by
// the angle-addition recurrence with no per-satellite transcendentals.
type Frame struct {
	P, Q Vec3
}

// NewFrame builds the plane basis for the given inclination and RAAN
// (radians). It agrees with CircularOrbit.PositionECI: P is the unit
// vector toward the ascending node and Q the in-plane normal 90° ahead.
func NewFrame(inclination, raan float64) Frame {
	si, ci := math.Sincos(inclination)
	sO, cO := math.Sincos(raan)
	return Frame{
		P: Vec3{X: cO, Y: sO, Z: 0},
		Q: Vec3{X: -sO * ci, Y: cO * ci, Z: si},
	}
}

// UnitPosition returns the unit inertial position at the argument of
// latitude whose cosine and sine are given. Passing precomputed
// (cos u, sin u) pairs — e.g. advanced by an angle-addition recurrence —
// keeps the call free of transcendental functions.
func (f Frame) UnitPosition(cosU, sinU float64) Vec3 {
	return Vec3{
		X: f.P.X*cosU + f.Q.X*sinU,
		Y: f.P.Y*cosU + f.Q.Y*sinU,
		Z: f.Q.Z * sinU,
	}
}

// UnitECI returns the unit inertial direction of the earth-fixed surface
// point at time t (minutes): LatLon.ECI(t) normalized to length 1. The
// dot product of two unit directions is the cosine of their central
// angle, so coverage tests against a footprint half-angle ψ reduce to
// one comparison with a precomputed cos ψ — no acos on the hot path.
func (p LatLon) UnitECI(t float64) Vec3 {
	theta := EarthRotationRadPerMin * t
	cl := math.Cos(p.Lat)
	ex := cl * math.Cos(p.Lon)
	ey := cl * math.Sin(p.Lon)
	c, s := math.Cos(theta), math.Sin(theta)
	return Vec3{
		X: c*ex - s*ey,
		Y: s*ex + c*ey,
		Z: math.Sin(p.Lat),
	}
}

// PeriodMinFromAltitudeKm returns the circular-orbit period (minutes)
// at the given altitude above the spherical earth, by Kepler's third
// law — the inverse of CircularOrbit.AltitudeKm. It parameterizes the
// Walker-constellation presets, whose designs are specified by altitude
// rather than period.
func PeriodMinFromAltitudeKm(altKm float64) float64 {
	a := EarthRadiusKm + altKm
	return 2 * math.Pi * math.Sqrt(a*a*a/MuKm3PerMin2)
}
