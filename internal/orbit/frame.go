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
	return NewRing(p.Lat, t).UnitECI(p.Lon)
}

// Ring is what the unit inertial directions of earth-fixed points at one
// latitude and one instant share: the earth's rotation and the
// latitude's sine and cosine, so a ring of longitudes costs two
// transcendental calls per point instead of six.
type Ring struct {
	cosTheta, sinTheta float64 // earth rotation since epoch
	cosLat, sinLat     float64
}

// NewRing returns the ring at latitude lat (radians) and time t
// (minutes).
func NewRing(lat, t float64) Ring {
	theta := EarthRotationRadPerMin * t
	return Ring{
		cosTheta: math.Cos(theta), sinTheta: math.Sin(theta),
		cosLat: math.Cos(lat), sinLat: math.Sin(lat),
	}
}

// UnitECI returns the unit inertial direction of the ring's point at
// longitude lon (radians); LatLon.UnitECI is this on a ring of one.
func (r Ring) UnitECI(lon float64) Vec3 {
	ex := r.cosLat * math.Cos(lon)
	ey := r.cosLat * math.Sin(lon)
	return Vec3{
		X: r.cosTheta*ex - r.sinTheta*ey,
		Y: r.sinTheta*ex + r.cosTheta*ey,
		Z: r.sinLat,
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
