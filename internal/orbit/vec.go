// Package orbit implements the orbital-geometry substrate for the
// reference RF-geolocation constellation: circular low-earth orbits,
// sub-satellite points, footprint coverage geometry, and the coverage
// and revisit times (Tc and Tr[k]) on which the paper's analytic model
// rests.
//
// Conventions: time is measured in minutes (the paper's unit), distances
// in kilometers, and angles in radians unless a name says otherwise. The
// inertial frame is a standard ECI with the Earth's rotation axis along
// +Z.
package orbit

import "math"

// Vec3 is a 3-vector in km (positions) or km/min (velocities).
type Vec3 struct {
	X, Y, Z float64
}

// Sub returns v − w.
func (v Vec3) Sub(w Vec3) Vec3 { return Vec3{v.X - w.X, v.Y - w.Y, v.Z - w.Z} }

// Scale returns s·v.
func (v Vec3) Scale(s float64) Vec3 { return Vec3{s * v.X, s * v.Y, s * v.Z} }

// Dot returns the inner product v·w.
func (v Vec3) Dot(w Vec3) float64 { return v.X*w.X + v.Y*w.Y + v.Z*w.Z }

// Cross returns the cross product v×w.
func (v Vec3) Cross(w Vec3) Vec3 {
	return Vec3{
		v.Y*w.Z - v.Z*w.Y,
		v.Z*w.X - v.X*w.Z,
		v.X*w.Y - v.Y*w.X,
	}
}

// Norm returns the Euclidean length of v.
func (v Vec3) Norm() float64 { return math.Sqrt(v.Dot(v)) }
