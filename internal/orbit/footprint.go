package orbit

import (
	"fmt"
	"math"
)

// Footprint is the spherical cap on the earth surface visible to (covered
// by) a satellite's sensor, parameterized by its earth-central half-angle
// ψ: a surface point is inside the footprint when its great-circle
// separation from the sub-satellite point is at most ψ.
type Footprint struct {
	HalfAngle float64 // earth-central half-angle ψ, radians
}

// NewFootprint validates and constructs a footprint.
func NewFootprint(halfAngle float64) (Footprint, error) {
	if halfAngle <= 0 || halfAngle >= math.Pi/2 {
		return Footprint{}, fmt.Errorf("orbit: footprint half-angle %g rad must be in (0, π/2)", halfAngle)
	}
	return Footprint{HalfAngle: halfAngle}, nil
}

// FootprintFromCoverageTime derives the footprint half-angle from the
// paper's coverage time Tc: a point on the footprint-trajectory center
// line is covered for Tc minutes per pass, so the footprint's along-track
// angular diameter is 2ψ = n·Tc where n is the orbit's mean motion.
//
// For the reference constellation (θ = 90 min, Tc = 9 min) this gives
// ψ = 18°, i.e. a footprint diameter of about 4000 km of arc.
func FootprintFromCoverageTime(o CircularOrbit, tcMin float64) (Footprint, error) {
	if tcMin <= 0 {
		return Footprint{}, fmt.Errorf("orbit: coverage time %g min must be positive", tcMin)
	}
	half := o.MeanMotion() * tcMin / 2
	return NewFootprint(half)
}

// RadiusKm returns the footprint's surface radius in km of arc.
func (f Footprint) RadiusKm() float64 { return EarthRadiusKm * f.HalfAngle }

// MaxCoverageTime returns the center-line coverage time Tc implied by the
// footprint and orbit — the inverse of FootprintFromCoverageTime.
func (f Footprint) MaxCoverageTime(o CircularOrbit) float64 {
	return 2 * f.HalfAngle / o.MeanMotion()
}

// SlantRangeKm returns the distance from the satellite to a ground point
// at central angle sep from the sub-satellite point (law of cosines in
// the earth-center/satellite/target triangle).
func SlantRangeKm(o CircularOrbit, sep float64) float64 {
	r := o.SemiMajorAxisKm()
	return math.Sqrt(r*r + EarthRadiusKm*EarthRadiusKm - 2*r*EarthRadiusKm*math.Cos(sep))
}
