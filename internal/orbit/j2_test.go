package orbit

import (
	"fmt"
	"math"
	"testing"
)

func refJ2(t *testing.T, incDeg float64) J2Orbit {
	t.Helper()
	base, err := NewCircularOrbit(90, incDeg*math.Pi/180, 0.3, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	j2, err := NewJ2Orbit(base)
	if err != nil {
		t.Fatal(err)
	}
	return j2
}

func TestNewJ2OrbitValidation(t *testing.T) {
	if _, err := NewJ2Orbit(CircularOrbit{}); err == nil {
		t.Error("zero base orbit accepted")
	}
}

func TestNodalRegressionSignAndMagnitude(t *testing.T) {
	// Prograde (i < 90°): westward regression (negative). Retrograde:
	// positive. Polar: zero.
	pro := refJ2(t, 60)
	if pro.NodalRegressionRate() >= 0 {
		t.Errorf("prograde regression = %v, want negative", pro.NodalRegressionRate())
	}
	retro := refJ2(t, 120)
	if retro.NodalRegressionRate() <= 0 {
		t.Errorf("retrograde regression = %v, want positive", retro.NodalRegressionRate())
	}
	polar := refJ2(t, 90)
	if math.Abs(polar.NodalRegressionRate()) > 1e-15 {
		t.Errorf("polar regression = %v, want 0", polar.NodalRegressionRate())
	}
	// Textbook magnitude check: a ~500 km, 60°-inclination LEO regresses
	// about −4°/day; our 274 km, 60° orbit is somewhat faster. Convert
	// rad/min → deg/day and require the right ballpark.
	degPerDay := pro.NodalRegressionRate() * 60 * 24 * 180 / math.Pi
	if degPerDay > -3 || degPerDay < -6 {
		t.Errorf("regression = %v deg/day, want around -4", degPerDay)
	}
}

func TestReferenceInclinationNearPolarSmallDrift(t *testing.T) {
	// The reference constellation's near-polar 86° inclination keeps the
	// nodal regression under a degree per day even at its low 274 km
	// altitude (cos 86° ≈ 0.07 suppresses the cos-i factor).
	j2 := refJ2(t, 86)
	degPerDay := math.Abs(j2.NodalRegressionRate()) * 60 * 24 * 180 / math.Pi
	if degPerDay > 1 {
		t.Errorf("reference regression = %v deg/day, want < 1", degPerDay)
	}
}

func TestArgumentDriftCriticalInclination(t *testing.T) {
	// The argument-of-latitude drift vanishes at cos²i = 1/4, i.e.
	// i = 60° (note: this differs from the 63.43° apsidal critical
	// inclination, which zeroes ω̇ alone).
	crit := refJ2(t, 60)
	if math.Abs(crit.ArgumentDriftRate()) > 1e-12 {
		t.Errorf("drift at critical inclination = %v, want ≈0", crit.ArgumentDriftRate())
	}
	equatorial := refJ2(t, 0)
	if equatorial.ArgumentDriftRate() <= 0 {
		t.Errorf("equatorial drift = %v, want positive (4cos²i−1 = 3)", equatorial.ArgumentDriftRate())
	}
	polar := refJ2(t, 90)
	if polar.ArgumentDriftRate() >= 0 {
		t.Errorf("polar drift = %v, want negative (4cos²i−1 = −1)", polar.ArgumentDriftRate())
	}
}

func TestNodalPeriodCloseToKeplerian(t *testing.T) {
	j2 := refJ2(t, 86)
	if d := math.Abs(j2.NodalPeriodMin() - 90); d > 0.2 {
		t.Errorf("nodal period differs from Keplerian by %v min, want < 0.2", d)
	}
}

func TestJ2PositionContinuity(t *testing.T) {
	// The perturbed trajectory must be continuous and stay on the
	// sphere of the semi-major axis.
	j2 := refJ2(t, 86)
	a := j2.Base.SemiMajorAxisKm()
	prev := j2.PositionECI(0)
	for tm := 0.5; tm <= 200; tm += 0.5 {
		p := j2.PositionECI(tm)
		if math.Abs(p.Norm()-a) > 1e-6 {
			t.Fatalf("radius at t=%v is %v, want %v", tm, p.Norm(), a)
		}
		if p.Sub(prev).Norm() > 2*a*j2.Base.MeanMotion() {
			t.Fatalf("discontinuity at t=%v", tm)
		}
		prev = p
	}
}

func TestJ2MatchesTwoBodyAtShortHorizon(t *testing.T) {
	// Over one OAQ episode (≤ 15 minutes) the J2 sub-satellite point
	// deviates from the two-body one by well under the footprint radius
	// — the paper's justification for ignoring it.
	j2 := refJ2(t, 86)
	maxDev := 0.0
	for tm := 0.0; tm <= 15; tm += 0.5 {
		d := SurfaceDistanceKm(j2.SubSatellite(tm), j2.Base.SubSatellite(tm))
		if d > maxDev {
			maxDev = d
		}
	}
	if maxDev > 50 {
		t.Errorf("episode-scale J2 deviation = %v km, want well under the 2004 km footprint radius", maxDev)
	}
}

func TestRAANDriftOverDeploymentPeriod(t *testing.T) {
	// Over the 30000-hour scheduled-deployment period the drift is
	// substantial — quantifying why station-keeping (or the scheduled
	// re-deployment itself) must maintain the constellation geometry.
	j2 := refJ2(t, 86)
	drift := math.Abs(j2.RAANDriftOver(30000 * 60))
	if drift < 2*math.Pi/8 {
		t.Errorf("deployment-period RAAN drift = %v rad, expected substantial", drift)
	}
}

func TestRevisitDriftOver(t *testing.T) {
	j2 := refJ2(t, 86)
	if _, err := j2.RevisitDriftOver(1000, 0); err == nil {
		t.Error("zero capacity accepted")
	}
	short, err := j2.RevisitDriftOver(15, 14)
	if err != nil {
		t.Fatal(err)
	}
	if short > 0.01 {
		t.Errorf("episode-scale revisit drift = %v min, want negligible", short)
	}
	long, err := j2.RevisitDriftOver(30000*60, 14)
	if err != nil {
		t.Fatal(err)
	}
	if long <= short {
		t.Error("drift should accumulate with the horizon")
	}
}

// J2 is the earth's dominant zonal harmonic coefficient.
const J2 = 1.08262668e-3

// J2Orbit propagates a circular orbit with the secular first-order J2
// perturbations: nodal regression (RAAN drift), apsidal/argument drift,
// and the perturbed mean motion. For the reference constellation's
// 274 km, 86° orbit the nodal regression is a fraction of a degree per
// day — negligible over a single OAQ episode (minutes), which is why
// the paper's model ignores it, but visible over the months between
// ground-spare deployments. This type quantifies that gap.
//
// Secular rates (circular orbit, first order in J2):
//
//	Ω̇ = −(3/2) J2 n (Re/a)² cos i
//	u̇_extra = (3/2) J2 n (Re/a)² (4 cos²i − 1)
//
// where u̇_extra combines the apsidal and mean-anomaly corrections into
// the argument-of-latitude (along-track) drift of a circular orbit; it
// vanishes at cos²i = 1/4 (i = 60°).
type J2Orbit struct {
	Base CircularOrbit
}

// NewJ2Orbit validates and wraps a circular orbit.
func NewJ2Orbit(base CircularOrbit) (J2Orbit, error) {
	if base.PeriodMin <= 0 || math.IsNaN(base.PeriodMin) {
		return J2Orbit{}, fmt.Errorf("orbit: J2 propagation needs a valid base orbit (period %g)", base.PeriodMin)
	}
	return J2Orbit{Base: base}, nil
}

// ratioSquared returns (Re/a)².
func (o J2Orbit) ratioSquared() float64 {
	a := o.Base.SemiMajorAxisKm()
	r := EarthRadiusKm / a
	return r * r
}

// NodalRegressionRate returns Ω̇ in rad/min (negative for prograde
// orbits below 90° inclination).
func (o J2Orbit) NodalRegressionRate() float64 {
	n := o.Base.MeanMotion()
	return -1.5 * J2 * n * o.ratioSquared() * math.Cos(o.Base.Inclination)
}

// ArgumentDriftRate returns the secular drift of the argument of
// latitude beyond the two-body mean motion, in rad/min.
func (o J2Orbit) ArgumentDriftRate() float64 {
	n := o.Base.MeanMotion()
	ci := math.Cos(o.Base.Inclination)
	return 1.5 * J2 * n * o.ratioSquared() * (4*ci*ci - 1)
}

// NodalPeriodMin returns the nodal (draconic) period: the time between
// successive ascending-node crossings under the perturbed argument
// rate.
func (o J2Orbit) NodalPeriodMin() float64 {
	return 2 * math.Pi / (o.Base.MeanMotion() + o.ArgumentDriftRate())
}

// orbitAt returns the osculating circular orbit at time t, with the
// secular element drifts applied.
func (o J2Orbit) orbitAt(t float64) CircularOrbit {
	return CircularOrbit{
		PeriodMin:   o.Base.PeriodMin,
		Inclination: o.Base.Inclination,
		RAAN:        o.Base.RAAN + o.NodalRegressionRate()*t,
		Phase0:      o.Base.Phase0 + o.ArgumentDriftRate()*t,
	}
}

// PositionECI returns the J2-perturbed inertial position at time t.
func (o J2Orbit) PositionECI(t float64) Vec3 {
	return o.orbitAt(t).PositionECI(t)
}

// SubSatellite returns the J2-perturbed sub-satellite point at time t.
func (o J2Orbit) SubSatellite(t float64) LatLon {
	return SubPoint(o.PositionECI(t), t)
}

// RAANDriftOver returns the accumulated nodal regression over a span of
// minutes — e.g. the drift between two scheduled ground-spare
// deployments.
func (o J2Orbit) RAANDriftOver(spanMin float64) float64 {
	return o.NodalRegressionRate() * spanMin
}

// RevisitDriftOver returns how much the along-track revisit timing of a
// plane shifts over a span due to the J2 argument drift, expressed in
// minutes of revisit-time error accumulated for a plane with k
// satellites. It quantifies how far the paper's constant-Tr[k]
// assumption degrades over long horizons if phasing is not maintained.
func (o J2Orbit) RevisitDriftOver(spanMin float64, k int) (float64, error) {
	if k < 1 {
		return 0, fmt.Errorf("orbit: capacity k = %d must be positive", k)
	}
	// Extra argument angle accumulated, converted to time through the
	// mean motion.
	extra := math.Abs(o.ArgumentDriftRate()) * spanMin
	return extra / o.Base.MeanMotion() / float64(k), nil
}
