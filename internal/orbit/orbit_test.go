package orbit

import (
	"math"
	"testing"
	"testing/quick"
)

func approx(a, b, tol float64) bool {
	d := math.Abs(a - b)
	if d <= tol {
		return true
	}
	return d <= tol*math.Max(math.Abs(a), math.Abs(b))
}

func refOrbit(t *testing.T) CircularOrbit {
	t.Helper()
	o, err := NewCircularOrbit(90, 86*math.Pi/180, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	return o
}

func TestVec3Basics(t *testing.T) {
	v := Vec3{1, 2, 3}
	w := Vec3{4, 5, 6}
	if got := v.Add(w); got != (Vec3{5, 7, 9}) {
		t.Errorf("Add = %v", got)
	}
	if got := v.Sub(w); got != (Vec3{-3, -3, -3}) {
		t.Errorf("Sub = %v", got)
	}
	if got := v.Scale(2); got != (Vec3{2, 4, 6}) {
		t.Errorf("Scale = %v", got)
	}
	if got := v.Dot(w); got != 32 {
		t.Errorf("Dot = %v", got)
	}
	if got := v.Cross(w); got != (Vec3{-3, 6, -3}) {
		t.Errorf("Cross = %v", got)
	}
	if got := (Vec3{3, 4, 0}).Norm(); got != 5 {
		t.Errorf("Norm = %v", got)
	}
	u := Vec3{0, 0, 7}.Unit()
	if u != (Vec3{0, 0, 1}) {
		t.Errorf("Unit = %v", u)
	}
	if z := (Vec3{}).Unit(); z != (Vec3{}) {
		t.Errorf("Unit of zero = %v", z)
	}
}

func TestAngleBetween(t *testing.T) {
	if got := AngleBetween(Vec3{1, 0, 0}, Vec3{0, 1, 0}); !approx(got, math.Pi/2, 1e-12) {
		t.Errorf("orthogonal angle = %v", got)
	}
	if got := AngleBetween(Vec3{1, 0, 0}, Vec3{-2, 0, 0}); !approx(got, math.Pi, 1e-12) {
		t.Errorf("antiparallel angle = %v", got)
	}
	if got := AngleBetween(Vec3{1, 1, 1}, Vec3{2, 2, 2}); got != 0 {
		t.Errorf("parallel angle = %v", got)
	}
	if got := AngleBetween(Vec3{}, Vec3{1, 0, 0}); got != 0 {
		t.Errorf("zero-vector angle = %v", got)
	}
}

func TestCircularOrbitValidation(t *testing.T) {
	for _, bad := range []float64{0, -90, math.NaN(), math.Inf(1)} {
		if _, err := NewCircularOrbit(bad, 0, 0, 0); err == nil {
			t.Errorf("NewCircularOrbit(period=%v) should fail", bad)
		}
	}
}

func TestKeplerThirdLaw(t *testing.T) {
	o := refOrbit(t)
	// A 90-minute LEO sits around 280 km altitude.
	alt := o.AltitudeKm()
	if alt < 200 || alt > 350 {
		t.Errorf("altitude for 90-min orbit = %v km, want ~280", alt)
	}
	// Round trip: period from semi-major axis.
	a := o.SemiMajorAxisKm()
	period := 2 * math.Pi * math.Sqrt(a*a*a/MuKm3PerMin2)
	if !approx(period, 90, 1e-9) {
		t.Errorf("period round trip = %v, want 90", period)
	}
}

func TestOrbitRadiusConstant(t *testing.T) {
	o := refOrbit(t)
	a := o.SemiMajorAxisKm()
	for _, tm := range []float64{0, 13.7, 45, 90, 123.4} {
		r := o.PositionECI(tm).Norm()
		if !approx(r, a, 1e-9) {
			t.Errorf("radius at t=%v is %v, want %v", tm, r, a)
		}
	}
}

func TestOrbitVelocityOrthogonalAndCorrectSpeed(t *testing.T) {
	o := refOrbit(t)
	wantSpeed := o.SemiMajorAxisKm() * o.MeanMotion()
	for _, tm := range []float64{0, 10, 33.3, 80} {
		p := o.PositionECI(tm)
		v := o.VelocityECI(tm)
		if dot := p.Dot(v); math.Abs(dot) > 1e-6*p.Norm()*v.Norm() {
			t.Errorf("velocity not orthogonal to position at t=%v (dot=%v)", tm, dot)
		}
		if !approx(v.Norm(), wantSpeed, 1e-9) {
			t.Errorf("speed at t=%v = %v, want %v", tm, v.Norm(), wantSpeed)
		}
	}
}

func TestVelocityMatchesFiniteDifference(t *testing.T) {
	o := refOrbit(t)
	const h = 1e-6
	for _, tm := range []float64{5, 42} {
		num := o.PositionECI(tm + h).Sub(o.PositionECI(tm - h)).Scale(1 / (2 * h))
		ana := o.VelocityECI(tm)
		if num.Sub(ana).Norm() > 1e-3 {
			t.Errorf("finite-difference velocity mismatch at t=%v: %v vs %v", tm, num, ana)
		}
	}
}

func TestOrbitPeriodicityInertial(t *testing.T) {
	o := refOrbit(t)
	p0 := o.PositionECI(7)
	p1 := o.PositionECI(7 + 90)
	if p0.Sub(p1).Norm() > 1e-6 {
		t.Errorf("inertial position not periodic: %v vs %v", p0, p1)
	}
}

func TestInclinationBoundsLatitude(t *testing.T) {
	inc := 55 * math.Pi / 180
	o, err := NewCircularOrbit(100, inc, 1, 0.3)
	if err != nil {
		t.Fatal(err)
	}
	maxLat := 0.0
	for tm := 0.0; tm < 200; tm += 0.25 {
		lat := math.Abs(o.SubSatellite(tm).Lat)
		if lat > maxLat {
			maxLat = lat
		}
	}
	if maxLat > inc+1e-6 {
		t.Errorf("max latitude %v exceeds inclination %v", maxLat, inc)
	}
	if maxLat < inc-0.05 {
		t.Errorf("max latitude %v never approaches inclination %v", maxLat, inc)
	}
}

func TestLatLonConversions(t *testing.T) {
	p, err := FromDegrees(30, -120)
	if err != nil {
		t.Fatal(err)
	}
	lat, lon := p.Deg()
	if !approx(lat, 30, 1e-12) || !approx(lon, -120, 1e-12) {
		t.Errorf("Deg round trip = %v, %v", lat, lon)
	}
	for _, bad := range [][2]float64{{91, 0}, {-91, 0}, {0, 181}, {0, -181}, {math.NaN(), 0}, {0, math.NaN()}} {
		if _, err := FromDegrees(bad[0], bad[1]); err == nil {
			t.Errorf("FromDegrees(%v, %v) should fail", bad[0], bad[1])
		}
	}
	// ECEF of equator/prime meridian is +X.
	origin := LatLon{}
	e := origin.ECEF()
	if !approx(e.X, EarthRadiusKm, 1e-9) || math.Abs(e.Y) > 1e-9 || math.Abs(e.Z) > 1e-9 {
		t.Errorf("ECEF(0,0) = %v", e)
	}
	// North pole is +Z.
	pole := LatLon{Lat: math.Pi / 2}
	e = pole.ECEF()
	if !approx(e.Z, EarthRadiusKm, 1e-9) || math.Abs(e.X) > 1e-6 {
		t.Errorf("ECEF(pole) = %v", e)
	}
}

func TestECIRotation(t *testing.T) {
	p := LatLon{}
	// After a quarter sidereal day the point has rotated 90°.
	quarter := SiderealDayMin / 4
	e := p.ECI(quarter)
	if !approx(e.Y, EarthRadiusKm, 1e-6) || math.Abs(e.X) > 1e-6 {
		t.Errorf("ECI after quarter day = %v", e)
	}
	// At t=0, frames coincide.
	if d := p.ECI(0).Sub(p.ECEF()).Norm(); d > 1e-12 {
		t.Errorf("frames differ at epoch by %v", d)
	}
	// Ground velocity magnitude is ωR cos(lat).
	v := p.ECIVelocity(0)
	want := EarthRotationRadPerMin * EarthRadiusKm
	if !approx(v.Norm(), want, 1e-9) {
		t.Errorf("ground velocity = %v, want %v", v.Norm(), want)
	}
}

func TestGreatCircle(t *testing.T) {
	a := LatLon{}
	b := LatLon{Lon: math.Pi / 2}
	if got := GreatCircle(a, b); !approx(got, math.Pi/2, 1e-12) {
		t.Errorf("quarter turn = %v", got)
	}
	if got := GreatCircle(a, a); got != 0 {
		t.Errorf("self distance = %v", got)
	}
	pole := LatLon{Lat: math.Pi / 2}
	if got := GreatCircle(a, pole); !approx(got, math.Pi/2, 1e-12) {
		t.Errorf("equator to pole = %v", got)
	}
	if got := SurfaceDistanceKm(a, b); !approx(got, EarthRadiusKm*math.Pi/2, 1e-9) {
		t.Errorf("surface distance = %v", got)
	}
}

func TestSubPointRoundTrip(t *testing.T) {
	p, _ := FromDegrees(28.6, 77.2)
	for _, tm := range []float64{0, 100, 700} {
		got := SubPoint(p.ECI(tm), tm)
		if !approx(got.Lat, p.Lat, 1e-9) || math.Abs(normLon(got.Lon-p.Lon)) > 1e-9 {
			t.Errorf("round trip at t=%v: %v vs %v", tm, got, p)
		}
	}
	if got := SubPoint(Vec3{}, 0); got != (LatLon{}) {
		t.Errorf("SubPoint(0) = %v", got)
	}
}

func TestFootprintValidation(t *testing.T) {
	for _, bad := range []float64{0, -0.1, math.Pi / 2, 2} {
		if _, err := NewFootprint(bad); err == nil {
			t.Errorf("NewFootprint(%v) should fail", bad)
		}
	}
	o := CircularOrbit{PeriodMin: 90}
	if _, err := FootprintFromCoverageTime(o, 0); err == nil {
		t.Error("FootprintFromCoverageTime(0) should fail")
	}
}

func TestReferenceFootprintGeometry(t *testing.T) {
	// The paper's reference constellation: θ = 90 min, Tc = 9 min.
	o := refOrbit(t)
	fp, err := FootprintFromCoverageTime(o, 9)
	if err != nil {
		t.Fatal(err)
	}
	// ψ = π·Tc/θ = 18°.
	if !approx(fp.HalfAngle, 18*math.Pi/180, 1e-12) {
		t.Errorf("half-angle = %v rad, want 18°", fp.HalfAngle)
	}
	// Inverse relation recovers Tc exactly.
	if tc := fp.MaxCoverageTime(o); !approx(tc, 9, 1e-12) {
		t.Errorf("MaxCoverageTime = %v, want 9", tc)
	}
	// Coverage shrinks off the center line and vanishes beyond ψ.
	if ct := fp.CoverageTime(o, 0); !approx(ct, 9, 1e-12) {
		t.Errorf("center-line coverage = %v, want 9", ct)
	}
	mid := fp.CoverageTime(o, fp.HalfAngle/2)
	if mid <= 0 || mid >= 9 {
		t.Errorf("mid-swath coverage = %v, want in (0, 9)", mid)
	}
	if ct := fp.CoverageTime(o, fp.HalfAngle*1.01); ct != 0 {
		t.Errorf("outside-swath coverage = %v, want 0", ct)
	}
	// Sensible sensor geometry: positive nadir angle below 90°, edge
	// elevation in [0°, 90°).
	eta := fp.NadirAngle(o)
	if eta <= 0 || eta >= math.Pi/2 {
		t.Errorf("nadir angle = %v", eta)
	}
	// Slant range at footprint edge exceeds altitude and is below the
	// horizon range.
	edge := SlantRangeKm(o, fp.HalfAngle)
	if edge <= o.AltitudeKm() {
		t.Errorf("edge slant range %v <= altitude %v", edge, o.AltitudeKm())
	}
	if nadir := SlantRangeKm(o, 0); !approx(nadir, o.AltitudeKm(), 1e-9) {
		t.Errorf("nadir slant range = %v, want altitude %v", nadir, o.AltitudeKm())
	}
}

func TestFootprintCoversBySimulation(t *testing.T) {
	// A point on the ground track must be covered for ≈ Tc minutes per
	// pass, measured by propagating the orbit. (Earth rotation makes the
	// sub-track drift; use a polar orbit and a target on the equator
	// crossing so drift during one pass is second-order.)
	o, err := NewCircularOrbit(90, math.Pi/2, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	fp, err := FootprintFromCoverageTime(o, 9)
	if err != nil {
		t.Fatal(err)
	}
	target := o.SubSatellite(0)
	const dt = 0.005
	covered := 0.0
	for tm := -10.0; tm < 10; tm += dt {
		if fp.Covers(o.SubSatellite(tm), target) {
			covered += dt
		}
	}
	if !approx(covered, 9, 0.02) {
		t.Errorf("simulated coverage time = %v, want ≈9", covered)
	}
}

// Great-circle distance is a metric: symmetric, zero iff equal points
// (up to longitude wrap), and satisfies the triangle inequality.
func TestGreatCircleMetricProperty(t *testing.T) {
	mk := func(a, b float64) LatLon {
		return LatLon{
			Lat: math.Mod(a, math.Pi/2),
			Lon: math.Mod(b, math.Pi),
		}
	}
	prop := func(a1, a2, b1, b2, c1, c2 float64) bool {
		p, q, r := mk(a1, a2), mk(b1, b2), mk(c1, c2)
		dpq := GreatCircle(p, q)
		dqp := GreatCircle(q, p)
		if !approx(dpq, dqp, 1e-12) && math.Abs(dpq-dqp) > 1e-12 {
			return false
		}
		dpr := GreatCircle(p, r)
		drq := GreatCircle(r, q)
		return dpq <= dpr+drq+1e-9
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestGroundTrack(t *testing.T) {
	o := refOrbit(t)
	track := o.GroundTrack(0, 1, 91)
	if len(track) != 91 {
		t.Fatalf("len = %d", len(track))
	}
	// Successive points are separated by roughly the ground speed x step
	// (earth rotation shifts this slightly).
	d := SurfaceDistanceKm(track[0], track[1])
	want := o.GroundSpeedKmPerMin()
	if math.Abs(d-want)/want > 0.1 {
		t.Errorf("track step distance = %v km, want ≈%v", d, want)
	}
}

func BenchmarkSubSatellite(b *testing.B) {
	o, _ := NewCircularOrbit(90, math.Pi/2, 0.3, 0.1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = o.SubSatellite(float64(i % 1000))
	}
}

// Covers reports whether the target is inside the footprint centered at
// the given sub-satellite point.
func (f Footprint) Covers(subsat, target LatLon) bool {
	return GreatCircle(subsat, target) <= f.HalfAngle
}

// CoverageTime returns the time (minutes) for which a ground point at
// cross-track angular offset c from the trajectory center line is covered
// during one pass of a satellite on orbit o. A point with cos c below
// cos ψ is outside the swath and gets 0. The earth's rotation during a
// single pass (≤ Tc) is neglected, matching the paper's model.
func (f Footprint) CoverageTime(o CircularOrbit, crossTrack float64) float64 {
	cc := math.Cos(crossTrack)
	cp := math.Cos(f.HalfAngle)
	if cc <= cp {
		return 0
	}
	// Along-track half-width a of the cap at this offset:
	// cos(separation) = cos(a)·cos(c) >= cos(ψ).
	a := math.Acos(cp / cc)
	return 2 * a / o.MeanMotion()
}

// NadirAngle returns the sensor cone half-angle η (at the satellite)
// subtending the footprint edge, for a satellite at the orbit's altitude:
// tan η = sin ψ / (r/Re − cos ψ).
func (f Footprint) NadirAngle(o CircularOrbit) float64 {
	ratio := o.SemiMajorAxisKm() / EarthRadiusKm
	return math.Atan2(math.Sin(f.HalfAngle), ratio-math.Cos(f.HalfAngle))
}

// GroundSpeedKmPerMin returns the speed at which the sub-satellite point
// sweeps the (non-rotating) earth surface. The analytic model measures
// footprint geometry in time units using this sweep rate.
func (o CircularOrbit) GroundSpeedKmPerMin() float64 {
	return EarthRadiusKm * o.MeanMotion()
}

// GroundTrack samples the sub-satellite point every step minutes from t0
// for n samples.
func (o CircularOrbit) GroundTrack(t0, step float64, n int) []LatLon {
	out := make([]LatLon, n)
	for i := range out {
		out[i] = o.SubSatellite(t0 + float64(i)*step)
	}
	return out
}

// Add returns v + w.
func (v Vec3) Add(w Vec3) Vec3 { return Vec3{v.X + w.X, v.Y + w.Y, v.Z + w.Z} }

// Unit returns v normalized to length 1. The zero vector is returned
// unchanged.
func (v Vec3) Unit() Vec3 {
	n := v.Norm()
	if n == 0 {
		return v
	}
	return v.Scale(1 / n)
}

// AngleBetween returns the angle between v and w in radians, in [0, π].
func AngleBetween(v, w Vec3) float64 {
	nv, nw := v.Norm(), w.Norm()
	if nv == 0 || nw == 0 {
		return 0
	}
	c := v.Dot(w) / (nv * nw)
	// Guard against round-off pushing |c| past 1.
	if c > 1 {
		c = 1
	} else if c < -1 {
		c = -1
	}
	return math.Acos(c)
}
