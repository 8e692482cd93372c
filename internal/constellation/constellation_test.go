package constellation

import (
	"math"
	"testing"
	"testing/quick"

	"satqos/internal/orbit"
)

func mustNew(t *testing.T) *Constellation {
	t.Helper()
	c, err := New(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestConfigValidate(t *testing.T) {
	if err := DefaultConfig().Validate(); err != nil {
		t.Fatalf("default config rejected: %v", err)
	}
	mutations := []func(*Config){
		func(c *Config) { c.Planes = 0 },
		func(c *Config) { c.ActivePerPlane = 0 },
		func(c *Config) { c.SparesPerPlane = -1 },
		func(c *Config) { c.PeriodMin = 0 },
		func(c *Config) { c.PeriodMin = math.NaN() },
		func(c *Config) { c.CoverageTimeMin = 0 },
		func(c *Config) { c.CoverageTimeMin = 90 },
		func(c *Config) { c.InclinationDeg = -1 },
		func(c *Config) { c.InclinationDeg = 181 },
		func(c *Config) { c.InterPlanePhaseFrac = 1 },
		func(c *Config) { c.InterPlanePhaseFrac = -0.1 },
	}
	for i, mutate := range mutations {
		cfg := DefaultConfig()
		mutate(&cfg)
		if err := cfg.Validate(); err == nil {
			t.Errorf("mutation %d accepted: %+v", i, cfg)
		}
		if _, err := New(cfg); err == nil {
			t.Errorf("New accepted mutation %d", i)
		}
	}
}

// TestValidatedConfigsBuild: every config Validate accepts builds with
// New without a panic. The footprint half-angle π·Tc/θ reaches π/2 at
// Tc = θ/2, and one rounding below that boundary can already reach it.
func TestValidatedConfigsBuild(t *testing.T) {
	// check reports whether Validate accepted (θ, Tc), and fails the test
	// when it did but New then panicked or failed.
	check := func(period, tc float64) (valid bool) {
		t.Helper()
		cfg := DefaultConfig()
		cfg.PeriodMin, cfg.CoverageTimeMin = period, tc
		if cfg.Validate() != nil {
			return false
		}
		defer func() {
			if r := recover(); r != nil {
				t.Errorf("θ=%g, Tc=%g: Validate accepted, New panicked: %v", period, tc, r)
			}
		}()
		if _, err := New(cfg); err != nil {
			t.Errorf("θ=%g, Tc=%g: Validate accepted, New failed: %v", period, tc, err)
		}
		return true
	}
	for _, c := range []struct {
		name       string
		period, tc float64
		valid      bool
	}{
		{"reference", 90, 9, true},
		{"tc=0.4θ", 90, 36, true},
		{"tc=0.5θ", 90, 45, false},
		{"tc=0.6θ", 90, 54, false},
		{"tc=θ", 90, 90, false},
		{"tc NaN", 90, math.NaN(), false},
		{"period +Inf", math.Inf(1), 9, false},
		{"tc one ulp under θ/2, ψ rounds to π/2", 1578, math.Nextafter(789, 0), false},
		{"tc one ulp under θ/2, ψ below π/2", 90, math.Nextafter(45, 0), true},
	} {
		if got := check(c.period, c.tc); got != c.valid {
			t.Errorf("%s (θ=%g, Tc=%g): Validate accepted %v, want %v", c.name, c.period, c.tc, got, c.valid)
		}
	}
	// One ulp under θ/2, ψ rounds to π/2 for some periods and not others.
	accepted := 0
	for period := 1.0; period <= 400; period++ {
		if check(period, math.Nextafter(period/2, 0)) {
			accepted++
		}
	}
	if accepted == 0 || accepted == 400 {
		t.Fatalf("%d of 400 one-ulp-under configs accepted: boundary not exercised", accepted)
	}
}

func TestReferenceConstellationShape(t *testing.T) {
	c := mustNew(t)
	// §2: 98 active satellites and 14 in-orbit spares, 112 total.
	if got := c.ActiveSatellites(); got != 98 {
		t.Errorf("active satellites = %d, want 98", got)
	}
	if got := c.Config().TotalSatellites(); got != 112 {
		t.Errorf("total satellites = %d, want 112", got)
	}
	if c.Planes() != 7 {
		t.Errorf("planes = %d, want 7", c.Planes())
	}
	p, err := c.Plane(0)
	if err != nil {
		t.Fatal(err)
	}
	if p.ActiveCount() != 14 || p.SpareCount() != 2 {
		t.Errorf("plane 0: %d active, %d spares", p.ActiveCount(), p.SpareCount())
	}
	if _, err := c.Plane(7); err == nil {
		t.Error("out-of-range plane accepted")
	}
	if _, err := c.Plane(-1); err == nil {
		t.Error("negative plane accepted")
	}
}

func TestRevisitAndOverlap(t *testing.T) {
	c := mustNew(t)
	p, _ := c.Plane(0)
	// Full plane: Tr[14] = 90/14 < 9 → overlapping.
	if !p.Overlapping() {
		t.Error("full plane should overlap")
	}
	if got := p.RevisitTime(); !closeTo(got, 90.0/14, 1e-12) {
		t.Errorf("Tr[14] = %v", got)
	}
	// Fail down to k = 10 (2 spares + 4 capacity losses = 6 failures).
	for i := 0; i < 6; i++ {
		if err := p.FailActive(); err != nil {
			t.Fatal(err)
		}
	}
	if p.ActiveCount() != 10 {
		t.Fatalf("after 6 failures: k = %d, want 10", p.ActiveCount())
	}
	if p.Overlapping() {
		t.Error("k = 10 should underlap (Tr = Tc)")
	}
	if got := p.RevisitTime(); !closeTo(got, 9, 1e-12) {
		t.Errorf("Tr[10] = %v, want 9", got)
	}
	if got := p.RevisitTimeAt(12); !closeTo(got, 7.5, 1e-12) {
		t.Errorf("Tr[12] = %v", got)
	}
	if !math.IsInf(p.RevisitTimeAt(0), 1) {
		t.Error("Tr[0] should be +Inf")
	}
}

func TestSparesAbsorbFirstFailures(t *testing.T) {
	c := mustNew(t)
	p, _ := c.Plane(3)
	for i := 0; i < 2; i++ {
		if err := p.FailActive(); err != nil {
			t.Fatal(err)
		}
		if p.ActiveCount() != 14 {
			t.Fatalf("failure %d: capacity dropped to %d with spares available", i, p.ActiveCount())
		}
	}
	if p.SpareCount() != 0 {
		t.Errorf("spares = %d, want 0", p.SpareCount())
	}
	if p.SpareSwaps() != 2 {
		t.Errorf("spare swaps = %d, want 2", p.SpareSwaps())
	}
	if p.PhasingAdjustments() != 0 {
		t.Errorf("phasing adjustments = %d, want 0 while spares absorb", p.PhasingAdjustments())
	}
	// Third failure shrinks the ring and triggers a re-phasing.
	if err := p.FailActive(); err != nil {
		t.Fatal(err)
	}
	if p.ActiveCount() != 13 || p.PhasingAdjustments() != 1 {
		t.Errorf("after spare exhaustion: k = %d, re-phasings = %d", p.ActiveCount(), p.PhasingAdjustments())
	}
	if p.Failures() != 3 {
		t.Errorf("failures = %d, want 3", p.Failures())
	}
}

func TestFailToEmptyAndRestore(t *testing.T) {
	cfg := DefaultConfig()
	cfg.ActivePerPlane = 2
	cfg.SparesPerPlane = 0
	cfg.Planes = 1
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	p, _ := c.Plane(0)
	if err := p.FailActive(); err != nil {
		t.Fatal(err)
	}
	if err := p.FailActive(); err != nil {
		t.Fatal(err)
	}
	if p.ActiveCount() != 0 {
		t.Fatalf("k = %d, want 0", p.ActiveCount())
	}
	if !math.IsInf(p.RevisitTime(), 1) {
		t.Error("empty plane revisit should be +Inf")
	}
	if err := p.FailActive(); err == nil {
		t.Error("failing an empty plane accepted")
	}
	p.RestoreFull()
	if p.ActiveCount() != 2 || p.GroundDeploys() != 1 {
		t.Errorf("restore: k = %d, deploys = %d", p.ActiveCount(), p.GroundDeploys())
	}
	// Restoring a full plane is a no-op (no deploy counted).
	p.RestoreFull()
	if p.GroundDeploys() != 1 {
		t.Errorf("no-op restore counted: %d", p.GroundDeploys())
	}
}

func TestDeployScheduledRestoresAllPlanes(t *testing.T) {
	c := mustNew(t)
	for i := 0; i < c.Planes(); i++ {
		p, _ := c.Plane(i)
		for j := 0; j < 4; j++ {
			if err := p.FailActive(); err != nil {
				t.Fatal(err)
			}
		}
	}
	if c.ActiveSatellites() == 98 {
		t.Fatal("failures had no effect")
	}
	c.DeployScheduled()
	if c.ActiveSatellites() != 98 {
		t.Errorf("after scheduled deploy: %d active, want 98", c.ActiveSatellites())
	}
}

func TestAtThreshold(t *testing.T) {
	c := mustNew(t)
	p, _ := c.Plane(0)
	if p.AtThreshold(10) {
		t.Error("full plane at threshold")
	}
	for i := 0; i < 6; i++ {
		_ = p.FailActive()
	}
	if !p.AtThreshold(10) {
		t.Error("k = 10 should be at threshold 10")
	}
	if !p.AtThreshold(12) {
		t.Error("k = 10 should be at threshold 12 (<=)")
	}
}

func TestActiveOrbitsEvenPhasing(t *testing.T) {
	c := mustNew(t)
	p, _ := c.Plane(2)
	orbits := p.ActiveOrbits()
	if len(orbits) != 14 {
		t.Fatalf("orbits = %d, want 14", len(orbits))
	}
	// Even phasing: successive phase differences all equal 2π/14.
	want := 2 * math.Pi / 14
	for i := 1; i < len(orbits); i++ {
		d := orbits[i].Phase0 - orbits[i-1].Phase0
		if !closeTo(d, want, 1e-12) {
			t.Errorf("phase gap %d = %v, want %v", i, d, want)
		}
	}
	// All orbits share the plane's RAAN.
	for i, o := range orbits {
		if o.RAAN != p.RAAN() {
			t.Errorf("orbit %d RAAN = %v, want %v", i, o.RAAN, p.RAAN())
		}
	}
	// After capacity loss, re-phased gaps widen to 2π/k.
	for i := 0; i < 6; i++ {
		_ = p.FailActive()
	}
	orbits = p.ActiveOrbits()
	if len(orbits) != 10 {
		t.Fatalf("orbits after failures = %d, want 10", len(orbits))
	}
	want = 2 * math.Pi / 10
	for i := 1; i < len(orbits); i++ {
		d := orbits[i].Phase0 - orbits[i-1].Phase0
		if !closeTo(d, want, 1e-12) {
			t.Errorf("re-phased gap %d = %v, want %v", i, d, want)
		}
	}
}

// The two geometric constants the analytic model consumes must emerge
// from the actual orbital geometry: the revisit interval between
// successive footprint-center passages equals Tr[k] = θ/k.
func TestRevisitTimeBySimulation(t *testing.T) {
	c := mustNew(t)
	p, _ := c.Plane(0)
	orbits := p.ActiveOrbits()
	// Pick the sub-satellite point of satellite 0 at t = 0 as the target;
	// satellite k-1 (phased just behind, one slot earlier in along-track
	// terms) passes it Tr later in inertial terms. Compare the angular
	// separation swept: mean motion × Tr = slot angle.
	slotAngle := 2 * math.Pi / float64(len(orbits))
	sweep := orbits[0].MeanMotion() * p.RevisitTime()
	if !closeTo(sweep, slotAngle, 1e-12) {
		t.Errorf("mean motion × Tr = %v, want slot angle %v", sweep, slotAngle)
	}
}

func TestCoveringSatellites(t *testing.T) {
	c := mustNew(t)
	p, _ := c.Plane(0)
	orbits := p.ActiveOrbits()
	// Target directly under satellite 0 of plane 0 at t = 0 must be
	// covered by that satellite.
	target := orbits[0].SubSatellite(0)
	views := c.CoveringSatellites(target, 0)
	if len(views) != 98 {
		t.Fatalf("views = %d, want 98", len(views))
	}
	var selfCovered bool
	for _, v := range views {
		if v.Plane == 0 && v.Index == 0 {
			if !v.Covers {
				t.Error("satellite directly overhead does not cover its sub-point")
			}
			if v.Separation > 1e-9 {
				t.Errorf("separation = %v, want 0", v.Separation)
			}
			selfCovered = true
			if !closeTo(v.SlantRangeKm, orbits[0].AltitudeKm(), 1e-6) {
				t.Errorf("slant range = %v, want altitude %v", v.SlantRangeKm, orbits[0].AltitudeKm())
			}
		}
	}
	if !selfCovered {
		t.Fatal("satellite (0, 0) missing from views")
	}
	if got := c.SimultaneousCoverageCount(target, 0); got < 1 {
		t.Errorf("coverage count = %d, want >= 1", got)
	}
}

// Full-constellation earth coverage (§2, Figure 1): with 98 active
// satellites every sampled earth location is covered by at least one
// footprint.
func TestFullEarthCoverage(t *testing.T) {
	c := mustNew(t)
	uncovered := 0
	samples := 0
	for latDeg := -80.0; latDeg <= 80; latDeg += 8 {
		for lonDeg := -180.0; lonDeg < 180; lonDeg += 10 {
			target, err := orbit.FromDegrees(latDeg, lonDeg)
			if err != nil {
				t.Fatal(err)
			}
			samples++
			if c.SimultaneousCoverageCount(target, 3) == 0 {
				uncovered++
			}
		}
	}
	if frac := float64(uncovered) / float64(samples); frac > 0.02 {
		t.Errorf("%d/%d sampled locations uncovered (%.1f%%)", uncovered, samples, 100*frac)
	}
}

// High latitudes see more overlapped coverage than the equator (§4.1:
// the overlap ratio is lowest at the equator, highest at the poles).
func TestLatitudeCoverageGradient(t *testing.T) {
	c := mustNew(t)
	avgCover := func(latDeg float64) float64 {
		total := 0
		n := 0
		for lonDeg := -180.0; lonDeg < 180; lonDeg += 6 {
			target, err := orbit.FromDegrees(latDeg, lonDeg)
			if err != nil {
				t.Fatal(err)
			}
			for _, tm := range []float64{0, 22.5, 45} {
				total += c.SimultaneousCoverageCount(target, tm)
				n++
			}
		}
		return float64(total) / float64(n)
	}
	equator := avgCover(0)
	high := avgCover(70)
	if high <= equator {
		t.Errorf("high-latitude mean coverage %v should exceed equatorial %v", high, equator)
	}
}

// Capacity bookkeeping invariant: active count never exceeds the
// configured maximum and never goes negative under arbitrary
// fail/restore sequences.
func TestCapacityInvariantProperty(t *testing.T) {
	prop := func(ops []bool) bool {
		cfg := DefaultConfig()
		cfg.Planes = 1
		c, err := New(cfg)
		if err != nil {
			return false
		}
		p, _ := c.Plane(0)
		for _, fail := range ops {
			if fail {
				_ = p.FailActive() // error at k=0 is fine
			} else {
				p.RestoreFull()
			}
			if p.ActiveCount() < 0 || p.ActiveCount() > cfg.ActivePerPlane {
				return false
			}
			if p.SpareCount() < 0 || p.SpareCount() > cfg.SparesPerPlane {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func closeTo(a, b, tol float64) bool {
	d := math.Abs(a - b)
	if d <= tol {
		return true
	}
	return d <= tol*math.Max(math.Abs(a), math.Abs(b))
}

func BenchmarkCoveringSatellites(b *testing.B) {
	c, err := New(DefaultConfig())
	if err != nil {
		b.Fatal(err)
	}
	target, err := orbit.FromDegrees(30, -100)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = c.CoveringSatellites(target, float64(i%90))
	}
}
