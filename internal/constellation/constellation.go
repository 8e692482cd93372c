// Package constellation models the paper's reference RF-geolocation
// constellation (Collins et al., JPL D-25994): seven orbital planes, each
// with 14 active micro-satellites and two in-orbit spares, protected by
// scheduled and threshold-triggered ground-spare deployment policies.
//
// The package captures the structural-degradation behavior of §2 of the
// paper: when a plane loses satellites after exhausting its spares, the
// survivors undergo a phasing adjustment that redistributes them evenly,
// stretching the revisit time Tr[k] = θ/k until footprints underlap
// (Tr[k] ≥ Tc).
//
// Beyond the reference design, Config parameterizes general Walker
// star/delta constellations (RAAN spread π vs 2π, integer phasing factor
// F), with named presets up to Starlink scale (presets.go), and Scanner
// provides a structure-of-arrays coverage scan that sustains those
// designs: one anchor angle per plane per time step, every in-plane
// position by trigonometric recurrence, coverage decided by a dot
// product against a precomputed cos ψ (scanner.go).
package constellation

import (
	"fmt"
	"math"

	"satqos/internal/orbit"
)

// Config describes a constellation. The zero value is not valid; start
// from DefaultConfig.
type Config struct {
	// Planes is the number of orbital planes.
	Planes int
	// ActivePerPlane is the number of satellites intended to be active in
	// service in each plane.
	ActivePerPlane int
	// SparesPerPlane is the number of in-orbit spares per plane.
	SparesPerPlane int
	// PeriodMin is the orbital period θ in minutes.
	PeriodMin float64
	// InclinationDeg is the orbital inclination in degrees.
	InclinationDeg float64
	// CoverageTimeMin is the single-satellite coverage time Tc in minutes
	// (the footprint's along-track diameter measured in time units).
	CoverageTimeMin float64
	// InterPlanePhaseFrac staggers the phase of plane i by
	// i·InterPlanePhaseFrac·(2π/ActivePerPlane) (a Walker-style phasing
	// factor in [0, 1)). For a classical Walker i:T/P/F design with
	// integer phasing factor F, set it to F/Planes (WalkerConfig does).
	InterPlanePhaseFrac float64
	// Walker selects the RAAN layout of the planes: WalkerStar (the zero
	// value, ascending nodes spread over π — the reference design and the
	// polar mega-constellations) or WalkerDelta (spread over 2π — the
	// inclined Starlink-style shells).
	Walker WalkerKind
}

// DefaultConfig returns the reference constellation of the paper:
// 7 planes × (14 active + 2 spares), θ = 90 min, Tc = 9 min.
func DefaultConfig() Config {
	return Config{
		Planes:              7,
		ActivePerPlane:      14,
		SparesPerPlane:      2,
		PeriodMin:           90,
		InclinationDeg:      86,
		CoverageTimeMin:     9,
		InterPlanePhaseFrac: 0.5,
	}
}

// Validate checks the configuration for consistency.
func (c Config) Validate() error {
	switch {
	case c.Planes < 1:
		return fmt.Errorf("constellation: %d planes, need at least 1", c.Planes)
	case c.ActivePerPlane < 1:
		return fmt.Errorf("constellation: %d active satellites per plane, need at least 1", c.ActivePerPlane)
	case c.SparesPerPlane < 0:
		return fmt.Errorf("constellation: negative spares per plane %d", c.SparesPerPlane)
	case c.PeriodMin <= 0 || math.IsNaN(c.PeriodMin):
		return fmt.Errorf("constellation: period %g min must be positive", c.PeriodMin)
	case !c.footprintFits():
		return fmt.Errorf("constellation: coverage time %g min must be in (0, period/2)", c.CoverageTimeMin)
	case c.InclinationDeg < 0 || c.InclinationDeg > 180:
		return fmt.Errorf("constellation: inclination %g° outside [0, 180]", c.InclinationDeg)
	case c.InterPlanePhaseFrac < 0 || c.InterPlanePhaseFrac >= 1:
		return fmt.Errorf("constellation: inter-plane phase fraction %g outside [0, 1)", c.InterPlanePhaseFrac)
	case !c.Walker.Valid():
		return fmt.Errorf("constellation: unknown Walker kind %d", int(c.Walker))
	}
	return nil
}

// footprintFits reports whether the coverage time gives the footprint
// half-angle ψ = π·Tc/θ a value in (0, π/2), that is 0 < Tc < θ/2. It
// derives ψ with the arithmetic newPlane uses, so a Tc one rounding
// below θ/2 cannot pass here and fail there.
func (c Config) footprintFits() bool {
	if !(c.CoverageTimeMin > 0) {
		return false // also NaN, which the footprint check would pass
	}
	_, err := orbit.FootprintFromCoverageTime(orbit.CircularOrbit{PeriodMin: c.PeriodMin}, c.CoverageTimeMin)
	return err == nil
}

// TotalSatellites returns the fully populated satellite count (actives
// plus in-orbit spares across all planes); 112 for the reference design.
func (c Config) TotalSatellites() int {
	return c.Planes * (c.ActivePerPlane + c.SparesPerPlane)
}

// Constellation is a mutable constellation whose planes degrade as
// satellites fail and recover as deployment policies fire.
type Constellation struct {
	cfg    Config
	planes []*Plane
}

// New builds a fully populated constellation.
func New(cfg Config) (*Constellation, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	c := &Constellation{cfg: cfg}
	c.planes = make([]*Plane, cfg.Planes)
	for i := range c.planes {
		c.planes[i] = newPlane(cfg, i)
	}
	return c, nil
}

// Config returns the configuration the constellation was built with.
func (c *Constellation) Config() Config { return c.cfg }

// Planes returns the number of planes.
func (c *Constellation) Planes() int { return len(c.planes) }

// Plane returns plane i.
func (c *Constellation) Plane(i int) (*Plane, error) {
	if i < 0 || i >= len(c.planes) {
		return nil, fmt.Errorf("constellation: plane %d out of range [0, %d)", i, len(c.planes))
	}
	return c.planes[i], nil
}

// ActiveSatellites returns the total number of active satellites across
// all planes.
func (c *Constellation) ActiveSatellites() int {
	n := 0
	for _, p := range c.planes {
		n += p.ActiveCount()
	}
	return n
}

// DeployScheduled restores every plane to full capacity — the paper's
// scheduled ground-spare deployment, which launches by calendar (period
// φ) to restore the constellation to its original 112 satellites.
func (c *Constellation) DeployScheduled() {
	for _, p := range c.planes {
		p.RestoreFull()
	}
}

// SatView describes one satellite's relationship to a ground target at a
// queried time.
type SatView struct {
	Plane, Index  int
	SubPoint      orbit.LatLon
	Separation    float64 // great-circle angle to target, radians
	Covers        bool
	SlantRangeKm  float64
	TimeToRevisit float64 // minutes until this plane's next footprint-center passage
}

// CoveringSatellites reports, for every active satellite, its view of the
// target at time t, ordered plane-major. Callers filter on Covers for
// simultaneous-coverage questions.
func (c *Constellation) CoveringSatellites(target orbit.LatLon, t float64) []SatView {
	return c.AppendCoveringSatellites(nil, target, t)
}

// AppendCoveringSatellites appends every active satellite's view of the
// target at time t to dst and returns the extended slice, in the same
// plane-major order as CoveringSatellites. Passing a reused buffer
// (dst[:0]) makes repeated coverage scans — the mission engine queries
// every coverScanStep — allocation-free once the buffer has grown to
// the fleet size.
func (c *Constellation) AppendCoveringSatellites(dst []SatView, target orbit.LatLon, t float64) []SatView {
	for pi, p := range c.planes {
		half := p.Footprint().HalfAngle
		for si := 0; si < p.ActiveCount(); si++ {
			o := p.ActiveOrbit(si)
			sub := o.SubSatellite(t)
			sep := orbit.GreatCircle(sub, target)
			dst = append(dst, SatView{
				Plane:        pi,
				Index:        si,
				SubPoint:     sub,
				Separation:   sep,
				Covers:       sep <= half,
				SlantRangeKm: orbit.SlantRangeKm(o, sep),
			})
		}
	}
	return dst
}

// SimultaneousCoverageCount returns how many active satellites cover the
// target at time t. It scans the fleet directly, without materializing
// the views.
func (c *Constellation) SimultaneousCoverageCount(target orbit.LatLon, t float64) int {
	n := 0
	for _, p := range c.planes {
		half := p.Footprint().HalfAngle
		for si := 0; si < p.ActiveCount(); si++ {
			sub := p.ActiveOrbit(si).SubSatellite(t)
			if orbit.GreatCircle(sub, target) <= half {
				n++
			}
		}
	}
	return n
}
