package constellation

import (
	"fmt"
	"math"

	"satqos/internal/orbit"
)

// Plane is one orbital plane: a ring of active satellites, evenly phased,
// plus a pool of in-orbit spares. Failures consume spares first; once the
// spares are exhausted, further failures shrink the active ring and the
// survivors are re-phased evenly (the paper's "phasing adjustment").
type Plane struct {
	cfg      Config
	index    int
	raan     float64
	phaseRef float64

	// Geometry cached at construction: the footprint (whose half-angle
	// depends only on the shared period and Tc, both immutable) and the
	// plane's rotation frame (inclination and RAAN never change). Queries
	// read these instead of rebuilding a CircularOrbit per call.
	fp    orbit.Footprint
	frame orbit.Frame

	active int
	spares int

	// Counters for reporting.
	failures        int
	spareSwaps      int
	groundDeploys   int
	phasingAdjusted int
}

func newPlane(cfg Config, index int) *Plane {
	raan := cfg.Walker.RAANSpread() * float64(index) / float64(cfg.Planes)
	p := &Plane{
		cfg:      cfg,
		index:    index,
		raan:     raan,
		phaseRef: 2 * math.Pi / float64(cfg.ActivePerPlane) * cfg.InterPlanePhaseFrac * float64(index),
		frame:    orbit.NewFrame(cfg.InclinationDeg*math.Pi/180, raan),
		active:   cfg.ActivePerPlane,
		spares:   cfg.SparesPerPlane,
	}
	o := p.referenceOrbit(0)
	fp, err := orbit.FootprintFromCoverageTime(o, cfg.CoverageTimeMin)
	if err != nil {
		// Config was validated at construction, and footprintFits
		// derives this same footprint.
		panic(fmt.Sprintf("constellation: invalid footprint from validated config: %v", err))
	}
	p.fp = fp
	return p
}

// ActiveCount returns k, the number of active operational satellites.
func (p *Plane) ActiveCount() int { return p.active }

// SpareCount returns the remaining in-orbit spares.
func (p *Plane) SpareCount() int { return p.spares }

// SpareSwaps returns how many failures were absorbed by in-orbit spares.
func (p *Plane) SpareSwaps() int { return p.spareSwaps }

// PhasingAdjustments returns how many times survivors were re-phased.
func (p *Plane) PhasingAdjustments() int { return p.phasingAdjusted }

// RevisitTime returns Tr[k] = θ/k for the current plane capacity. With
// no active satellites the revisit time is +Inf (the plane provides no
// coverage).
func (p *Plane) RevisitTime() float64 {
	if p.active == 0 {
		return math.Inf(1)
	}
	return p.cfg.PeriodMin / float64(p.active)
}

// RevisitTimeAt returns Tr[k] for a hypothetical capacity k.
func (p *Plane) RevisitTimeAt(k int) float64 {
	if k <= 0 {
		return math.Inf(1)
	}
	return p.cfg.PeriodMin / float64(k)
}

// Overlapping reports whether the plane's footprints currently overlap
// (Tr[k] < Tc). Equality counts as underlapping, exactly as in the
// paper's indicator I[k].
func (p *Plane) Overlapping() bool {
	return p.RevisitTime() < p.cfg.CoverageTimeMin
}

// Footprint returns the coverage footprint of this plane's satellites,
// cached at construction (the half-angle depends only on the immutable
// period and coverage time, not on the plane's degradation state).
func (p *Plane) Footprint() orbit.Footprint { return p.fp }

func (p *Plane) referenceOrbit(phase float64) orbit.CircularOrbit {
	o, err := orbit.NewCircularOrbit(p.cfg.PeriodMin, p.cfg.InclinationDeg*math.Pi/180, p.raan, phase)
	if err != nil {
		panic(fmt.Sprintf("constellation: invalid orbit from validated config: %v", err))
	}
	return o
}

// ActiveOrbits returns the orbits of the currently active satellites,
// evenly phased around the ring. Index i of the result identifies the
// satellite within the plane until the next phasing adjustment.
func (p *Plane) ActiveOrbits() []orbit.CircularOrbit {
	orbits := make([]orbit.CircularOrbit, p.active)
	for i := range orbits {
		orbits[i] = p.ActiveOrbit(i)
	}
	return orbits
}

// ActiveOrbit returns the orbit of active satellite i without
// materializing the whole ring — the allocation-free counterpart of
// ActiveOrbits()[i] for per-satellite queries in scan loops.
func (p *Plane) ActiveOrbit(i int) orbit.CircularOrbit {
	if i < 0 || i >= p.active {
		panic(fmt.Sprintf("constellation: active satellite %d out of range [0, %d)", i, p.active))
	}
	phase := p.phaseRef + 2*math.Pi*float64(i)/float64(p.active)
	return p.referenceOrbit(phase)
}

// FailActive removes one active satellite. If an in-orbit spare remains
// it is deployed in place (capacity unchanged); otherwise the plane loses
// capacity and the survivors are re-phased. Failing an empty plane is an
// error.
func (p *Plane) FailActive() error {
	if p.active == 0 {
		return fmt.Errorf("constellation: plane %d has no active satellites to fail", p.index)
	}
	p.failures++
	if p.spares > 0 {
		p.spares--
		p.spareSwaps++
		return nil
	}
	p.active--
	p.phasingAdjusted++
	return nil
}

// RestoreFull returns the plane to its original capacity (ActivePerPlane
// actives and SparesPerPlane in-orbit spares) — the effect of a
// ground-spare deployment.
func (p *Plane) RestoreFull() {
	if p.active == p.cfg.ActivePerPlane && p.spares == p.cfg.SparesPerPlane {
		return
	}
	p.active = p.cfg.ActivePerPlane
	p.spares = p.cfg.SparesPerPlane
	p.groundDeploys++
}

// AtThreshold reports whether the plane capacity has dropped to the
// threshold η that triggers a ground-spare deployment.
func (p *Plane) AtThreshold(eta int) bool { return p.active <= eta }
