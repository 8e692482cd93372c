package constellation

import (
	"fmt"
	"math"
	"sync/atomic"

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

	// version counts geometry-visible state changes (capacity drops and
	// restores, which re-phase the ring). Scanner snapshots per-plane
	// recurrence state keyed by this counter. It is atomic so that
	// concurrent Scanner queries can detect staleness race-free while a
	// writer reconfigures the constellation; the other plane fields are
	// guarded by Scanner.Update's lock (or by mutating only while no
	// query runs).
	version atomic.Uint64

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
	p.version.Store(1)
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

// Index returns the plane's position within the constellation.
func (p *Plane) Index() int { return p.index }

// RAAN returns the plane's right ascension of the ascending node in
// radians.
func (p *Plane) RAAN() float64 { return p.raan }

// Frame returns the plane's cached rotation frame (the in-plane basis of
// orbit.Frame), computed once at construction.
func (p *Plane) Frame() orbit.Frame { return p.frame }

// Version returns a counter that advances whenever the plane's satellite
// geometry changes (a capacity drop with re-phasing, or a restore).
// Callers caching derived per-plane state — the fast coverage scanner —
// use it to detect staleness without recomputing anything.
func (p *Plane) Version() uint64 { return p.version.Load() }

// ActiveCount returns k, the number of active operational satellites.
func (p *Plane) ActiveCount() int { return p.active }

// SpareCount returns the remaining in-orbit spares.
func (p *Plane) SpareCount() int { return p.spares }

// Failures returns the number of satellite failures the plane has
// absorbed since construction or the last reset.
func (p *Plane) Failures() int { return p.failures }

// SpareSwaps returns how many failures were absorbed by in-orbit spares.
func (p *Plane) SpareSwaps() int { return p.spareSwaps }

// GroundDeploys returns how many ground-spare deployments restored this
// plane.
func (p *Plane) GroundDeploys() int { return p.groundDeploys }

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
	p.version.Add(1)
	return nil
}

// RestoreFull returns the plane to its original capacity (ActivePerPlane
// actives and SparesPerPlane in-orbit spares) — the effect of a
// ground-spare deployment.
func (p *Plane) RestoreFull() {
	if p.active == p.cfg.ActivePerPlane && p.spares == p.cfg.SparesPerPlane {
		return
	}
	if p.active != p.cfg.ActivePerPlane {
		p.version.Add(1)
	}
	p.active = p.cfg.ActivePerPlane
	p.spares = p.cfg.SparesPerPlane
	p.groundDeploys++
}

// AtThreshold reports whether the plane capacity has dropped to the
// threshold η that triggers a ground-spare deployment.
func (p *Plane) AtThreshold(eta int) bool { return p.active <= eta }
