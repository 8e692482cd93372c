package constellation

import (
	"math"
	"sync"
	"sync/atomic"

	"satqos/internal/orbit"
)

// SatRef identifies one active satellite by plane and in-plane index
// (valid until the plane's next phasing adjustment) — the
// structure-of-arrays scan's compact result element.
type SatRef struct {
	Plane, Index int
}

// Scanner is the structure-of-arrays fast coverage scan: the
// mega-constellation counterpart of AppendCoveringSatellites. Per time
// step it computes one anchor angle per plane and one (sin Δ, cos Δ)
// pair (Δ = 2π/k), generates every in-plane satellite's unit position by
// the angle-addition recurrence, and tests coverage by comparing the dot
// product of unit position vectors against the precomputed cos ψ — zero
// per-satellite transcendental calls, with a latitude-band rejection
// (the satellite's z-coordinate outside [sin(φ−ψ), sin(φ+ψ)] cannot
// cover a target at latitude φ) ahead of the dot product.
//
// The covering set it produces is identical to filtering
// AppendCoveringSatellites on Covers, in the same plane-major order
// (TestScannerMatchesBruteForce holds the two paths to exact agreement
// across the Walker presets and degradation states). A steady-state
// query performs no heap allocations once dst has grown to the covering
// set's high-water mark.
//
// Any number of goroutines may query one Scanner concurrently: queries
// read an immutable snapshot of the per-plane scan state published
// through an atomic pointer. Reconfiguration — satellite failures,
// ground-spare restores — goes through Update, which mutates the
// constellation under a lock and publishes a fresh snapshot
// (copy-on-reconfigure); readers switch to it on their next query and
// never observe a half-updated plane. Mutations made directly on the
// constellation while no query runs are picked up too: every query
// compares the snapshot against the planes' atomic version counters
// and rebuilds it when a plane has re-phased. The mission engine and
// satqosd keep one Scanner per constellation and share it across
// goroutines.
type Scanner struct {
	c    *Constellation
	mu   sync.Mutex // serializes Update and snapshot rebuilds
	snap atomic.Pointer[[]planeScan]
}

// planeScan is one plane's scan state, immutable once published.
type planeScan struct {
	version    uint64
	k          int
	frame      orbit.Frame
	phaseRef   float64
	n          float64 // mean motion, rad/min
	cosD, sinD float64 // angle-addition step Δ = 2π/k
	half       float64 // footprint half-angle ψ
	cosHalf    float64
}

// newPlaneScan captures plane p's current scan state.
func newPlaneScan(p *Plane) planeScan {
	ps := planeScan{
		version:  p.version.Load(),
		k:        p.active,
		frame:    p.frame,
		phaseRef: p.phaseRef,
		n:        2 * math.Pi / p.cfg.PeriodMin,
		half:     p.fp.HalfAngle,
		cosHalf:  math.Cos(p.fp.HalfAngle),
		cosD:     1,
	}
	if p.active > 0 {
		ps.sinD, ps.cosD = math.Sincos(2 * math.Pi / float64(p.active))
	}
	return ps
}

// NewScanner builds a fast scanner over the constellation and publishes
// the initial snapshot. The scanner reads the constellation's planes;
// it mutates them only through Update.
func NewScanner(c *Constellation) *Scanner {
	s := &Scanner{c: c}
	s.mu.Lock()
	s.rebuild()
	s.mu.Unlock()
	return s
}

// rebuild publishes a fresh snapshot from the live planes and returns
// it. Callers hold s.mu.
func (s *Scanner) rebuild() []planeScan {
	planes := make([]planeScan, len(s.c.planes))
	for i, p := range s.c.planes {
		planes[i] = newPlaneScan(p)
	}
	s.snap.Store(&planes)
	return planes
}

// current returns the published snapshot if every plane's version still
// matches it, else nil.
func (s *Scanner) current() []planeScan {
	planes := *s.snap.Load()
	for i := range planes {
		if planes[i].version != s.c.planes[i].version.Load() {
			return nil
		}
	}
	return planes
}

// snapshot returns the scan state of the live constellation, rebuilding
// the published snapshot first if a plane changed since it was built.
// A query that observes an Update mid-mutation waits for the snapshot
// that Update publishes.
func (s *Scanner) snapshot() []planeScan {
	if planes := s.current(); planes != nil {
		return planes
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if planes := s.current(); planes != nil {
		return planes
	}
	return s.rebuild()
}

// Update applies a mutation to the underlying constellation — fail
// planes, restore them, anything reachable from *Constellation — and
// publishes the rebuilt snapshot before returning. Concurrent queries
// keep reading the previous snapshot until the new one lands.
func (s *Scanner) Update(mutate func(*Constellation)) {
	s.mu.Lock()
	defer s.mu.Unlock()
	mutate(s.c)
	s.rebuild()
}

// latBandPad widens the latitude band in z-space so floating-point
// rounding in the rejection test can never exclude a satellite the exact
// dot-product test would accept (the band is a mathematical superset of
// the footprint; the pad covers the last-ulp cases).
const latBandPad = 1e-12

// latBand returns the z-interval a covering satellite's unit position
// must lie in for a target at latitude lat under half-angle half: a
// satellite whose sub-point latitude differs from the target's by more
// than ψ is at least ψ away in great-circle terms.
func latBand(lat, half float64) (lo, hi float64) {
	lo, hi = -1.0, 1.0
	if l := lat - half; l > -math.Pi/2 {
		lo = math.Sin(l) - latBandPad
	}
	if h := lat + half; h < math.Pi/2 {
		hi = math.Sin(h) + latBandPad
	}
	return lo, hi
}

// scan is the one coverage loop behind AppendCovering and
// CoverageCount. It counts every active satellite covering the target
// at time t and, when collect is set, appends its reference to dst. The
// latitude band is recomputed only when the footprint half-angle
// changes between planes (never, within one constellation).
func (s *Scanner) scan(dst []SatRef, collect bool, target orbit.LatLon, t float64) ([]SatRef, int) {
	n := 0
	u := target.UnitECI(t)
	bandHalf, zLo, zHi := math.NaN(), 0.0, 0.0
	planes := s.snapshot()
	for pi := range planes {
		ps := &planes[pi]
		k := ps.k
		if k == 0 {
			continue
		}
		if ps.half != bandHalf {
			bandHalf = ps.half
			zLo, zHi = latBand(target.Lat, ps.half)
		}
		sin, cos := math.Sincos(ps.phaseRef + ps.n*t)
		px, py := ps.frame.P.X, ps.frame.P.Y
		qx, qy, qz := ps.frame.Q.X, ps.frame.Q.Y, ps.frame.Q.Z
		for i := 0; i < k; i++ {
			if z := qz * sin; z >= zLo && z <= zHi {
				x := px*cos + qx*sin
				y := py*cos + qy*sin
				if x*u.X+y*u.Y+z*u.Z >= ps.cosHalf {
					n++
					if collect {
						dst = append(dst, SatRef{Plane: pi, Index: i})
					}
				}
			}
			cos, sin = cos*ps.cosD-sin*ps.sinD, sin*ps.cosD+cos*ps.sinD
		}
	}
	return dst, n
}

// AppendCovering appends a reference to every active satellite whose
// footprint covers the target at time t (minutes), in the same
// plane-major order as AppendCoveringSatellites, and returns the
// extended slice. Reusing a per-goroutine dst[:0] across scan steps
// makes the query allocation-free at steady state.
func (s *Scanner) AppendCovering(dst []SatRef, target orbit.LatLon, t float64) []SatRef {
	dst, _ = s.scan(dst, true, target, t)
	return dst
}

// CoverageCount returns how many active satellites cover the target at
// time t — the fast counterpart of SimultaneousCoverageCount. It
// performs no allocations.
func (s *Scanner) CoverageCount(target orbit.LatLon, t float64) int {
	_, n := s.scan(nil, false, target, t)
	return n
}

// Separation returns the great-circle angle (radians) between satellite
// ref's sub-point and the target at time t, computed from the scanner's
// unit-vector geometry. It is the validation hook that pins the fast
// scan's positions to the per-orbit path (the one acos here is off the
// scan hot path).
func (s *Scanner) Separation(ref SatRef, target orbit.LatLon, t float64) float64 {
	ps := &s.snapshot()[ref.Plane]
	u := ps.phaseRef + 2*math.Pi*float64(ref.Index)/float64(ps.k) + ps.n*t
	sin, cos := math.Sincos(u)
	pos := ps.frame.UnitPosition(cos, sin)
	d := pos.Dot(target.UnitECI(t))
	if d > 1 {
		d = 1
	} else if d < -1 {
		d = -1
	}
	return math.Acos(d)
}

// SharedScanner is the former name of the concurrent scanner.
//
// Deprecated: Scanner is safe for concurrent queries; use it directly.
type SharedScanner = Scanner

// NewSharedScanner is the former constructor of the concurrent scanner.
//
// Deprecated: use NewScanner.
func NewSharedScanner(c *Constellation) *SharedScanner { return NewScanner(c) }
