package constellation

import (
	"math"
	"math/bits"

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
// cover a target at latitude φ) ahead of the dot product. Each plane's
// recurrence is a serial chain of multiply-adds, so the scan advances
// two adjacent planes with the same satellite count (at most 64) and
// footprint together and overlaps their chains; a plane without such a
// partner (an odd one out, or a degraded plane with a different k)
// scans alone. Targets that share a latitude share the band, so
// CoverageCounts tests each generated position against a whole ring of
// up to 16 longitudes: the ring costs one pass over the fleet, not one
// per target.
//
// The covering set it produces is identical to filtering
// AppendCoveringSatellites on Covers, in the same plane-major order
// (TestScannerMatchesBruteForce holds the two paths to exact agreement
// across the Walker presets and degradation states), and CoverageCounts
// gives every target of a ring exactly its CoverageCount
// (TestScannerRingMatchesPoints). A steady-state
// query performs no heap allocations once dst has grown to the covering
// set's high-water mark.
//
// A Scanner is a snapshot of the constellation taken at NewScanner:
// queries read per-plane scan state captured then and never the live
// planes, so any number of goroutines may query one Scanner
// concurrently. Failing or restoring satellites afterwards does not
// change its answers; build a new Scanner after reconfiguring. The
// mission engine and satqosd keep one Scanner per constellation and
// share it across goroutines.
type Scanner struct {
	planes []planeScan
}

// planeScan is one plane's scan state.
type planeScan struct {
	k          int
	frame      orbit.Frame
	phaseRef   float64
	n          float64 // mean motion, rad/min
	cosD, sinD float64 // angle-addition step Δ = 2π/k
	half       float64 // footprint half-angle ψ
	cosHalf    float64
}

// NewScanner captures the scan state of every plane of c as it is now.
func NewScanner(c *Constellation) *Scanner {
	s := &Scanner{planes: make([]planeScan, len(c.planes))}
	for i, p := range c.planes {
		ps := planeScan{
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
		s.planes[i] = ps
	}
	return s
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

// pairMaxK bounds the plane size scanned two planes at a time: each
// plane of a pair records its hits in one 64-bit mask so the pair can
// still emit them in plane-major order.
const pairMaxK = 64

// pairable reports whether plane b can be scanned alongside plane a: the
// same satellite count (hence the same angle-addition step) and the same
// footprint.
func pairable(a, b *planeScan) bool {
	return a.k == b.k && a.k <= pairMaxK && a.half == b.half
}

// ringBlock is how many targets one pass over the fleet tests: their
// unit vectors sit in a stack array.
const ringBlock = 16

// scan is the one coverage loop behind AppendCovering, CoverageCount
// and CoverageCounts. It generates every active satellite's unit
// position at time t once, tests it against each target unit vector
// us[j] (every target at latitude lat, so one latitude band serves
// them all) and adds each covering satellite to counts[j]. When collect
// is set, us holds a single target and every covering satellite's
// reference is appended to dst in plane-major order. The loop is bound
// by the latency of each plane's angle-addition recurrence, a serial
// chain of multiply-adds, so it advances two adjacent planes' chains
// together whenever they are pairable; otherwise it scans one plane
// alone. Either way each plane runs exactly the same floating-point
// operations, so the covering set depends neither on the pairing nor on
// the other targets of the block. The latitude band is recomputed only
// when the footprint half-angle changes between planes (never, within
// one constellation).
func (s *Scanner) scan(dst []SatRef, collect bool, lat float64, us []orbit.Vec3, counts []int, t float64) []SatRef {
	counts = counts[:len(us)]
	bandHalf, zLo, zHi := math.NaN(), 0.0, 0.0
	planes := s.planes
	for pi := 0; pi < len(planes); pi++ {
		a := &planes[pi]
		k := a.k
		if k == 0 {
			continue
		}
		if a.half != bandHalf {
			bandHalf = a.half
			zLo, zHi = latBand(lat, a.half)
		}
		// The loops read each plane's frame and step through its
		// pointer rather than hoisting them into locals: with two planes
		// in flight the hoisted values outnumber the registers, and the
		// spills would put a store and a load on each recurrence chain.
		as, ac := math.Sincos(a.phaseRef + a.n*t)
		if pi+1 < len(planes) && pairable(a, &planes[pi+1]) {
			b := &planes[pi+1]
			bs, bc := math.Sincos(b.phaseRef + b.n*t)
			// A plane's hit mask is the union over the block's targets;
			// it is read only when collecting, for a block of one.
			var hitA, hitB uint64
			for i := 0; i < k; i++ {
				if z := a.frame.Q.Z * as; z >= zLo && z <= zHi {
					x := a.frame.P.X*ac + a.frame.Q.X*as
					y := a.frame.P.Y*ac + a.frame.Q.Y*as
					for j, u := range us {
						if x*u.X+y*u.Y+z*u.Z >= a.cosHalf {
							counts[j]++
							hitA |= 1 << i
						}
					}
				}
				if z := b.frame.Q.Z * bs; z >= zLo && z <= zHi {
					x := b.frame.P.X*bc + b.frame.Q.X*bs
					y := b.frame.P.Y*bc + b.frame.Q.Y*bs
					for j, u := range us {
						if x*u.X+y*u.Y+z*u.Z >= b.cosHalf {
							counts[j]++
							hitB |= 1 << i
						}
					}
				}
				ac, as = ac*a.cosD-as*a.sinD, as*a.cosD+ac*a.sinD
				bc, bs = bc*b.cosD-bs*b.sinD, bs*b.cosD+bc*b.sinD
			}
			if collect {
				dst = appendHits(dst, pi, hitA)
				dst = appendHits(dst, pi+1, hitB)
			}
			pi++
			continue
		}
		for i := 0; i < k; i++ {
			if z := a.frame.Q.Z * as; z >= zLo && z <= zHi {
				x := a.frame.P.X*ac + a.frame.Q.X*as
				y := a.frame.P.Y*ac + a.frame.Q.Y*as
				for j, u := range us {
					if x*u.X+y*u.Y+z*u.Z >= a.cosHalf {
						counts[j]++
						if collect {
							dst = append(dst, SatRef{Plane: pi, Index: i})
						}
					}
				}
			}
			ac, as = ac*a.cosD-as*a.sinD, as*a.cosD+ac*a.sinD
		}
	}
	return dst
}

// appendHits appends a reference for every set bit of a plane's hit
// mask, in index order.
func appendHits(dst []SatRef, plane int, hits uint64) []SatRef {
	for ; hits != 0; hits &= hits - 1 {
		dst = append(dst, SatRef{Plane: plane, Index: bits.TrailingZeros64(hits)})
	}
	return dst
}

// AppendCovering appends a reference to every active satellite whose
// footprint covers the target at time t (minutes), in the same
// plane-major order as AppendCoveringSatellites, and returns the
// extended slice. Reusing a per-goroutine dst[:0] across scan steps
// makes the query allocation-free at steady state.
func (s *Scanner) AppendCovering(dst []SatRef, target orbit.LatLon, t float64) []SatRef {
	var n [1]int
	return s.scan(dst, true, target.Lat, []orbit.Vec3{target.UnitECI(t)}, n[:], t)
}

// CoverageCount returns how many active satellites cover the target at
// time t — the fast counterpart of SimultaneousCoverageCount. It
// performs no allocations.
func (s *Scanner) CoverageCount(target orbit.LatLon, t float64) int {
	var n [1]int
	s.scan(nil, false, target.Lat, []orbit.Vec3{target.UnitECI(t)}, n[:], t)
	return n[0]
}

// CoverageCounts sets counts[j] to CoverageCount of the target at
// latitude lat and longitude lons[j] (radians) at time t, for every j.
// It generates the fleet's positions once per block of up to 16
// longitudes, so a ring of targets costs about one pass over the fleet
// per block instead of one per target. counts must be at least as long
// as lons. It performs no allocations.
func (s *Scanner) CoverageCounts(counts []int, lat float64, lons []float64, t float64) {
	counts = counts[:len(lons)]
	clear(counts)
	ring := orbit.NewRing(lat, t)
	var us [ringBlock]orbit.Vec3
	for lo := 0; lo < len(lons); lo += ringBlock {
		block := lons[lo:min(lo+ringBlock, len(lons))]
		for j, lon := range block {
			us[j] = ring.UnitECI(lon)
		}
		s.scan(nil, false, lat, us[:len(block)], counts[lo:lo+len(block)], t)
	}
}

// SharedScanner is the former name of the concurrent scanner.
//
// Deprecated: Scanner is safe for concurrent queries; use it directly.
type SharedScanner = Scanner

// NewSharedScanner is the former constructor of the concurrent scanner.
//
// Deprecated: use NewScanner.
func NewSharedScanner(c *Constellation) *SharedScanner { return NewScanner(c) }
