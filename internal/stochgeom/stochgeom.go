// Package stochgeom is the stochastic-geometry analytic backend: it
// answers coverage and visibility questions about mega-constellations
// in closed form, without enumerating satellite positions.
//
// The model is the binomial point process (BPP) of the LEO/MEO
// coverage literature (arXiv 2506.03151, arXiv 2312.15281): the N
// satellites of a shell are treated as independently and identically
// distributed on the sphere of their orbital altitude, with the
// latitude marginal every circular-orbit constellation of inclination
// ι actually has,
//
//	f(φ) = cos φ / (π √(sin²ι − sin²φ)),  |φ| < ι,
//
// and a uniform longitude (the RAAN spread plus the earth's rotation
// decorrelate longitudes on any horizon longer than a few orbits).
// Under that model the number K of satellites whose footprint covers a
// ground target at latitude φ_u is Binomial(N, p(φ_u)), where p is the
// probability mass the distribution puts on the target's spherical cap
// of half-angle ψ. Everything of interest follows in closed form:
// P(K = k), the coverage-opportunity fraction P(K ≥ 1), and the
// localizability probability P(K ≥ L) that at least L satellites are
// simultaneously visible (L = 4 for the positioning question of
// arXiv 2506.03151). Mixtures over shells — LEO/MEO hybrids — are
// sums of independent binomials, computed by convolution.
//
// The cap-mass integral reduces, by the substitution sin φ = sin ι
// sin u that removes the integrable endpoint singularity of f, to a
// one-dimensional integral over u ∈ [−π/2, π/2]. Its integrand is 0
// where the latitude ring misses the cap, 1 where the cap swallows the
// ring, and in between only on a narrow band with √ kinks at its
// edges, so VisibleProb cuts u at those edges, skips or adds the
// constant pieces exactly, and integrates the band pieces with the
// fixed Gauss–Kronrod panels of internal/numeric after a cosine map
// that smooths the kinks: a few dozen integrand evaluations. A point
// query (BenchmarkStochGeom/pvisible) takes about 6 µs on a 2-vCPU
// Xeon, independent of how many time steps the equivalent enumeration
// would scan: O(1) in step count versus the O(N·steps) of
// constellation.Scanner.
//
// What the model ignores is the lattice structure of a real Walker
// constellation: positions are deterministic and correlated (exactly
// one satellite per 2π/k of a plane's ring), not independent. The
// binomial approximation is tight for many planes and moderate k and
// degrades for few planes and at the distribution's tails; the
// accuracy envelope is quantified against the exact geometry engine by
// experiment.StochGeomCheck and recorded in EXPERIMENTS.md.
//
// Angles are radians and time is minutes, as everywhere else in the
// repository; constructors taking degrees say so in their names.
package stochgeom

import (
	"fmt"
	"math"

	"satqos/internal/constellation"
	"satqos/internal/numeric"
	"satqos/internal/orbit"
)

// Shell is one constellation shell under the BPP model: N satellites
// at a common altitude and inclination, each covering a spherical cap
// of earth-central half-angle ψ.
type Shell struct {
	// N is the number of satellites in the shell.
	N int
	// AltitudeKm is the orbital altitude above the spherical earth.
	AltitudeKm float64
	// InclinationDeg is the orbital inclination in degrees. Retrograde
	// inclinations (> 90°) bound sub-satellite latitudes by 180° − ι,
	// which is what the model uses.
	InclinationDeg float64
	// HalfAngle is the coverage half-angle ψ in radians: a target is
	// covered (visible) when its great-circle separation from the
	// sub-satellite point is at most ψ. Derive it from a minimum-
	// elevation mask with HalfAngleFromElevationDeg or from a coverage
	// time with HalfAngleFromCoverageTime.
	HalfAngle float64
}

// Validate checks the shell parameters.
func (s Shell) Validate() error {
	switch {
	case s.N < 1:
		return fmt.Errorf("stochgeom: shell needs at least 1 satellite, got %d", s.N)
	case s.AltitudeKm <= 0 || math.IsNaN(s.AltitudeKm) || math.IsInf(s.AltitudeKm, 0):
		return fmt.Errorf("stochgeom: altitude %g km must be positive and finite", s.AltitudeKm)
	case s.InclinationDeg < 0 || s.InclinationDeg > 180 || math.IsNaN(s.InclinationDeg):
		return fmt.Errorf("stochgeom: inclination %g° outside [0, 180]", s.InclinationDeg)
	case !(s.HalfAngle > 0 && s.HalfAngle < math.Pi/2):
		return fmt.Errorf("stochgeom: coverage half-angle %g rad must be in (0, π/2)", s.HalfAngle)
	}
	return nil
}

// effInclination returns the latitude bound of the sub-satellite
// points in radians: ι for prograde shells, π − ι for retrograde.
func (s Shell) effInclination() float64 {
	inc := s.InclinationDeg * math.Pi / 180
	if inc > math.Pi/2 {
		inc = math.Pi - inc
	}
	return inc
}

// HalfAngleFromElevationDeg returns the earth-central coverage
// half-angle ψ implied by a minimum-elevation mask ε at the given
// altitude: sin(ψ + ε)·(Re + h) = ... from the spherical triangle,
// ψ = arccos(Re·cos ε / (Re + h)) − ε.
func HalfAngleFromElevationDeg(altitudeKm, elevationDeg float64) (float64, error) {
	if altitudeKm <= 0 || math.IsNaN(altitudeKm) || math.IsInf(altitudeKm, 0) {
		return 0, fmt.Errorf("stochgeom: altitude %g km must be positive and finite", altitudeKm)
	}
	if elevationDeg < 0 || elevationDeg >= 90 || math.IsNaN(elevationDeg) {
		return 0, fmt.Errorf("stochgeom: elevation mask %g° outside [0, 90)", elevationDeg)
	}
	eps := elevationDeg * math.Pi / 180
	psi := math.Acos(orbit.EarthRadiusKm*math.Cos(eps)/(orbit.EarthRadiusKm+altitudeKm)) - eps
	if !(psi > 0) {
		return 0, fmt.Errorf("stochgeom: elevation mask %g° leaves no footprint at %g km", elevationDeg, altitudeKm)
	}
	return psi, nil
}

// HalfAngleFromCoverageTime returns ψ from the paper's coverage-time
// parameterization: the along-track footprint diameter is 2ψ = n·Tc
// for mean motion n at the given altitude (the same convention as
// orbit.FootprintFromCoverageTime).
func HalfAngleFromCoverageTime(altitudeKm, coverageTimeMin float64) (float64, error) {
	if altitudeKm <= 0 || math.IsNaN(altitudeKm) || math.IsInf(altitudeKm, 0) {
		return 0, fmt.Errorf("stochgeom: altitude %g km must be positive and finite", altitudeKm)
	}
	if coverageTimeMin <= 0 || math.IsNaN(coverageTimeMin) {
		return 0, fmt.Errorf("stochgeom: coverage time %g min must be positive", coverageTimeMin)
	}
	period := orbit.PeriodMinFromAltitudeKm(altitudeKm)
	psi := math.Pi * coverageTimeMin / period
	if psi >= math.Pi/2 {
		return 0, fmt.Errorf("stochgeom: coverage time %g min implies half-angle %g rad ≥ π/2", coverageTimeMin, psi)
	}
	return psi, nil
}

// ShellFromConfig maps a constellation.Config onto its BPP shell: the
// full active fleet at the config's altitude and inclination, with ψ
// derived from the coverage time exactly as the geometry engine
// derives its footprints. In-orbit spares are excluded — they do not
// provide coverage.
func ShellFromConfig(cfg constellation.Config) (Shell, error) {
	if err := cfg.Validate(); err != nil {
		return Shell{}, err
	}
	o := orbit.CircularOrbit{PeriodMin: cfg.PeriodMin}
	s := Shell{
		N:              cfg.Planes * cfg.ActivePerPlane,
		AltitudeKm:     o.AltitudeKm(),
		InclinationDeg: cfg.InclinationDeg,
		HalfAngle:      math.Pi * cfg.CoverageTimeMin / cfg.PeriodMin,
	}
	if err := s.Validate(); err != nil {
		return Shell{}, err
	}
	return s, nil
}

// capTol is the absolute tolerance of the cap-mass integral; the
// integrand is bounded by 1 on an interval of length π, so this is
// also (within a factor π) the tolerance on the visibility
// probability itself.
const capTol = 1e-11

// lonFraction returns the fraction of the longitude circle at
// sub-satellite latitude φ that lies inside the target cap: Δλ/π with
// cos Δλ = (cos ψ − sin φ sin φ_u)/(cos φ cos φ_u), clamped to {0, 1}
// outside the principal range (the whole circle is inside, or none of
// it is).
func lonFraction(sinLat, cosLat, sinU, cosU, cosPsi float64) float64 {
	num := cosPsi - sinLat*sinU
	den := cosLat * cosU
	if num <= -den {
		return 1
	}
	if num >= den {
		return 0
	}
	return math.Acos(num/den) / math.Pi
}

// VisibleProb returns p(φ_u): the probability that one satellite of
// the shell covers a target at latitude lat (radians) — the mass the
// shell's sub-satellite distribution puts on the target's cap of
// half-angle ψ. It is the single-satellite building block of every
// binomial answer; symmetric in ±lat, and evaluated at |lat| so the
// two signs agree bit for bit.
func (s Shell) VisibleProb(lat float64) (float64, error) {
	if err := s.Validate(); err != nil {
		return 0, err
	}
	if math.IsNaN(lat) || lat < -math.Pi/2 || lat > math.Pi/2 {
		return 0, fmt.Errorf("stochgeom: latitude %g rad outside [-π/2, π/2]", lat)
	}
	lat = math.Abs(lat)
	sinU, cosU := math.Sincos(lat)
	cosPsi := math.Cos(s.HalfAngle)
	inc := s.effInclination()
	sinInc := math.Sin(inc)
	// Substitution sin φ = sin ι sin u maps the latitude marginal onto
	// du/π over u ∈ [−π/2, π/2] and removes the √ singularity at ±ι.
	integrand := func(u float64) float64 {
		sinLat := sinInc * math.Sin(u)
		cosLat := math.Sqrt(1 - sinLat*sinLat)
		return lonFraction(sinLat, cosLat, sinU, cosU, cosPsi)
	}

	// The integrand is 0 where the latitude ring misses the cap
	// (|φ − φ_u| ≥ ψ), 1 where the cap swallows the whole ring
	// (φ + φ_u ≥ π − ψ, the cap reaching over the pole), and strictly
	// between only on the band in between, with √ kinks at its edges.
	// Cut u at those edges so every piece is one of the three cases.
	// The fourth edge, φ = −(π − ψ) − φ_u, lies below −π/2 for φ_u ≥ 0.
	cuts := [5]float64{-math.Pi / 2}
	n := 1
	for _, phi := range [3]float64{lat - s.HalfAngle, lat + s.HalfAngle, math.Pi - s.HalfAngle - lat} {
		if math.Abs(phi) >= inc {
			continue
		}
		u := math.Asin(math.Sin(phi) / sinInc)
		i := n
		for ; i > 0 && cuts[i-1] > u; i-- {
			cuts[i] = cuts[i-1]
		}
		cuts[i] = u
		n++
	}
	cuts[n] = math.Pi / 2
	n++

	var v float64
	for i := 1; i < n; i++ {
		a, b := cuts[i-1], cuts[i]
		switch integrand(0.5 * (a + b)) {
		case 0: // the rings miss the cap: no mass
		case 1: // the cap swallows the rings: the piece's whole length
			v += b - a
		default:
			// u = a + h(1 − cos t) over t ∈ [0, π] turns the √ end
			// behaviour into a smooth integrand for the fixed panels.
			h := 0.5 * (b - a)
			mapped := func(t float64) float64 {
				sinT, cosT := math.Sincos(t)
				return integrand(a+h*(1-cosT)) * h * sinT
			}
			for _, t0 := range [2]float64{0, math.Pi / 2} {
				w, err := numeric.IntegrateFast(mapped, t0, t0+math.Pi/2, capTol/2)
				if err != nil {
					return 0, fmt.Errorf("stochgeom: cap integral: %w", err)
				}
				v += w
			}
		}
	}
	p := v / math.Pi
	if p < 0 {
		p = 0
	} else if p > 1 {
		p = 1
	}
	return p, nil
}

// binomialPMF fills dst[k] = C(n,k) p^k (1−p)^{n−k} for k = 0..n,
// computed in log space so mega-constellation N never overflows.
func binomialPMF(dst []float64, n int, p float64) {
	switch {
	case p <= 0:
		for i := range dst {
			dst[i] = 0
		}
		dst[0] = 1
		return
	case p >= 1:
		for i := range dst {
			dst[i] = 0
		}
		dst[n] = 1
		return
	}
	lp := math.Log(p)
	lq := math.Log1p(-p)
	// dst doubles as the table of lgamma(k+1): each pair (k, n−k)
	// reads its two entries before overwriting them with the PMF.
	for k := range dst[:n+1] {
		dst[k], _ = math.Lgamma(float64(k) + 1)
	}
	lgN := dst[n]
	for k := 0; k <= n-k; k++ {
		lgK, lgNK := dst[k], dst[n-k]
		dst[k] = math.Exp(lgN - lgK - lgNK + float64(k)*lp + float64(n-k)*lq)
		dst[n-k] = math.Exp(lgN - lgNK - lgK + float64(n-k)*lp + float64(k)*lq)
	}
}
