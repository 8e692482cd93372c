package constellation

import (
	"fmt"
	"math"
	"sort"

	"satqos/internal/orbit"
)

// WalkerKind selects the RAAN layout of a Walker constellation.
type WalkerKind int

const (
	// WalkerStar spreads the ascending nodes over π: near-polar planes
	// ascend on one half of the equator and descend on the other
	// (Iridium, Kepler, OneWeb — and the paper's reference design).
	WalkerStar WalkerKind = iota
	// WalkerDelta spreads the ascending nodes over the full 2π: the
	// inclined-shell layout of Starlink-style designs.
	WalkerDelta
)

// Valid reports whether the kind is one of the defined layouts.
func (k WalkerKind) Valid() bool { return k == WalkerStar || k == WalkerDelta }

// RAANSpread returns the total right-ascension span the planes are
// distributed over: π for star, 2π for delta.
func (k WalkerKind) RAANSpread() float64 {
	if k == WalkerDelta {
		return 2 * math.Pi
	}
	return math.Pi
}

// String implements fmt.Stringer.
func (k WalkerKind) String() string {
	switch k {
	case WalkerStar:
		return "star"
	case WalkerDelta:
		return "delta"
	default:
		return fmt.Sprintf("WalkerKind(%d)", int(k))
	}
}

// WalkerConfig builds a Config for a classical Walker constellation
// i:T/P/F — planes orbital planes of perPlane satellites each (T =
// planes·perPlane), inclination i, integer phasing factor F in
// [0, planes) — at the given deployment altitude. The RAAN spread is π
// for star and 2π for delta; the phase of plane p leads plane 0 by
// 2π·F·p/T, which maps onto InterPlanePhaseFrac = F/planes. The orbital
// period follows from the altitude by Kepler's third law, and the
// footprint is parameterized by the coverage time Tc as everywhere else
// in the model.
func WalkerConfig(kind WalkerKind, planes, perPlane, phasingF int, inclinationDeg, altitudeKm, coverageTimeMin float64) (Config, error) {
	if planes < 1 {
		return Config{}, fmt.Errorf("constellation: Walker design needs at least 1 plane, got %d", planes)
	}
	if phasingF < 0 || phasingF >= planes {
		return Config{}, fmt.Errorf("constellation: Walker phasing factor F = %d outside [0, %d)", phasingF, planes)
	}
	if altitudeKm <= 0 || math.IsNaN(altitudeKm) || math.IsInf(altitudeKm, 0) {
		return Config{}, fmt.Errorf("constellation: altitude %g km must be positive and finite", altitudeKm)
	}
	cfg := Config{
		Planes:              planes,
		ActivePerPlane:      perPlane,
		SparesPerPlane:      0,
		PeriodMin:           orbit.PeriodMinFromAltitudeKm(altitudeKm),
		InclinationDeg:      inclinationDeg,
		CoverageTimeMin:     coverageTimeMin,
		InterPlanePhaseFrac: float64(phasingF) / float64(planes),
		Walker:              kind,
	}
	if err := cfg.Validate(); err != nil {
		return Config{}, err
	}
	return cfg, nil
}

// Named presets: the reference design of the paper plus the four Walker
// parameter sets of the stochastic-geometry coverage literature (the
// designs in SNIPPETS.md snippets 2-3; cf. arXiv 2506.03151).
const (
	// PresetReference is the paper's 7-plane x (14+2) design.
	PresetReference = "reference"
	// PresetIridiumNEXT is Iridium NEXT: 6 near-polar planes x 11
	// satellites at 780 km, 86.4 deg, with one in-orbit spare per plane.
	PresetIridiumNEXT = "iridium-next"
	// PresetKepler is the Kepler design: 7 planes x 20 at 600 km,
	// 98.6 deg sun-synchronous-like inclination.
	PresetKepler = "kepler"
	// PresetOneWeb is OneWeb: 18 planes x 36 (648 satellites) at
	// 1200 km, 86.4 deg.
	PresetOneWeb = "oneweb"
	// PresetStarlink is the Starlink phase-1 550 km shell: a Walker
	// delta of 72 planes x 22 (1584 satellites) at 53 deg.
	PresetStarlink = "starlink"
)

// presetBuilders maps each name to its constructor. Coverage times Tc
// (which parameterize the footprint half-angle psi = n*Tc/2) are derived
// from representative minimum-elevation masks at each altitude: ~8 deg
// for Iridium NEXT (psi ~ 20 deg), ~10 deg for Kepler (psi ~ 16 deg),
// ~15 deg for OneWeb (psi ~ 21 deg), and ~25 deg for Starlink
// (psi ~ 8.5 deg).
var presetBuilders = map[string]func() (Config, error){
	PresetReference: func() (Config, error) { return DefaultConfig(), nil },
	PresetIridiumNEXT: func() (Config, error) {
		cfg, err := WalkerConfig(WalkerStar, 6, 11, 1, 86.4, 780, 11)
		if err == nil {
			cfg.SparesPerPlane = 1
		}
		return cfg, err
	},
	PresetKepler: func() (Config, error) {
		return WalkerConfig(WalkerStar, 7, 20, 1, 98.6, 600, 8.5)
	},
	PresetOneWeb: func() (Config, error) {
		return WalkerConfig(WalkerStar, 18, 36, 1, 86.4, 1200, 12.5)
	},
	PresetStarlink: func() (Config, error) {
		return WalkerConfig(WalkerDelta, 72, 22, 1, 53, 550, 4.5)
	},
}

// PresetNames lists the named constellation designs in stable order.
func PresetNames() []string {
	names := make([]string, 0, len(presetBuilders))
	for name := range presetBuilders {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// DefaultPlaneCapacity is the plane capacity k a protocol evaluation
// of the named preset uses when none is given: the paper's spot-check
// k = 10 for the reference design, otherwise the preset's full
// per-plane capacity clamped to maxK, the analytic model's two-regime
// ceiling (dense designs like OneWeb's 36-satellite planes exceed it).
func DefaultPlaneCapacity(preset string, cfg Config, maxK int) int {
	if preset == PresetReference {
		return 10
	}
	return min(cfg.ActivePerPlane, maxK)
}

// PresetConfig returns the named constellation design. The result is a
// plain Config: callers may adjust it (spares, coverage time) before
// building the constellation.
func PresetConfig(name string) (Config, error) {
	b, ok := presetBuilders[name]
	if !ok {
		return Config{}, fmt.Errorf("constellation: unknown preset %q (have %v)", name, PresetNames())
	}
	return b()
}
