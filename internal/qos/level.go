package qos

import (
	"fmt"
	"strings"
)

// Level is a QoS level Y of the paper's 4-level spectrum (Table 1). The
// numeric values are the paper's: higher is better.
type Level int

// The QoS spectrum of Table 1.
const (
	// LevelMiss (Y = 0): the target escaped surveillance — the signal
	// started in a coverage gap and stopped before any footprint arrived.
	LevelMiss Level = 0
	// LevelSingle (Y = 1): a geolocation result from a single coverage.
	LevelSingle Level = 1
	// LevelSequentialDual (Y = 2): a result refined by sequential
	// multiple coverage — two or more satellites consecutively revisiting
	// the target (OAQ only, underlapping geometry).
	LevelSequentialDual Level = 2
	// LevelSimultaneousDual (Y = 3): a result from simultaneous multiple
	// coverage — the target observed by two satellites at once
	// (overlapping geometry).
	LevelSimultaneousDual Level = 3
)

// NumLevels is the size of the QoS spectrum.
const NumLevels = 4

// String implements fmt.Stringer.
func (l Level) String() string {
	switch l {
	case LevelMiss:
		return "missing-target"
	case LevelSingle:
		return "single-coverage"
	case LevelSequentialDual:
		return "sequential-dual"
	case LevelSimultaneousDual:
		return "simultaneous-dual"
	default:
		return fmt.Sprintf("Level(%d)", int(l))
	}
}

// Valid reports whether l is one of the four spectrum levels.
func (l Level) Valid() bool { return l >= LevelMiss && l <= LevelSimultaneousDual }

// Scheme selects between the paper's two QoS-management schemes.
type Scheme int

// Supported schemes.
const (
	// SchemeBAQ is the basic fault-adaptive QoS enhancement baseline:
	// in-orbit spares and both ground-spare deployment policies, but no
	// opportunity-adaptive coordination — a result is delivered after the
	// initial computation from whatever coverage exists at detection.
	SchemeBAQ Scheme = iota + 1
	// SchemeOAQ is the opportunity-adaptive scheme: withhold-and-wait for
	// simultaneous coverage in the overlapping regime, and coordinated
	// sequential localization along the satellite chain in the
	// underlapping regime.
	SchemeOAQ
)

// String implements fmt.Stringer.
func (s Scheme) String() string {
	switch s {
	case SchemeBAQ:
		return "BAQ"
	case SchemeOAQ:
		return "OAQ"
	default:
		return fmt.Sprintf("Scheme(%d)", int(s))
	}
}

// Valid reports whether s is a known scheme.
func (s Scheme) Valid() bool { return s == SchemeBAQ || s == SchemeOAQ }

// ParseScheme parses a scheme name, "oaq" or "baq" in any case.
func ParseScheme(name string) (Scheme, error) {
	switch strings.ToLower(name) {
	case "oaq":
		return SchemeOAQ, nil
	case "baq":
		return SchemeBAQ, nil
	default:
		return 0, fmt.Errorf("unknown scheme %q (oaq | baq)", name)
	}
}

// PMF is a probability mass function over the QoS spectrum, indexed by
// Level.
type PMF [NumLevels]float64

// CCDF returns P(Y >= y) under the mass function.
func (p PMF) CCDF(y Level) float64 {
	var s float64
	for l := y; l <= LevelSimultaneousDual; l++ {
		if l >= 0 {
			s += p[l]
		}
	}
	if y <= LevelMiss {
		return 1
	}
	return s
}

// Mean returns E[Y].
func (p PMF) Mean() float64 {
	var m float64
	for l, v := range p {
		m += float64(l) * v
	}
	return m
}

// Total returns the total probability mass (1 up to round-off for a
// well-formed PMF).
func (p PMF) Total() float64 {
	var s float64
	for _, v := range p {
		s += v
	}
	return s
}
