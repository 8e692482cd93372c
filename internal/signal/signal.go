// Package signal models the RF emitters the constellation geolocates:
// signal occurrences form a Poisson process (the paper's §4.2.2
// assumption, which justifies PASTA when composing with the plane-
// capacity distribution), durations are exponentially distributed with
// termination rate µ (or any stats.Distribution for the sensitivity
// experiments), and positions follow a configurable sampling strategy —
// the paper's worst case places the emitter on the center line of a
// footprint trajectory near 30° latitude.
package signal

import (
	"fmt"
	"math"

	"satqos/internal/orbit"
	"satqos/internal/stats"
)

// Signal is one RF emission event. Times are in minutes.
type Signal struct {
	// ID numbers signals within a workload.
	ID int
	// Position is the emitter's location.
	Position orbit.LatLon
	// Start is the emission start time.
	Start float64
	// Duration is the emission length.
	Duration float64
}

// End returns the emission stop time.
func (s Signal) End() float64 { return s.Start + s.Duration }

// PositionSampler draws emitter positions.
type PositionSampler interface {
	// Sample returns the next emitter position.
	Sample(r *stats.RNG) (orbit.LatLon, error)
}

// FixedPosition always returns the same location — the paper's
// worst-case analysis pins the emitter to the footprint-trajectory
// center line.
type FixedPosition struct {
	At orbit.LatLon
}

// Sample implements PositionSampler.
func (f FixedPosition) Sample(*stats.RNG) (orbit.LatLon, error) { return f.At, nil }

// LatitudeBand samples positions uniformly over the sphere's surface
// restricted to a latitude band (uniform in longitude and in sin(lat),
// which is area-uniform).
type LatitudeBand struct {
	MinLatDeg, MaxLatDeg float64
}

// Sample implements PositionSampler.
func (b LatitudeBand) Sample(r *stats.RNG) (orbit.LatLon, error) {
	if b.MinLatDeg >= b.MaxLatDeg || b.MinLatDeg < -90 || b.MaxLatDeg > 90 {
		return orbit.LatLon{}, fmt.Errorf("signal: latitude band [%g, %g] invalid", b.MinLatDeg, b.MaxLatDeg)
	}
	sinLo := math.Sin(b.MinLatDeg * math.Pi / 180)
	sinHi := math.Sin(b.MaxLatDeg * math.Pi / 180)
	lat := math.Asin(sinLo + (sinHi-sinLo)*r.Float64())
	lon := -math.Pi + 2*math.Pi*r.Float64()
	return orbit.LatLon{Lat: lat, Lon: lon}, nil
}

// Workload generates Poisson signal arrivals.
type Workload struct {
	// RatePerMin is the Poisson arrival rate of signals (min⁻¹).
	RatePerMin float64
	// Duration draws each signal's emission length (the paper: Exp(µ)).
	Duration stats.Distribution
	// Position draws each signal's location.
	Position PositionSampler
}

// NewWorkload validates and constructs a workload.
func NewWorkload(ratePerMin float64, duration stats.Distribution, position PositionSampler) (*Workload, error) {
	if ratePerMin <= 0 || math.IsNaN(ratePerMin) {
		return nil, fmt.Errorf("signal: arrival rate %g must be positive", ratePerMin)
	}
	if duration == nil {
		return nil, fmt.Errorf("signal: duration distribution is required")
	}
	if position == nil {
		return nil, fmt.Errorf("signal: position sampler is required")
	}
	return &Workload{RatePerMin: ratePerMin, Duration: duration, Position: position}, nil
}

// Generate draws all signals starting in [0, horizon), ordered by start
// time.
func (w *Workload) Generate(horizonMin float64, r *stats.RNG) ([]Signal, error) {
	if horizonMin <= 0 || math.IsNaN(horizonMin) {
		return nil, fmt.Errorf("signal: horizon %g must be positive", horizonMin)
	}
	if r == nil {
		return nil, fmt.Errorf("signal: RNG is required")
	}
	var out []Signal
	t := 0.0
	for {
		t += r.Exp(w.RatePerMin)
		if t >= horizonMin {
			break
		}
		pos, err := w.Position.Sample(r)
		if err != nil {
			return nil, err
		}
		out = append(out, Signal{
			ID:       len(out),
			Position: pos,
			Start:    t,
			Duration: w.Duration.Sample(r),
		})
	}
	return out, nil
}

// Compile-time interface checks.
var (
	_ PositionSampler = FixedPosition{}
	_ PositionSampler = LatitudeBand{}
)
