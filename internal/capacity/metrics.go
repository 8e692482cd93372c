package capacity

import (
	"fmt"
	"maps"
	"slices"

	"satqos/internal/san"
)

// MeanTimeToThreshold returns the expected time (hours) for a freshly
// deployed plane (N actives + S spares) to degrade to the threshold
// capacity η, assuming no scheduled deployment intervenes — the
// first-passage dual of the time-averaged distribution P(k). It is the
// quantity a mission planner compares against the scheduled-deployment
// period φ: when it is much smaller than φ, the plane spends most of
// each cycle at the threshold (the high-λ regime of Figure 7).
func (p Params) MeanTimeToThreshold() (float64, error) {
	if err := p.Validate(); err != nil {
		return 0, err
	}
	if p.Eta == p.ActivePerPlane && p.Spares == 0 {
		return 0, nil
	}
	ctmc, err := san.BuildCTMC(p.Model().ExponentialOnly(), 0)
	if err != nil {
		return 0, fmt.Errorf("capacity: threshold chain: %w", err)
	}
	mtta, err := ctmc.MeanTimeToAbsorption()
	if err != nil {
		return 0, fmt.Errorf("capacity: MTTA: %w", err)
	}
	start := ctmc.StateIndex(san.Marking{p.ActivePerPlane, p.Spares})
	if start < 0 {
		return 0, fmt.Errorf("capacity: initial marking unreachable")
	}
	return mtta[start], nil
}

// ConstellationDistribution composes nPlanes independent, identically
// protected planes into the distribution of the total active satellite
// count (the paper's planes share no spares, making independence exact
// in this model). The convolution is computed exactly over the plane
// support, accumulating in ascending order of the partial total so the
// floating-point result is the same on every call.
func ConstellationDistribution(p Params, nPlanes int) (map[int]float64, error) {
	if nPlanes < 1 {
		return nil, fmt.Errorf("capacity: %d planes, need at least 1", nPlanes)
	}
	plane, err := p.Analytic()
	if err != nil {
		return nil, err
	}
	total := map[int]float64{0: 1}
	for i := 0; i < nPlanes; i++ {
		next := make(map[int]float64, len(total)*len(plane.Support()))
		for _, sum := range slices.Sorted(maps.Keys(total)) {
			for _, k := range plane.Support() {
				next[sum+k] += total[sum] * plane.P(k)
			}
		}
		total = next
	}
	return total, nil
}

// ConstellationAtLeast returns P(total active satellites >= m) for a
// constellation of nPlanes independent planes.
func ConstellationAtLeast(p Params, nPlanes, m int) (float64, error) {
	dist, err := ConstellationDistribution(p, nPlanes)
	if err != nil {
		return 0, err
	}
	var s float64
	for _, total := range slices.Sorted(maps.Keys(dist)) {
		if total >= m {
			s += dist[total]
		}
	}
	if s > 1 {
		s = 1
	}
	return s, nil
}
