package stochgeom

import (
	"fmt"
	"math"

	"satqos/internal/capacity"
	"satqos/internal/constellation"
)

// Design is a constellation design under the BPP model: one or more
// independent shells (a single Walker shell, or a LEO/MEO hybrid
// mixture). The visible-satellite count is the sum of the shells'
// independent binomials.
type Design struct {
	Shells []Shell
}

// FromConfig wraps a single constellation.Config as a one-shell
// design.
func FromConfig(cfg constellation.Config) (Design, error) {
	s, err := ShellFromConfig(cfg)
	if err != nil {
		return Design{}, err
	}
	return Design{Shells: []Shell{s}}, nil
}

// FromPreset builds the design of a named constellation preset.
func FromPreset(name string) (Design, error) {
	cfg, err := constellation.PresetConfig(name)
	if err != nil {
		return Design{}, err
	}
	return FromConfig(cfg)
}

// Validate checks every shell.
func (d Design) Validate() error {
	if len(d.Shells) == 0 {
		return fmt.Errorf("stochgeom: design has no shells")
	}
	for i, s := range d.Shells {
		if err := s.Validate(); err != nil {
			return fmt.Errorf("shell %d: %w", i, err)
		}
	}
	return nil
}

// TotalSatellites returns the fleet size across all shells.
func (d Design) TotalSatellites() int {
	n := 0
	for _, s := range d.Shells {
		n += s.N
	}
	return n
}

// PVisible returns P(K = k) for a target at latitude lat without
// materializing the full distribution — the O(1)-in-step-count point
// query of the acceptance benchmark. For a single shell this is one
// cap integral and one binomial term; mixtures fall back to the full
// convolution (still independent of any time discretization).
func (d Design) PVisible(k int, lat float64) (float64, error) {
	if err := d.Validate(); err != nil {
		return 0, err
	}
	if k < 0 || k > d.TotalSatellites() {
		return 0, nil
	}
	if len(d.Shells) == 1 {
		s := d.Shells[0]
		p, err := s.VisibleProb(lat)
		if err != nil {
			return 0, err
		}
		switch {
		case p <= 0:
			if k == 0 {
				return 1, nil
			}
			return 0, nil
		case p >= 1:
			if k == s.N {
				return 1, nil
			}
			return 0, nil
		}
		lgN, _ := math.Lgamma(float64(s.N) + 1)
		lgK, _ := math.Lgamma(float64(k) + 1)
		lgNK, _ := math.Lgamma(float64(s.N-k) + 1)
		return math.Exp(lgN - lgK - lgNK +
			float64(k)*math.Log(p) + float64(s.N-k)*math.Log1p(-p)), nil
	}
	v, err := d.Evaluate(lat)
	if err != nil {
		return 0, err
	}
	return v.P(k), nil
}

// Visibility is the evaluated visible-satellite distribution of a
// design at one target latitude.
type Visibility struct {
	// Lat is the target latitude the design was evaluated at, radians.
	Lat float64
	// ShellProbs holds each shell's single-satellite visibility
	// probability p, in shell order.
	ShellProbs []float64
	// PMF is P(K = k) for k = 0..TotalSatellites.
	PMF []float64
}

// Evaluate computes the visible-count distribution at latitude lat
// (radians): each shell's cap integral, its binomial PMF, and the
// convolution across shells.
func (d Design) Evaluate(lat float64) (*Visibility, error) {
	if err := d.Validate(); err != nil {
		return nil, err
	}
	v := &Visibility{Lat: lat, ShellProbs: make([]float64, len(d.Shells))}
	for i, s := range d.Shells {
		p, err := s.VisibleProb(lat)
		if err != nil {
			return nil, err
		}
		v.ShellProbs[i] = p
		pmf := make([]float64, s.N+1)
		binomialPMF(pmf, s.N, p)
		if v.PMF == nil {
			v.PMF = pmf
			continue
		}
		// Convolve: the shells' visible counts are independent.
		out := make([]float64, len(v.PMF)+s.N)
		for a, pa := range v.PMF {
			if pa == 0 {
				continue
			}
			for b, pb := range pmf {
				out[a+b] += pa * pb
			}
		}
		v.PMF = out
	}
	return v, nil
}

// P returns P(K = k); zero outside [0, TotalSatellites].
func (v *Visibility) P(k int) float64 {
	if k < 0 || k >= len(v.PMF) {
		return 0
	}
	return v.PMF[k]
}

// CCDF returns P(K ≥ k), summed from the tail so small masses are not
// lost to cancellation.
func (v *Visibility) CCDF(k int) float64 {
	if k <= 0 {
		return 1
	}
	var tail float64
	for i := len(v.PMF) - 1; i >= k; i-- {
		tail += v.PMF[i]
	}
	if tail > 1 {
		tail = 1
	}
	return tail
}

// Mean returns E[K].
func (v *Visibility) Mean() float64 {
	var m float64
	for k, p := range v.PMF {
		m += float64(k) * p
	}
	return m
}

// CoverageFraction returns P(K ≥ 1): the coverage-opportunity
// fraction — the long-run fraction of time the target has at least
// one satellite overhead.
func (v *Visibility) CoverageFraction() float64 { return v.CCDF(1) }

// Localizability returns P(K ≥ minSats): the probability that enough
// satellites are simultaneously visible to localize the target
// (minSats = 4 for the classical positioning requirement).
func (v *Visibility) Localizability(minSats int) float64 { return v.CCDF(minSats) }

// CapacityDistribution adapts the visible-count distribution to the
// plane-capacity interface the analytic QoS model composes over
// (qos.Model.Compose): mass outside the support [eta, n] is folded
// onto the nearest bound, so the distribution stays normalized and
// the composition sees only capacities the two-regime model admits.
// eta must be at least 1 (the QoS model has no k = 0 state; for the
// mega-constellation designs this backend targets, P(K < 1) is
// negligible anyway).
func (v *Visibility) CapacityDistribution(eta, n int) (*capacity.Distribution, error) {
	if eta < 1 || n < eta {
		return nil, fmt.Errorf("stochgeom: capacity support [%d, %d] invalid (need 1 ≤ eta ≤ n)", eta, n)
	}
	return capacity.NewClampedDistribution(eta, n, v.PMF)
}
