package san

import (
	"fmt"
	"math"
	"testing"

	"satqos/internal/mat"
	"satqos/internal/stats"
)

// birthChain builds a pure-birth chain 0 → 1 → … → n with the given
// per-stage rates (absorbing at n).
func birthChain(rates []float64) *Model {
	n := len(rates)
	return &Model{
		Places: []Place{{Name: "stage", Initial: 0}},
		Activities: []Activity{{
			Name: "advance", Timing: TimingExponential,
			Rate: func(m Marking) float64 {
				if m[0] < n {
					return rates[m[0]]
				}
				return 0
			},
			Effect: func(m Marking) Marking {
				next := m.Clone()
				next[0]++
				return next
			},
		}},
	}
}

func TestMeanTimeToAbsorptionHypoexponential(t *testing.T) {
	rates := []float64{2, 0.5, 1}
	ctmc, err := BuildCTMC(birthChain(rates), 0)
	if err != nil {
		t.Fatal(err)
	}
	mtta, err := ctmc.MeanTimeToAbsorption()
	if err != nil {
		t.Fatal(err)
	}
	// From stage 0: 1/2 + 2 + 1 = 3.5; from stage 1: 3; from 2: 1.
	start := ctmc.StateIndex(Marking{0})
	if !approx(mtta[start], 3.5, 1e-10) {
		t.Errorf("MTTA from start = %v, want 3.5", mtta[start])
	}
	if s2 := ctmc.StateIndex(Marking{2}); !approx(mtta[s2], 1, 1e-10) {
		t.Errorf("MTTA from stage 2 = %v, want 1", mtta[s2])
	}
	if absorbingState := ctmc.StateIndex(Marking{3}); mtta[absorbingState] != 0 {
		t.Errorf("MTTA at absorbing state = %v, want 0", mtta[absorbingState])
	}
}

func TestMeanTimeToAbsorptionMatchesSimulation(t *testing.T) {
	rates := []float64{0.7, 1.3, 0.4}
	m := birthChain(rates)
	ctmc, err := BuildCTMC(m, 0)
	if err != nil {
		t.Fatal(err)
	}
	mtta, err := ctmc.MeanTimeToAbsorption()
	if err != nil {
		t.Fatal(err)
	}
	want := 1/0.7 + 1/1.3 + 1/0.4
	start := ctmc.StateIndex(Marking{0})
	if !approx(mtta[start], want, 1e-10) {
		t.Errorf("MTTA = %v, want %v", mtta[start], want)
	}
	// Monte-Carlo check through the simulator: measure first passage by
	// sampling stage sojourns directly.
	rng := stats.NewRNG(3, 0)
	var sum float64
	const trials = 20000
	for i := 0; i < trials; i++ {
		for _, r := range rates {
			sum += rng.Exp(r)
		}
	}
	if est := sum / trials; math.Abs(est-want) > 0.05 {
		t.Errorf("simulated MTTA = %v, want %v", est, want)
	}
}

func TestMeanTimeToAbsorptionErrors(t *testing.T) {
	// Irreducible chain: no absorbing state.
	ctmc, err := BuildCTMC(twoStateModel(1, 2), 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ctmc.MeanTimeToAbsorption(); err == nil {
		t.Error("chain without absorbing states accepted")
	}
}

func TestAbsorbingStates(t *testing.T) {
	ctmc, err := BuildCTMC(birthChain([]float64{1, 1}), 0)
	if err != nil {
		t.Fatal(err)
	}
	abs := ctmc.AbsorbingStates()
	if len(abs) != 1 || !ctmc.State(abs[0]).Equal(Marking{2}) {
		t.Errorf("AbsorbingStates = %v", abs)
	}
}

// forkChain: from state 0, two competing activities absorb into
// markings {1} (rate a) and {2} (rate b).
func forkChain(a, b float64) *Model {
	return &Model{
		Places: []Place{{Name: "s", Initial: 0}},
		Activities: []Activity{
			{
				Name: "left", Timing: TimingExponential,
				Rate: func(m Marking) float64 {
					if m[0] == 0 {
						return a
					}
					return 0
				},
				Effect: func(m Marking) Marking { return Marking{1} },
			},
			{
				Name: "right", Timing: TimingExponential,
				Rate: func(m Marking) float64 {
					if m[0] == 0 {
						return b
					}
					return 0
				},
				Effect: func(m Marking) Marking { return Marking{2} },
			},
		},
	}
}

func TestAbsorptionProbabilities(t *testing.T) {
	a, b := 3.0, 1.0
	ctmc, err := BuildCTMC(forkChain(a, b), 0)
	if err != nil {
		t.Fatal(err)
	}
	left := ctmc.StateIndex(Marking{1})
	probs, err := ctmc.AbsorptionProbabilities(left)
	if err != nil {
		t.Fatal(err)
	}
	start := ctmc.StateIndex(Marking{0})
	if !approx(probs[start], a/(a+b), 1e-10) {
		t.Errorf("absorption probability = %v, want %v", probs[start], a/(a+b))
	}
	if probs[left] != 1 {
		t.Errorf("target absorbing probability = %v, want 1", probs[left])
	}
	right := ctmc.StateIndex(Marking{2})
	if probs[right] != 0 {
		t.Errorf("other absorbing probability = %v, want 0", probs[right])
	}
	// Errors.
	if _, err := ctmc.AbsorptionProbabilities(start); err == nil {
		t.Error("non-absorbing target accepted")
	}
	if _, err := ctmc.AbsorptionProbabilities(99); err == nil {
		t.Error("out-of-range target accepted")
	}
}

// AbsorptionProbabilities returns, for each transient state, the
// probability of being absorbed in the given absorbing state (1 for the
// absorbing state itself, 0 for other absorbing states).
func (c *CTMC) AbsorptionProbabilities(target int) ([]float64, error) {
	n := len(c.states)
	if target < 0 || target >= n {
		return nil, fmt.Errorf("san: absorbing state %d out of range", target)
	}
	if len(c.edges[target]) != 0 {
		return nil, fmt.Errorf("san: state %d is not absorbing", target)
	}
	absorbing := make([]bool, n)
	for _, i := range c.AbsorbingStates() {
		absorbing[i] = true
	}
	idx := make([]int, 0, n)
	pos := make(map[int]int, n)
	for i := 0; i < n; i++ {
		if !absorbing[i] {
			pos[i] = len(idx)
			idx = append(idx, i)
		}
	}
	if len(idx) == 0 {
		out := make([]float64, n)
		out[target] = 1
		return out, nil
	}
	// (I − P_TT) h = P_T→target.
	a := mat.Identity(len(idx))
	b := make([]float64, len(idx))
	for row, i := range idx {
		for _, tr := range c.edges[i] {
			p := tr.Rate / c.exit[i]
			switch {
			case tr.To == target:
				b[row] += p
			case !absorbing[tr.To]:
				a.Add(row, pos[tr.To], -p)
			}
		}
	}
	sol, err := mat.Solve(a, b)
	if err != nil {
		return nil, fmt.Errorf("san: absorption system: %w", err)
	}
	out := make([]float64, n)
	out[target] = 1
	for row, i := range idx {
		out[i] = sol[row]
	}
	return out, nil
}
