package san

import (
	"fmt"

	"satqos/internal/mat"
)

// AbsorbingStates returns the indices of states with no outgoing
// transitions.
func (c *CTMC) AbsorbingStates() []int {
	var out []int
	for i, e := range c.edges {
		if len(e) == 0 {
			out = append(out, i)
		}
	}
	return out
}

// MeanTimeToAbsorption returns, for each state, the expected time until
// the chain reaches any absorbing state, by solving the linear system
//
//	m_i = 1/exit_i + Σ_j P(i→j) m_j
//
// over the transient states (m = 0 at absorbing states). An error is
// returned when the chain has no absorbing state, or when some transient
// state cannot reach absorption (the system is then singular).
//
// For the plane-capacity model this yields the expected time for a
// freshly deployed plane to degrade to the threshold capacity η — the
// dual of the time-averaged distribution P(k).
func (c *CTMC) MeanTimeToAbsorption() ([]float64, error) {
	n := len(c.states)
	absorbing := make([]bool, n)
	nAbsorbing := 0
	for _, i := range c.AbsorbingStates() {
		absorbing[i] = true
		nAbsorbing++
	}
	if nAbsorbing == 0 {
		return nil, fmt.Errorf("san: chain has no absorbing state")
	}
	if nAbsorbing == n {
		return make([]float64, n), nil
	}
	// Index the transient states.
	idx := make([]int, 0, n-nAbsorbing)
	pos := make(map[int]int, n-nAbsorbing)
	for i := 0; i < n; i++ {
		if !absorbing[i] {
			pos[i] = len(idx)
			idx = append(idx, i)
		}
	}
	// (I − P_TT) m = 1/exit, with P the jump-chain probabilities.
	a := mat.Identity(len(idx))
	b := make([]float64, len(idx))
	for row, i := range idx {
		b[row] = 1 / c.exit[i]
		for _, tr := range c.edges[i] {
			if absorbing[tr.To] {
				continue
			}
			a.Add(row, pos[tr.To], -tr.Rate/c.exit[i])
		}
	}
	sol, err := mat.Solve(a, b)
	if err != nil {
		return nil, fmt.Errorf("san: MTTA system (some state may not reach absorption): %w", err)
	}
	out := make([]float64, n)
	for row, i := range idx {
		out[i] = sol[row]
	}
	return out, nil
}
