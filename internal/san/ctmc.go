package san

import (
	"fmt"
	"math"
)

// Transition is one outgoing CTMC edge.
type Transition struct {
	To   int
	Rate float64
	// Activity is the index of the SAN activity that produced the edge.
	Activity int
}

// CTMC is a finite continuous-time Markov chain extracted from the
// reachability graph of an exponential-only SAN model.
type CTMC struct {
	states []Marking
	index  map[string]int
	edges  [][]Transition
	exit   []float64 // total outgoing rate per state
}

// DefaultMaxStates bounds reachability exploration; the plane-capacity
// models in this repository have at most a few hundred states.
const DefaultMaxStates = 200000

// BuildCTMC explores the reachability graph of an exponential-only model
// from its initial marking and returns the CTMC. Models containing
// deterministic activities are rejected — use renewal analysis
// (RenewalAverage) or Simulate for those.
func BuildCTMC(m *Model, maxStates int) (*CTMC, error) {
	if err := m.Validate(); err != nil {
		return nil, err
	}
	if m.HasDeterministic() {
		return nil, fmt.Errorf("san: BuildCTMC on a model with deterministic activities; use renewal analysis or ExpandDeterministic")
	}
	if maxStates <= 0 {
		maxStates = DefaultMaxStates
	}
	c := &CTMC{index: make(map[string]int)}
	initial := m.InitialMarking()
	c.addState(initial)
	// Breadth-first reachability.
	for head := 0; head < len(c.states); head++ {
		from := c.states[head]
		var out []Transition
		var exit float64
		for ai := range m.Activities {
			a := &m.Activities[ai]
			if !a.enabledIn(from) {
				continue
			}
			rate := a.Rate(from)
			next := a.Effect(from)
			if len(next) != len(from) {
				return nil, fmt.Errorf("san: activity %q changed marking length %d -> %d", a.Name, len(from), len(next))
			}
			if next.Equal(from) {
				// Self-loops do not change the transient or stationary
				// distribution of a CTMC; drop them.
				continue
			}
			to, ok := c.index[next.Key()]
			if !ok {
				if len(c.states) >= maxStates {
					return nil, fmt.Errorf("san: reachability exceeded %d states", maxStates)
				}
				to = c.addState(next)
			}
			out = append(out, Transition{To: to, Rate: rate, Activity: ai})
			exit += rate
		}
		c.edges[head] = out
		c.exit[head] = exit
	}
	return c, nil
}

func (c *CTMC) addState(m Marking) int {
	id := len(c.states)
	c.states = append(c.states, m.Clone())
	c.index[m.Key()] = id
	c.edges = append(c.edges, nil)
	c.exit = append(c.exit, 0)
	return id
}

// NumStates returns the number of reachable tangible markings.
func (c *CTMC) NumStates() int { return len(c.states) }

// State returns the marking of state i.
func (c *CTMC) State(i int) Marking { return c.states[i].Clone() }

// StateIndex returns the index of a marking, or -1 when unreachable.
func (c *CTMC) StateIndex(m Marking) int {
	if i, ok := c.index[m.Key()]; ok {
		return i
	}
	return -1
}

// uniformizationRate returns Λ, a uniform bound on exit rates (with a
// little headroom so the DTMC keeps strictly positive self-loop mass,
// which guarantees aperiodicity for the power iteration).
func (c *CTMC) uniformizationRate() float64 {
	var mx float64
	for _, e := range c.exit {
		if e > mx {
			mx = e
		}
	}
	if mx == 0 {
		return 1 // absorbing-only chain; any Λ works
	}
	return mx * 1.02
}

// dtmcStep computes y = x P where P = I + Q/Λ is the uniformized chain.
func (c *CTMC) dtmcStep(lambda float64, x, y []float64) {
	for i := range y {
		y[i] = 0
	}
	for i, xi := range x {
		if xi == 0 {
			continue
		}
		stay := 1 - c.exit[i]/lambda
		y[i] += xi * stay
		for _, tr := range c.edges[i] {
			y[tr.To] += xi * tr.Rate / lambda
		}
	}
}

// TransientAverage returns the time-averaged state distribution
// (1/T)∫₀ᵀ p(t) dt starting from p0, computed exactly under
// uniformization:
//
//	(1/T)∫₀ᵀ p(t)dt = Σₙ vₙ · P(Pois(ΛT) > n)/(ΛT),
//
// where vₙ = p0·Pⁿ. This is the quantity needed by the renewal argument
// for the deterministic scheduled-deployment activity: the long-run
// fraction of time in each state equals the average over one period.
func (c *CTMC) TransientAverage(p0 []float64, t, eps float64) ([]float64, error) {
	if err := c.checkDist(p0); err != nil {
		return nil, err
	}
	if !(t > 0) {
		return nil, fmt.Errorf("san: TransientAverage non-positive horizon %g", t)
	}
	return c.uniformize(p0, t, eps, true)
}

func (c *CTMC) uniformize(p0 []float64, t, eps float64, average bool) ([]float64, error) {
	if eps <= 0 {
		eps = 1e-12
	}
	lambda := c.uniformizationRate()
	v, _, err := Uniformize(p0, lambda*t, eps, average,
		func(x, y []float64) { c.dtmcStep(lambda, x, y) },
		func(x []float64) float64 {
			var s float64
			for i, xi := range x {
				if c.exit[i] > 0 {
					s += xi
				}
			}
			return s
		})
	return v, err
}

// InitialDistribution returns the distribution concentrated on the given
// marking, which must be reachable.
func (c *CTMC) InitialDistribution(m Marking) ([]float64, error) {
	idx := c.StateIndex(m)
	if idx < 0 {
		return nil, fmt.Errorf("san: marking %s is not reachable", m.Key())
	}
	p := make([]float64, len(c.states))
	p[idx] = 1
	return p, nil
}

func (c *CTMC) checkDist(p []float64) error {
	if len(p) != len(c.states) {
		return fmt.Errorf("san: distribution length %d, want %d states", len(p), len(c.states))
	}
	var sum float64
	for _, v := range p {
		if v < -1e-12 {
			return fmt.Errorf("san: distribution has negative mass %g", v)
		}
		sum += v
	}
	if math.Abs(sum-1) > 1e-6 {
		return fmt.Errorf("san: distribution mass %g, want 1", sum)
	}
	return nil
}
