package san

import (
	"fmt"
	"math"

	"satqos/internal/stats"
)

// SimResult is the outcome of a simulation run: for each distinct marking
// visited, the fraction of simulated time spent in it.
type SimResult struct {
	// Occupancy maps marking keys to time fractions, summing to 1.
	Occupancy map[string]float64
	// Markings maps the same keys to the markings themselves.
	Markings map[string]Marking
	// Firings counts activity firings by activity name.
	Firings map[string]int
}

// Simulate runs the SAN as a discrete-event simulation for the given
// horizon. Exponential activities are memoryless and re-sampled after
// every firing; deterministic activities use the enabling-memory policy
// (the countdown persists across firings of other activities while the
// activity stays enabled, and resets when it is disabled).
func Simulate(m *Model, horizon float64, rng *stats.RNG) (*SimResult, error) {
	if err := m.Validate(); err != nil {
		return nil, err
	}
	if horizon <= 0 || math.IsNaN(horizon) {
		return nil, fmt.Errorf("san: Simulate horizon %g must be positive", horizon)
	}
	if rng == nil {
		return nil, fmt.Errorf("san: Simulate requires an RNG")
	}

	res := &SimResult{
		Occupancy: make(map[string]float64),
		Markings:  make(map[string]Marking),
		Firings:   make(map[string]int),
	}
	mark := m.InitialMarking()
	now := 0.0
	// Deterministic deadlines: NaN = disabled (no timer running).
	deadlines := make([]float64, len(m.Activities))
	for i := range deadlines {
		deadlines[i] = math.NaN()
	}

	record := func(until float64) {
		key := mark.Key()
		res.Occupancy[key] += until - now
		if _, ok := res.Markings[key]; !ok {
			res.Markings[key] = mark.Clone()
		}
	}

	for now < horizon {
		// Refresh deterministic timers according to enabling.
		for i := range m.Activities {
			a := &m.Activities[i]
			if a.Timing != TimingDeterministic {
				continue
			}
			if a.enabledIn(mark) {
				if math.IsNaN(deadlines[i]) {
					deadlines[i] = now + a.Delay
				}
			} else {
				deadlines[i] = math.NaN()
			}
		}
		// Race: earliest deterministic deadline vs. sampled exponential
		// winner.
		nextTime := math.Inf(1)
		nextAct := -1
		for i := range m.Activities {
			if t := deadlines[i]; !math.IsNaN(t) && t < nextTime {
				nextTime = t
				nextAct = i
			}
		}
		var totalRate float64
		rates := make([]float64, len(m.Activities))
		for i := range m.Activities {
			a := &m.Activities[i]
			if a.Timing != TimingExponential || !a.enabledIn(mark) {
				continue
			}
			r := a.Rate(mark)
			rates[i] = r
			totalRate += r
		}
		if totalRate > 0 {
			expTime := now + rng.Exp(totalRate)
			if expTime < nextTime {
				// Choose which exponential activity fired,
				// proportionally to rate.
				u := rng.Float64() * totalRate
				var acc float64
				for i, r := range rates {
					if r == 0 {
						continue
					}
					acc += r
					if u <= acc {
						nextTime = expTime
						nextAct = i
						break
					}
				}
			}
		}
		if nextAct < 0 || nextTime >= horizon {
			// Dead marking or horizon reached: account remaining time.
			record(horizon)
			now = horizon
			break
		}
		record(nextTime)
		now = nextTime
		a := &m.Activities[nextAct]
		mark = a.Effect(mark)
		res.Firings[a.Name]++
		if a.Timing == TimingDeterministic {
			deadlines[nextAct] = math.NaN() // re-armed at loop top if still enabled
		}
	}
	for key := range res.Occupancy {
		res.Occupancy[key] /= horizon
	}
	return res, nil
}

// RenewalAverage computes the long-run time-averaged state distribution
// of a model whose single deterministic activity fires every period and
// resets the model to its initial marking (a renewal). Between firings
// only the exponential activities evolve the state, so the long-run
// distribution equals the time average of the subordinate CTMC's
// transient over one period, started from the initial marking.
//
// It returns the CTMC of the subordinate exponential-only process along
// with the averaged distribution over its states, so callers can map
// states back to markings.
func RenewalAverage(m *Model, period float64, maxStates int, eps float64) (*CTMC, []float64, error) {
	if period <= 0 || math.IsNaN(period) {
		return nil, nil, fmt.Errorf("san: RenewalAverage period %g must be positive", period)
	}
	sub := m.ExponentialOnly()
	if len(sub.Activities) == 0 {
		return nil, nil, fmt.Errorf("san: RenewalAverage: model has no exponential activities")
	}
	ctmc, err := BuildCTMC(sub, maxStates)
	if err != nil {
		return nil, nil, err
	}
	p0, err := ctmc.InitialDistribution(sub.InitialMarking())
	if err != nil {
		return nil, nil, err
	}
	avg, err := ctmc.TransientAverage(p0, period, eps)
	if err != nil {
		return nil, nil, err
	}
	return ctmc, avg, nil
}
