// Package san is a small stochastic-activity-network (SAN) engine in the
// spirit of UltraSAN (Sanders et al., Performance Evaluation 24(1),
// 1995), which the paper uses to evaluate the orbital-plane capacity
// distribution P(k).
//
// A model is a set of places holding tokens and a set of activities that
// fire — exponentially timed or deterministically timed — transforming
// the marking. The engine provides:
//
//   - reachability-graph generation and CTMC extraction for
//     exponential-only models;
//   - transient solution by uniformization, plus exact time-averaged
//     occupancy over a horizon (the quantity the renewal argument needs
//     for deterministic restart activities), both weighted by Fox–Glynn
//     Poisson probabilities and stopped once the chain is absorbed;
//   - mean time to absorption; and
//   - a discrete-event simulator that also supports deterministic
//     activities, used to validate the analytic paths.
//
// The package's tests add the steady-state solver, absorption
// probabilities, reward variables, and the Erlang phase-approximation
// rewrite of deterministic activities as referees.
//
// The paper's plane-capacity model has exactly one deterministic activity
// (the scheduled ground-spare deployment with period φ) which resets the
// model to its initial marking, so the renewal route is exact: P(k) is
// the time average of the transient distribution over one period. See
// package capacity.
package san

import (
	"fmt"
	"math"
	"strconv"
	"strings"
)

// Marking is the state of a SAN: the token count in each place, indexed
// by place position in the model.
type Marking []int

// Clone returns an independent copy of the marking.
func (m Marking) Clone() Marking {
	c := make(Marking, len(m))
	copy(c, m)
	return c
}

// Key returns a canonical string form usable as a map key.
func (m Marking) Key() string {
	var b strings.Builder
	for i, v := range m {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(strconv.Itoa(v))
	}
	return b.String()
}

// Equal reports whether two markings are identical.
func (m Marking) Equal(o Marking) bool {
	if len(m) != len(o) {
		return false
	}
	for i := range m {
		if m[i] != o[i] {
			return false
		}
	}
	return true
}

// Place is a token holder.
type Place struct {
	// Name identifies the place in diagnostics.
	Name string
	// Initial is the token count in the initial marking.
	Initial int
}

// Timing distinguishes activity firing-time distributions.
type Timing int

// Supported activity timings.
const (
	// TimingExponential activities fire after an exponential delay whose
	// rate may depend on the marking.
	TimingExponential Timing = iota + 1
	// TimingDeterministic activities fire a fixed Delay after becoming
	// enabled (enabling-memory policy: the timer survives marking changes
	// while the activity stays enabled, and resets when it is disabled).
	TimingDeterministic
)

// Activity is a timed transition of the SAN. Input/output gate predicates
// and functions of classical SAN notation are folded into Enabled and
// Effect.
type Activity struct {
	// Name identifies the activity in diagnostics.
	Name string
	// Timing selects the firing-time distribution.
	Timing Timing
	// Rate returns the exponential firing rate in the given marking.
	// It is consulted only for TimingExponential activities. A
	// non-positive rate disables the activity in that marking.
	Rate func(Marking) float64
	// Delay is the deterministic firing delay, consulted only for
	// TimingDeterministic activities.
	Delay float64
	// Enabled guards the activity; a nil Enabled means always enabled
	// (subject to Rate > 0 for exponential activities).
	Enabled func(Marking) bool
	// Effect returns the marking after firing. It must not modify its
	// argument.
	Effect func(Marking) Marking
}

func (a Activity) enabledIn(m Marking) bool {
	if a.Enabled != nil && !a.Enabled(m) {
		return false
	}
	if a.Timing == TimingExponential {
		return a.Rate != nil && a.Rate(m) > 0
	}
	return true
}

// Model is a complete SAN.
type Model struct {
	Places     []Place
	Activities []Activity
}

// Validate checks structural well-formedness.
func (m *Model) Validate() error {
	if len(m.Places) == 0 {
		return fmt.Errorf("san: model has no places")
	}
	if len(m.Activities) == 0 {
		return fmt.Errorf("san: model has no activities")
	}
	for i, p := range m.Places {
		if p.Initial < 0 {
			return fmt.Errorf("san: place %q (#%d) has negative initial tokens %d", p.Name, i, p.Initial)
		}
	}
	for i, a := range m.Activities {
		if a.Effect == nil {
			return fmt.Errorf("san: activity %q (#%d) has nil Effect", a.Name, i)
		}
		switch a.Timing {
		case TimingExponential:
			if a.Rate == nil {
				return fmt.Errorf("san: exponential activity %q (#%d) has nil Rate", a.Name, i)
			}
		case TimingDeterministic:
			if a.Delay <= 0 || math.IsNaN(a.Delay) {
				return fmt.Errorf("san: deterministic activity %q (#%d) has non-positive delay %g", a.Name, i, a.Delay)
			}
		default:
			return fmt.Errorf("san: activity %q (#%d) has unknown timing %d", a.Name, i, a.Timing)
		}
	}
	return nil
}

// InitialMarking returns the model's initial marking.
func (m *Model) InitialMarking() Marking {
	mk := make(Marking, len(m.Places))
	for i, p := range m.Places {
		mk[i] = p.Initial
	}
	return mk
}

// HasDeterministic reports whether any activity is deterministically
// timed. Such models cannot be converted to a CTMC directly; use
// renewal analysis or simulation.
func (m *Model) HasDeterministic() bool {
	for _, a := range m.Activities {
		if a.Timing == TimingDeterministic {
			return true
		}
	}
	return false
}

// ExponentialOnly returns a copy of the model with all deterministic
// activities removed. This is the embedded subordinate process used by
// renewal analysis: between firings of the deterministic restart
// activity, only the exponential activities evolve the marking.
func (m *Model) ExponentialOnly() *Model {
	out := &Model{Places: append([]Place(nil), m.Places...)}
	for _, a := range m.Activities {
		if a.Timing == TimingExponential {
			out.Activities = append(out.Activities, a)
		}
	}
	return out
}
