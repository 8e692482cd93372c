package fault

import (
	"math"

	"satqos/internal/crosslink"
	"satqos/internal/des"
	"satqos/internal/stats"
)

// Target binds a scenario to one episode's simulation and fabrics.
type Target struct {
	Sim *des.Simulation
	// Origin is the simulation time scenario time zero maps to (the
	// detection event for OAQ episodes).
	Origin float64
	// RNG supplies the per-window jitter draws. Arm consumes exactly one
	// draw per fail-silent window and one per loss burst, in scenario
	// order, so the episode's downstream randomness does not depend on
	// the jitter values themselves.
	RNG *stats.RNG
	// Detector is the fabric node ID of chain ordinal 1; ordinal k maps
	// to Detector + k − 1, its (k−1)-th successor.
	Detector crosslink.NodeID
	// Links is the inter-satellite fabric: loss bursts and fail-silence
	// apply here.
	Links *crosslink.Network
	// Ground, if non-nil, is the satellite-to-ground fabric; fail-silent
	// satellites go silent on it too (a fail-silent node emits nothing
	// on any link).
	Ground *crosslink.Network
}

// Counts reports what Arm scheduled, for metrics accounting.
type Counts struct {
	FailSilentWindows int
	LossBursts        int
}

// Injector arms scenarios onto successive episodes. It keeps the armed
// transitions and their des.Agenda in storage reused from one Arm to the
// next, and hands each transition to the simulation as an event
// argument rather than a closure, so a steady-state Arm allocates
// nothing. An Injector is single-goroutine, like the episode that owns
// it; the zero value is ready to use.
type Injector struct {
	agenda des.Agenda
	acts   []transition
}

// transition is one scripted fabric change.
type transition struct {
	links, ground *crosslink.Network
	node          crosslink.NodeID
	loss          bool // a loss-probability change, else a fail-silence mark
	silent        bool
	prob          float64
}

// Agenda labels (constant so arming never builds strings).
const (
	labelSilentOn  = "agenda:failsilent-on"
	labelSilentOff = "agenda:failsilent-off"
	labelLossOn    = "agenda:lossburst-on"
	labelLossOff   = "agenda:lossburst-off"
)

// Arm schedules the scenario's timeline onto the target episode via a
// des.Agenda: fail-silent onset/recovery marks on both fabrics, and
// loss-probability overrides on the inter-satellite links with the base
// probability restored at each burst's end. Windows that start before
// the origin (or before the simulation's current time) take effect
// immediately. Arm must be called once per episode, after the fabrics
// and the simulation are reset: it reuses the previous arming's
// transitions, so none of its events may still be pending.
func (in *Injector) Arm(s *Scenario, t Target) Counts {
	if s.Empty() {
		return Counts{}
	}
	in.agenda.Reset()
	// Size the transitions up front: the agenda holds pointers into acts,
	// so it must not reallocate while they are added.
	if n := 2 * (len(s.FailSilent) + len(s.LossBursts)); cap(in.acts) < n {
		in.acts = make([]transition, 0, n)
	}
	in.acts = in.acts[:0]
	add := func(at float64, label string, tr transition) {
		in.acts = append(in.acts, tr)
		in.agenda.Add(at, label, applyTransition, &in.acts[len(in.acts)-1])
	}
	for _, w := range s.FailSilent {
		jitter := w.JitterMin * t.RNG.Float64()
		mark := transition{links: t.Links, ground: t.Ground, node: t.Detector + crosslink.NodeID(w.Sat-1), silent: true}
		add(w.StartMin+jitter, labelSilentOn, mark)
		if end := s.recoveryTime(w); !math.IsInf(end, 1) {
			mark.silent = false
			add(end+jitter, labelSilentOff, mark)
		}
	}
	base := t.Links.LossProb()
	for _, b := range s.LossBursts {
		jitter := b.JitterMin * t.RNG.Float64()
		add(b.StartMin+jitter, labelLossOn, transition{links: t.Links, loss: true, prob: b.Prob})
		add(b.EndMin+jitter, labelLossOff, transition{links: t.Links, loss: true, prob: base})
	}
	in.agenda.Arm(t.Sim, t.Origin)
	return Counts{FailSilentWindows: len(s.FailSilent), LossBursts: len(s.LossBursts)}
}

// applyTransition is the agenda action for every transition.
func applyTransition(_ float64, arg any) {
	tr := arg.(*transition)
	if tr.loss {
		tr.links.SetLossProb(tr.prob)
		return
	}
	tr.links.SetFailSilent(tr.node, tr.silent)
	if tr.ground != nil {
		tr.ground.SetFailSilent(tr.node, tr.silent)
	}
}
