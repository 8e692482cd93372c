// Package oaq implements the paper's primary contribution: the
// opportunity-adaptive QoS enhancement (OAQ) protocol of §3, as an
// executable distributed protocol over simulated crosslinks, plus the
// BAQ baseline.
//
// The protocol is leaderless. The first satellite to detect a signal
// computes a preliminary geolocation result and then progressively
// expands the coordination — by crosslink message-passing only — within
// the window of opportunity determined by the alert deadline τ, the
// signal's (unknown) remaining duration, and the travel pattern of the
// peer satellites:
//
//   - In the overlapping regime it withholds the preliminary result and
//     waits for overlapped footprints to arrive (simultaneous multiple
//     coverage, QoS level 3), falling back to the preliminary result at
//     the deadline.
//   - In the underlapping regime it sends a coordination request — with
//     its measurements and result — to the peer expected to visit the
//     target next, which iterates the computation when its footprint
//     arrives (sequential multiple coverage, level 2), and may extend
//     the chain further.
//
// Termination follows the paper's three conditions: TC-1 (estimated
// error small enough), TC-2 (elapsed time exceeds the local threshold
// τ − (nδ + T_g)), and TC-3 (the signal stopped). Completion is
// propagated by "coordination done" messages down the chain; the
// backward-messaging variant guarantees alert delivery even when an
// upstream peer becomes fail-silent, while the no-backward variant (the
// one the paper's evaluation assumes) lets the last satellite deliver
// the inherited result instead.
//
// Time is in minutes, consistent with the analytic model in package qos
// that this simulation validates.
package oaq

import (
	"fmt"
	"math"

	"satqos/internal/fault"
	"satqos/internal/obs"
	"satqos/internal/obs/trace"
	"satqos/internal/qos"
	"satqos/internal/route"
	"satqos/internal/stats"
)

// Params configures one protocol evaluation setting: a single orbital
// plane with k active satellites observing a worst-case target on its
// footprint-trajectory center line.
type Params struct {
	// K is the plane's active capacity (determines Tr[k] and the
	// overlap/underlap regime).
	K int
	// Geom is the plane geometry (θ, Tc).
	Geom qos.Geometry
	// Scheme selects OAQ or the BAQ baseline.
	Scheme qos.Scheme
	// TauMin is the alert-delivery deadline τ, measured from initial
	// detection (footnote 2 of the paper).
	TauMin float64
	// DeltaMin is δ, the maximum inter-satellite message delay.
	DeltaMin float64
	// TgMin is T_g, the bound on one geolocation computation used by the
	// TC-2 local threshold.
	TgMin float64
	// SignalDuration is the distribution f of signal durations (the
	// paper: Exp(µ)).
	SignalDuration stats.Distribution
	// ComputeTime is the distribution h of one iterative geolocation
	// computation (the paper: Exp(ν)).
	ComputeTime stats.Distribution
	// BackwardMessaging enables "coordination done" back-propagation
	// with per-satellite wait timeouts (guaranteed delivery, Fig. 4).
	// When false — the paper's evaluation assumption — the satellite
	// receiving a request is responsible for the inherited result.
	BackwardMessaging bool
	// FailSilentProb is the probability that each satellite after the
	// detecting one is fail-silent for the episode.
	FailSilentProb float64
	// MessageLossProb is the per-message crosslink loss probability
	// (0 for the paper's analysis; 1 models a total crosslink outage).
	// Lost coordination requests and done notifications exercise the
	// timeout machinery.
	MessageLossProb float64
	// RequestRetries enables a bounded retransmission/ack option for
	// coordination requests: the receiver acknowledges each request, and
	// the sender retransmits after a 2δ round-trip timeout up to this
	// many times — but only while a successful handoff could still
	// complete one computation before the deadline (t + 2δ + T_g ≤
	// t0 + τ), so the TC-2 threshold math is unaffected. When the budget
	// or the window is exhausted the sender abandons the forward and
	// delivers its own result (TermRetriesExhausted) instead of stalling.
	// Zero disables the option (the paper's protocol).
	RequestRetries int
	// Faults, when non-nil, scripts a deterministic fault timeline into
	// every episode (package fault): timed fail-silent windows addressed
	// by chain ordinal (1 = the detector), crosslink loss bursts, and
	// delayed spare deployment. Scenario time zero is the episode's
	// detection time t0.
	Faults *fault.Scenario
	// Route, when non-nil, backs both crosslink networks with a routed
	// multi-hop ISL fabric (package route): messages queue at per-node
	// FIFOs, pay transmission and propagation delay per hop, contend
	// with the configured background cross-traffic, and are forwarded by
	// the configured policy. Nil keeps the paper's ideal delay-δ
	// channel.
	Route *route.Config
	// MembershipAware integrates the §5 follow-on: when expanding the
	// chain, a satellite consults its membership view of the plane (the
	// protocol of internal/membership) and addresses the coordination
	// request to the next peer *not excluded from the view*, skipping
	// known-failed satellites instead of wasting the window on them.
	MembershipAware bool
	// MaxChain caps the coordination chain length (0 = unlimited; the
	// geometry and deadline bound it anyway, per Eq. (2)).
	MaxChain int
	// ErrorThresholdKm enables TC-1 when positive: coordination stops
	// once the estimated error (DefaultErrorModel) falls to or below the
	// threshold.
	ErrorThresholdKm float64
	// Metrics, when non-nil, receives the evaluation's metric families
	// (episode outcomes, termination causes, per-kind protocol event
	// counts, alert-latency and crosslink-delay histograms, DES kernel
	// counters) in one publish at the end of the run. Instrumentation
	// never reads the RNG and accumulates per shard, merging in shard
	// order, so enabling metrics changes neither the results nor their
	// bit-identical-at-any-worker-count property — and the published
	// snapshot is itself identical for any worker count. Nil disables
	// instrumentation at zero cost.
	Metrics *obs.Registry
	// Tracing, when non-nil, enables span tracing: every episode is
	// recorded into a preallocated ring buffer and retained per the
	// config's head-sampling interval and anomaly (flight-recorder)
	// policy. Like Metrics, the tracer never reads the RNG and never
	// perturbs event order, so results are bit-identical with tracing on
	// or off at any worker count; retained traces land in
	// Tracing.Collector sorted by (scope, episode ordinal). Nil disables
	// tracing at the cost of one pointer compare per hook.
	Tracing *trace.Config
}

// DefaultErrorModel is the estimated-error curve of TC-1: a
// single-pass Doppler fix of about 15 km 1σ improving with the square
// root of the number of fused passes — the qualitative behavior of the
// sequential localizer in package geoloc.
func DefaultErrorModel(passes int) float64 {
	if passes < 1 {
		return math.Inf(1)
	}
	return 15 / math.Sqrt(float64(passes))
}

// ReferenceParams returns the paper's evaluation setting for a plane
// with k active satellites: reference geometry, τ = 5, µ = 0.5, ν = 30,
// no-backward messaging, no failures during coordination, and small
// protocol constants δ and T_g (the analytic model treats them as
// negligible; these defaults keep them two orders of magnitude below τ).
func ReferenceParams(k int, scheme qos.Scheme) Params {
	return Params{
		K:              k,
		Geom:           qos.ReferenceGeometry(),
		Scheme:         scheme,
		TauMin:         5,
		DeltaMin:       0.01,
		TgMin:          0.05,
		SignalDuration: stats.Exponential{Rate: 0.5},
		ComputeTime:    stats.Exponential{Rate: 30},
	}
}

// Validate checks parameter consistency.
func (p Params) Validate() error {
	if _, err := qos.NewGeometry(p.Geom.ThetaMin, p.Geom.TcMin); err != nil {
		return err
	}
	switch {
	case p.K < 1:
		return fmt.Errorf("oaq: plane capacity k = %d must be positive", p.K)
	case !p.Scheme.Valid():
		return fmt.Errorf("oaq: unknown scheme %d", int(p.Scheme))
	case p.TauMin <= 0 || math.IsNaN(p.TauMin) || math.IsInf(p.TauMin, 0):
		return fmt.Errorf("oaq: deadline τ = %g must be positive and finite", p.TauMin)
	case p.DeltaMin <= 0 || math.IsNaN(p.DeltaMin) || math.IsInf(p.DeltaMin, 0):
		return fmt.Errorf("oaq: message delay bound δ = %g must be positive and finite", p.DeltaMin)
	case p.TgMin <= 0 || math.IsNaN(p.TgMin) || math.IsInf(p.TgMin, 0):
		return fmt.Errorf("oaq: computation bound T_g = %g must be positive and finite", p.TgMin)
	case p.SignalDuration == nil:
		return fmt.Errorf("oaq: signal-duration distribution is required")
	case p.ComputeTime == nil:
		return fmt.Errorf("oaq: computation-time distribution is required")
	case !positiveFiniteMean(p.SignalDuration):
		return fmt.Errorf("oaq: signal-duration distribution mean %g must be positive and finite", p.SignalDuration.Mean())
	case !positiveFiniteMean(p.ComputeTime):
		return fmt.Errorf("oaq: computation-time distribution mean %g must be positive and finite", p.ComputeTime.Mean())
	case p.FailSilentProb < 0 || p.FailSilentProb > 1 || math.IsNaN(p.FailSilentProb):
		return fmt.Errorf("oaq: fail-silent probability %g outside [0, 1]", p.FailSilentProb)
	case p.MessageLossProb < 0 || p.MessageLossProb > 1 || math.IsNaN(p.MessageLossProb):
		return fmt.Errorf("oaq: message-loss probability %g outside [0, 1]", p.MessageLossProb)
	case p.MaxChain < 0:
		return fmt.Errorf("oaq: negative chain cap %d", p.MaxChain)
	case p.RequestRetries < 0:
		return fmt.Errorf("oaq: negative request-retry budget %d", p.RequestRetries)
	}
	if p.Faults != nil {
		if err := p.Faults.Validate(); err != nil {
			return err
		}
	}
	if p.Route != nil {
		if err := p.Route.Validate(); err != nil {
			return err
		}
	}
	if p.Tracing != nil {
		if err := p.Tracing.Validate(); err != nil {
			return err
		}
	}
	return nil
}

// positiveFiniteMean reports whether the distribution's mean is a
// positive finite number — the guard that keeps mis-parameterized
// distributions (e.g. a non-positive exponential rate, which would
// panic at sampling time) out of the episode runner.
func positiveFiniteMean(d stats.Distribution) bool {
	m := d.Mean()
	return m > 0 && !math.IsInf(m, 0) && !math.IsNaN(m)
}

// Termination identifies why the coordinated optimization stopped.
type Termination int

// Termination causes, mirroring §3.2.
const (
	// TermNone: the episode produced no coordination to terminate (the
	// target escaped, or a simultaneous-coverage shortcut applied).
	TermNone Termination = iota + 1
	// TermErrorThreshold: TC-1 — the estimated error dropped below the
	// threshold.
	TermErrorThreshold
	// TermDeadline: TC-2 — the elapsed time exceeded the local
	// threshold, leaving no guaranteed room for another iteration.
	TermDeadline
	// TermSignalLost: TC-3 — the signal stopped before the next
	// footprint arrived.
	TermSignalLost
	// TermTimeout: a downstream satellite's wait timer expired without a
	// "coordination done" notification (peer failure or late signal
	// loss), and it delivered its own result.
	TermTimeout
	// TermChainCap: the configured MaxChain bound stopped expansion.
	TermChainCap
	// TermRetriesExhausted: the retransmission budget for a forwarded
	// coordination request ran out (or no retry window remained) without
	// an acknowledgement — the peer is unreachable under the current
	// faults — and the sender abandoned the forward, delivering its own
	// result instead.
	TermRetriesExhausted
)

// numTerminations sizes per-cause accumulators (the enum starts at 1).
const numTerminations = int(TermRetriesExhausted) + 1

// String implements fmt.Stringer.
func (t Termination) String() string {
	switch t {
	case TermNone:
		return "none"
	case TermErrorThreshold:
		return "tc1-error-threshold"
	case TermDeadline:
		return "tc2-deadline"
	case TermSignalLost:
		return "tc3-signal-lost"
	case TermTimeout:
		return "wait-timeout"
	case TermChainCap:
		return "chain-cap"
	case TermRetriesExhausted:
		return "retries-exhausted"
	default:
		return fmt.Sprintf("Termination(%d)", int(t))
	}
}
