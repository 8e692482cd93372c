// Package trace is the span-based tracing subsystem of the episode
// pipeline: a causal, per-episode view of where time goes inside one
// OAQ coordination episode — detection, alert propagation, spare
// deployment, retransmission — complementing the aggregate counters and
// histograms of package obs.
//
// The design constraints mirror the rest of the repository:
//
//   - Zero cost when disabled. Every hook in the des kernel, the
//     crosslink fabric, and the oaq protocol is gated on a nil *Recorder
//     check; with tracing off the hot path pays one pointer compare and
//     allocates nothing (BenchmarkProtocolEpisode stays at 0 allocs/op).
//   - Zero steady-state allocation when enabled. A Recorder records
//     every span of every episode into a preallocated ring buffer;
//     only *retained* episodes (head-sampled or anomalous) are copied
//     out.
//   - Determinism. The tracer never reads the episode RNG and never
//     perturbs event order, so evaluation results and metric snapshots
//     are bit-identical with tracing on or off, at any worker count.
//     Retention decisions derive from the episode's global ordinal and
//     its outcome — both worker-count independent — and the Collector
//     sorts retained traces by (scope, ordinal) before export.
//
// Sampling combines a head sampler (keep every N-th episode by ordinal)
// with a tail sampler — the "flight recorder": every episode is
// recorded into the ring, and the full span buffer is retained only
// when the finished episode turns out to be anomalous (retries
// exhausted, detected but undelivered, alert latency above a
// configurable threshold, or a crosslink conservation-invariant
// violation).
//
// Export: Chrome trace-event JSON (load in chrome://tracing or
// https://ui.perfetto.dev), the one span-trace format. It carries each
// span's kind, seq, parent and arg and each episode's retention reasons
// and dropped-span count, and it is a pure function of the retained
// traces, so it is byte-identical at any worker count and golden tests
// compare it whole.
package trace

import (
	"fmt"
	"strings"
)

// Kind classifies spans.
type Kind uint8

// Span kinds, in rough structural order.
const (
	// KindEpisode is the root span of one episode (signal onset to
	// simulation quiescence); its Arg is the termination cause.
	KindEpisode Kind = iota + 1
	// KindPhase marks a protocol phase interval (e.g. detect-wait).
	KindPhase
	// KindDispatch wraps one des event dispatch; protocol spans created
	// inside the handler become its children.
	KindDispatch
	// KindCompute is one geolocation computation (scheduled → done).
	KindCompute
	// KindMessage is one in-flight crosslink message (send → deliver).
	KindMessage
	// KindAwait is a wait window (ack round-trip, overlap arrival,
	// backward coordination-done wait).
	KindAwait
	// KindEvent is an instantaneous protocol occurrence.
	KindEvent
	// KindDrop records a message that was suppressed or dropped; its Arg
	// is the drop cause code supplied by the caller.
	KindDrop
	// KindTermination annotates the termination cause (Arg is the cause
	// enum value).
	KindTermination
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	switch k {
	case KindEpisode:
		return "episode"
	case KindPhase:
		return "phase"
	case KindDispatch:
		return "dispatch"
	case KindCompute:
		return "compute"
	case KindMessage:
		return "message"
	case KindAwait:
		return "await"
	case KindEvent:
		return "event"
	case KindDrop:
		return "drop"
	case KindTermination:
		return "termination"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Actor conventions for Span.Sat: nonnegative values are satellite pass
// indices; the ground station and the simulation kernel use the
// sentinels below (mirroring crosslink.GroundStation = -1).
const (
	// SatGround is the ground-station actor.
	SatGround int32 = -1
	// SatKernel is the simulation-kernel / episode-level actor.
	SatKernel int32 = -2
)

// Span is one recorded interval (or instant, when Start == End) within
// an episode. Seq is the span's creation ordinal within the episode;
// Parent is the Seq of the enclosing span (-1 at the root). Times are
// simulation minutes. Label is always a static or memoized string — the
// recording hot path never formats.
type Span struct {
	Seq    int32
	Parent int32
	Kind   Kind
	Sat    int32
	Label  string
	Start  float64
	End    float64
	// Arg is a kind-dependent numeric annotation (termination cause,
	// retry attempt, fused passes, drop code, latency).
	Arg float64
}

// Link is a causal edge between two spans of the same episode (e.g.
// from an in-flight message span to the dispatch span that delivered
// it). Exported as Chrome flow events.
type Link struct {
	From, To int32
}

// Reasons is the bitmask of why an episode's trace was retained.
type Reasons uint8

// Retention reasons.
const (
	// ReasonHead: the head sampler selected the episode (ordinal % N == 0).
	ReasonHead Reasons = 1 << iota
	// ReasonRetries: coordination ended with the retransmission budget
	// exhausted.
	ReasonRetries
	// ReasonUndelivered: the signal was detected but no alert was sent
	// by the deadline.
	ReasonUndelivered
	// ReasonLatency: the alert latency exceeded the configured threshold.
	ReasonLatency
	// ReasonInvariant: a crosslink conservation-invariant violation.
	ReasonInvariant
)

// String renders the bitmask as "head|retries|…" ("none" when empty).
func (r Reasons) String() string {
	if r == 0 {
		return "none"
	}
	parts := make([]string, 0, 5)
	for _, e := range [...]struct {
		bit  Reasons
		name string
	}{
		{ReasonHead, "head"},
		{ReasonRetries, "retries"},
		{ReasonUndelivered, "undelivered"},
		{ReasonLatency, "latency"},
		{ReasonInvariant, "invariant"},
	} {
		if r&e.bit != 0 {
			parts = append(parts, e.name)
		}
	}
	return strings.Join(parts, "|")
}

// Anomalous reports whether any tail-sampling (flight-recorder) reason
// is set, i.e. the episode was retained for more than head sampling.
func (r Reasons) Anomalous() bool { return r&^ReasonHead != 0 }

// EpisodeTrace is one retained episode's span buffer, copied out of the
// recorder ring at episode end.
type EpisodeTrace struct {
	// Scope identifies the evaluation the episode belongs to (set from
	// Config.Scope); Ordinal is the episode's global ordinal within it.
	// Together they are the trace identity: "scope/ep-ordinal".
	Scope   string
	Ordinal uint64
	// Reasons is why the trace was retained.
	Reasons Reasons
	// Dropped counts spans evicted by ring wrap-around (0 when the
	// episode fit the buffer).
	Dropped int
	Spans   []Span
	Links   []Link
}

// ID returns the trace identity string ("ep-42", or "scope/ep-42").
func (t *EpisodeTrace) ID() string {
	if t.Scope == "" {
		return fmt.Sprintf("ep-%d", t.Ordinal)
	}
	return fmt.Sprintf("%s/ep-%d", t.Scope, t.Ordinal)
}
