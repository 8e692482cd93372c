package trace

import (
	"fmt"
	"math"
)

// Policy is the tail-sampling ("flight recorder") anomaly policy: an
// episode matching any enabled condition retains its full span buffer.
type Policy struct {
	// RetriesExhausted retains episodes whose coordination ended with
	// the retransmission budget exhausted.
	RetriesExhausted bool
	// Undelivered retains episodes that detected the signal but sent no
	// alert by the deadline.
	Undelivered bool
	// LatencyAboveMin, when positive, retains episodes whose alert
	// latency (minutes from detection) exceeded the threshold.
	LatencyAboveMin float64
	// Invariant retains episodes whose crosslink accounting invariant
	// was violated at quiescence (a bookkeeping bug, never expected).
	Invariant bool
}

// reasons evaluates the policy against one episode outcome.
func (p Policy) reasons(o Outcome) Reasons {
	var r Reasons
	if p.RetriesExhausted && o.RetriesExhausted {
		r |= ReasonRetries
	}
	if p.Undelivered && o.Detected && !o.Delivered {
		r |= ReasonUndelivered
	}
	if p.LatencyAboveMin > 0 && !math.IsNaN(o.LatencyMin) && o.LatencyMin > p.LatencyAboveMin {
		r |= ReasonLatency
	}
	if p.Invariant && o.InvariantViolation {
		r |= ReasonInvariant
	}
	return r
}

// Outcome summarizes one finished episode for the retention decision.
// All fields derive from the episode result — never from wall clocks or
// extra RNG draws — so the retained-episode set is deterministic.
type Outcome struct {
	Detected         bool
	Delivered        bool
	RetriesExhausted bool
	// LatencyMin is the alert latency in minutes from detection (NaN
	// when nothing was delivered).
	LatencyMin         float64
	InvariantViolation bool
}

// Config parameterizes a tracing run. The zero value is invalid: a
// Collector is required (it is where retained traces end up).
type Config struct {
	// SampleEvery enables head sampling: retain every episode whose
	// global ordinal is a multiple of SampleEvery (1 = every episode,
	// 0 = head sampling off, anomalies only).
	SampleEvery int
	// Anomaly is the flight-recorder tail-sampling policy.
	Anomaly Policy
	// Scope labels every trace of this run (see EpisodeTrace.Scope);
	// callers pushing several evaluations into one Collector should give
	// each a distinct scope so trace identities stay unique.
	Scope string
	// Collector receives the retained traces. Required.
	Collector *Collector
}

// Validate checks the configuration.
func (c *Config) Validate() error {
	switch {
	case c == nil:
		return fmt.Errorf("trace: nil config")
	case c.Collector == nil:
		return fmt.Errorf("trace: config requires a Collector")
	case c.SampleEvery < 0:
		return fmt.Errorf("trace: negative head-sampling interval %d", c.SampleEvery)
	case c.Anomaly.LatencyAboveMin < 0 || math.IsNaN(c.Anomaly.LatencyAboveMin):
		return fmt.Errorf("trace: bad latency threshold %g", c.Anomaly.LatencyAboveMin)
	}
	return nil
}

// WithScope returns a copy of the config with the given scope — the
// cheap way to give each evaluation of a sweep a distinct trace
// identity while sharing one Collector. Nil-safe.
func (c *Config) WithScope(scope string) *Config {
	if c == nil {
		return nil
	}
	d := *c
	d.Scope = scope
	return &d
}

// Per-episode buffer capacities. An episode recording more than
// spanCap spans keeps the most recent ones and counts the evicted ones
// in EpisodeTrace.Dropped; links past linkCap are not recorded.
const (
	spanCap  = 512
	linkCap  = 128
	stackCap = 64
)

// SpanID refers to a span of the recorder's current episode. It encodes
// the episode generation, so a stale ID (e.g. held across an episode
// boundary by an in-flight message envelope) resolves to nothing
// instead of corrupting the next episode's buffer. The zero SpanID is
// invalid and all operations on it are no-ops.
type SpanID int64

// Recorder records one episode at a time into a preallocated span ring.
// It is single-goroutine, like the episode engines that own it; all
// methods are no-ops on a nil receiver, which is the disabled state.
type Recorder struct {
	cfg   Config
	epoch int64
	ord   uint64
	seq   int32
	// spans is the ring (index = seq % len); links and stack are bounded
	// scratch buffers reset per episode.
	spans  []Span
	links  []Link
	stack  []int32
	active bool
	// dropped counts spans rejected at the per-epoch seq ceiling
	// (maxEpisodeSpans); ring eviction is accounted separately in
	// capture, which folds both into EpisodeTrace.Dropped.
	dropped int
	kept    []EpisodeTrace
}

// NewRecorder builds a recorder for the given (validated) config. The
// config is copied; the recorder preallocates its buffers once.
func NewRecorder(cfg *Config) *Recorder {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	return &Recorder{
		cfg:   *cfg,
		spans: make([]Span, spanCap),
		links: make([]Link, 0, linkCap),
		stack: make([]int32, 0, stackCap),
	}
}

// WantInvariant reports whether the anomaly policy needs the (slightly
// more expensive) per-episode invariant check; nil-safe.
func (r *Recorder) WantInvariant() bool {
	return r != nil && r.cfg.Anomaly.Invariant
}

// SpanID packing: the low 32 bits carry the span seq, the bits above
// them the episode epoch. Two guards keep the packing sound in a
// long-running recorder (a satqosd process records millions of epochs
// and arbitrarily busy episodes):
//
//   - maxEpisodeSpans caps the per-episode seq. Without it the seq
//     counter wrapped after 2³¹ spans — first going negative (a panic in
//     the ring index) and at 2³² aliasing the SpanIDs of evicted early
//     spans, so a stale handle could close a live span. At the cap the
//     recorder saturates: further spans are dropped (counted in the
//     capture's Dropped) instead of corrupting the buffer.
//   - epochIDMask folds the epoch into the 31 bits above the seq, so
//     the packed ID never overflows int64 (which previously made every
//     resolve fail from epoch 2³¹ on, silently leaving all spans
//     unclosed). Two epochs alias only 2³¹ apart — and a SpanID is only
//     ever held across a single episode boundary (an in-flight message
//     envelope), never billions.
const (
	maxEpisodeSpans = math.MaxInt32
	epochIDMask     = 1<<31 - 1
)

// StartEpisode begins recording a fresh episode with the given global
// ordinal, invalidating every SpanID of the previous one.
func (r *Recorder) StartEpisode(ord uint64) {
	if r == nil {
		return
	}
	r.epoch++
	if r.epoch&epochIDMask == 0 {
		// Epoch values that mask to 0 would make a seq-0 span pack to the
		// invalid SpanID 0; skip them.
		r.epoch++
	}
	r.ord = ord
	r.seq = 0
	r.dropped = 0
	r.links = r.links[:0]
	r.stack = r.stack[:0]
	r.active = true
}

// id encodes a span seq of the current episode.
func (r *Recorder) id(seq int32) SpanID {
	return SpanID((r.epoch&epochIDMask)<<32 | int64(uint32(seq)))
}

// resolve maps a SpanID back to a live ring slot seq, rejecting IDs
// from a previous episode and slots already evicted by ring wrap.
func (r *Recorder) resolve(id SpanID) (int32, bool) {
	if id == 0 || int64(id)>>32 != r.epoch&epochIDMask {
		return 0, false
	}
	seq := int32(uint32(int64(id)))
	if seq >= r.seq || int(r.seq-seq) > len(r.spans) {
		return 0, false
	}
	return seq, true
}

// full reports whether the episode hit the per-epoch span ceiling; the
// rejected span is counted so the capture's Dropped stays honest.
func (r *Recorder) full() bool {
	if r.seq < maxEpisodeSpans {
		return false
	}
	r.dropped++
	return true
}

// newSpan writes the next ring slot and returns its seq.
func (r *Recorder) newSpan(kind Kind, label string, sat int32, start, end float64) int32 {
	seq := r.seq
	r.seq++
	parent := int32(-1)
	if n := len(r.stack); n > 0 {
		parent = r.stack[n-1]
	}
	r.spans[int(seq)%len(r.spans)] = Span{
		Seq: seq, Parent: parent, Kind: kind, Sat: sat,
		Label: label, Start: start, End: end,
	}
	return seq
}

// Begin opens a scoped span: subsequent spans record it as their parent
// until the matching End. Label must be a static or memoized string.
func (r *Recorder) Begin(kind Kind, label string, sat int32, t float64) SpanID {
	if r == nil || !r.active || r.full() {
		return 0
	}
	seq := r.newSpan(kind, label, sat, t, math.NaN())
	if len(r.stack) < cap(r.stack) {
		r.stack = append(r.stack, seq)
	}
	return r.id(seq)
}

// Async opens a span without entering the parent stack — the form for
// intervals that end in a different dispatch context (in-flight
// messages, scheduled computations, wait windows).
func (r *Recorder) Async(kind Kind, label string, sat int32, t float64) SpanID {
	if r == nil || !r.active || r.full() {
		return 0
	}
	return r.id(r.newSpan(kind, label, sat, t, math.NaN()))
}

// Event records an instantaneous span.
func (r *Recorder) Event(kind Kind, label string, sat int32, t, arg float64) SpanID {
	if r == nil || !r.active || r.full() {
		return 0
	}
	seq := r.newSpan(kind, label, sat, t, t)
	r.spans[int(seq)%len(r.spans)].Arg = arg
	return r.id(seq)
}

// End closes a span (and pops it from the parent stack if it is the
// current scope). Stale or zero IDs are ignored.
func (r *Recorder) End(id SpanID, t float64) { r.EndArg(id, t, 0) }

// EndArg closes a span and sets its numeric annotation.
func (r *Recorder) EndArg(id SpanID, t, arg float64) {
	if r == nil || !r.active {
		return
	}
	seq, ok := r.resolve(id)
	if !ok {
		return
	}
	sp := &r.spans[int(seq)%len(r.spans)]
	if sp.Seq == seq {
		sp.End = t
		sp.Arg = arg
	}
	if n := len(r.stack); n > 0 && r.stack[n-1] == seq {
		r.stack = r.stack[:n-1]
	}
}

// Link records a causal edge from the given span to the current scope
// span (typically: from an in-flight message span to the dispatch span
// delivering it).
func (r *Recorder) Link(from SpanID) {
	if r == nil || !r.active || len(r.links) == cap(r.links) {
		return
	}
	seq, ok := r.resolve(from)
	if !ok {
		return
	}
	n := len(r.stack)
	if n == 0 {
		return
	}
	r.links = append(r.links, Link{From: seq, To: r.stack[n-1]})
}

// FinishEpisode ends the episode and decides retention: the span buffer
// is copied into the kept list when the head sampler selects the
// ordinal or the outcome matches the anomaly policy. It reports whether
// the trace was retained. The copy is the only allocation the recorder
// performs after construction.
func (r *Recorder) FinishEpisode(o Outcome) bool {
	if r == nil || !r.active {
		return false
	}
	r.active = false
	var reasons Reasons
	if r.cfg.SampleEvery > 0 && r.ord%uint64(r.cfg.SampleEvery) == 0 {
		reasons |= ReasonHead
	}
	reasons |= r.cfg.Anomaly.reasons(o)
	if reasons == 0 {
		return false
	}
	r.kept = append(r.kept, r.capture(reasons))
	return true
}

// capture copies the ring contents (oldest first) into a standalone
// EpisodeTrace. Open spans are closed at their start time; links whose
// endpoints were evicted are dropped.
func (r *Recorder) capture(reasons Reasons) EpisodeTrace {
	n := int(r.seq)
	if n > len(r.spans) {
		n = len(r.spans)
	}
	first := int(r.seq) - n
	spans := make([]Span, n)
	for i := 0; i < n; i++ {
		sp := r.spans[(first+i)%len(r.spans)]
		if math.IsNaN(sp.End) {
			sp.End = sp.Start
		}
		spans[i] = sp
	}
	var links []Link
	for _, l := range r.links {
		if int(l.From) >= first && int(l.To) >= first {
			links = append(links, l)
		}
	}
	return EpisodeTrace{
		Scope:   r.cfg.Scope,
		Ordinal: r.ord,
		Reasons: reasons,
		Dropped: first + r.dropped,
		Spans:   spans,
		Links:   links,
	}
}

// Kept returns the retained traces accumulated so far (still owned by
// the recorder).
func (r *Recorder) Kept() []EpisodeTrace {
	if r == nil {
		return nil
	}
	return r.kept
}

// TakeKept returns and clears the retained traces.
func (r *Recorder) TakeKept() []EpisodeTrace {
	if r == nil {
		return nil
	}
	k := r.kept
	r.kept = nil
	return k
}

// Flush moves the retained traces into the config's Collector. The
// engines call it once per shard, so collector contention is off the
// episode path.
func (r *Recorder) Flush() {
	if r == nil || r.cfg.Collector == nil {
		return
	}
	if k := r.TakeKept(); len(k) > 0 {
		r.cfg.Collector.Add(k)
	}
}
