package trace

import (
	"math"
	"testing"
)

// newTestRecorder builds a recorder with head sampling every episode
// unless the config asks for anomaly retention.
func newTestRecorder(t *testing.T, cfg Config) *Recorder {
	t.Helper()
	if cfg.Collector == nil {
		cfg.Collector = NewCollector()
	}
	if cfg.SampleEvery == 0 && !cfg.Anomaly.Enabled() {
		cfg.SampleEvery = 1
	}
	return NewRecorder(&cfg)
}

func TestRecorderNilSafe(t *testing.T) {
	var r *Recorder
	r.StartEpisode(0)
	if id := r.Begin(KindPhase, "x", SatKernel, 0); id != 0 {
		t.Errorf("nil Begin returned live id %d", id)
	}
	if id := r.Async(KindMessage, "x", 0, 0); id != 0 {
		t.Errorf("nil Async returned live id %d", id)
	}
	if id := r.Event(KindEvent, "x", 0, 0, 0); id != 0 {
		t.Errorf("nil Event returned live id %d", id)
	}
	r.End(1, 0)
	r.EndArg(1, 0, 0)
	r.Link(1)
	if r.FinishEpisode(Outcome{}) {
		t.Error("nil recorder retained a trace")
	}
	if r.WantInvariant() {
		t.Error("nil recorder wants the invariant check")
	}
	if r.Kept() != nil || r.TakeKept() != nil {
		t.Error("nil recorder has kept traces")
	}
	r.Flush()
}

func TestRecorderParentStackNesting(t *testing.T) {
	r := newTestRecorder(t, Config{})
	r.StartEpisode(0)
	root := r.Begin(KindEpisode, "episode", SatKernel, 0)
	phase := r.Begin(KindPhase, "detect", 3, 1)
	r.Event(KindEvent, "detection", 3, 1.5, 0)
	async := r.Async(KindMessage, "alert", 3, 2) // no stack entry
	r.Event(KindEvent, "after-async", 3, 2.5, 0)
	r.End(phase, 3)
	r.Event(KindEvent, "after-phase", SatKernel, 3.5, 0)
	r.End(async, 4)
	r.End(root, 5)
	if !r.FinishEpisode(Outcome{}) {
		t.Fatal("head-sampled episode not retained")
	}
	k := r.Kept()
	if len(k) != 1 {
		t.Fatalf("kept %d traces, want 1", len(k))
	}
	spans := k[0].Spans
	if len(spans) != 6 {
		t.Fatalf("got %d spans, want 6", len(spans))
	}
	wantParent := map[string]int32{
		"episode":     -1,
		"detect":      0, // episode's seq
		"detection":   1, // phase's seq
		"alert":       1, // created inside the phase scope
		"after-async": 1, // async spans do not enter the stack
		"after-phase": 0, // phase popped by End
	}
	for _, sp := range spans {
		if want, ok := wantParent[sp.Label]; !ok || sp.Parent != want {
			t.Errorf("span %q parent = %d, want %d", sp.Label, sp.Parent, want)
		}
	}
	if spans[0].End != 5 || spans[1].End != 3 || spans[3].End != 4 {
		t.Errorf("span ends wrong: episode=%g detect=%g alert=%g",
			spans[0].End, spans[1].End, spans[3].End)
	}
}

func TestRecorderRingEvictionAndDropped(t *testing.T) {
	r := newTestRecorder(t, Config{})
	r.StartEpisode(0)
	const total = spanCap + 7
	for i := 0; i < total; i++ {
		r.Event(KindEvent, "e", int32(i), float64(i), float64(i))
	}
	if !r.FinishEpisode(Outcome{}) {
		t.Fatal("episode not retained")
	}
	tr := r.Kept()[0]
	if tr.Dropped != total-spanCap {
		t.Errorf("Dropped = %d, want %d", tr.Dropped, total-spanCap)
	}
	if len(tr.Spans) != spanCap {
		t.Fatalf("captured %d spans, want %d", len(tr.Spans), spanCap)
	}
	// Oldest-first: the surviving spans are the most recent spanCap, in
	// creation order.
	for i, sp := range tr.Spans {
		if want := int32(total - spanCap + i); sp.Seq != want {
			t.Errorf("span %d: seq = %d, want %d", i, sp.Seq, want)
		}
	}
}

func TestRecorderRingWrapRejectsEvictedSpan(t *testing.T) {
	r := newTestRecorder(t, Config{})
	r.StartEpisode(0)
	old := r.Async(KindMessage, "old", 0, 0)
	for i := 0; i < spanCap+2; i++ { // wrap the ring past "old"
		r.Event(KindEvent, "fill", 0, 1, 0)
	}
	r.EndArg(old, 9, 42) // slot was recycled: must not clobber it
	if !r.FinishEpisode(Outcome{}) {
		t.Fatal("episode not retained")
	}
	for _, sp := range r.Kept()[0].Spans {
		if sp.Arg == 42 || sp.End == 9 {
			t.Errorf("evicted-span End corrupted a live ring slot: %+v", sp)
		}
	}
}

func TestRecorderEpochFence(t *testing.T) {
	r := newTestRecorder(t, Config{})
	r.StartEpisode(0)
	stale := r.Begin(KindPhase, "stale", 0, 1)
	r.End(stale, 2)
	r.FinishEpisode(Outcome{})

	r.StartEpisode(1)
	r.Begin(KindPhase, "fresh", 0, 0)
	r.EndArg(stale, 99, 99) // previous episode's id: must be a no-op
	r.Link(stale)           // ditto for links
	r.EndArg(0, 99, 99)     // zero id: always a no-op
	r.FinishEpisode(Outcome{})

	k := r.Kept()
	if len(k) != 2 {
		t.Fatalf("kept %d traces, want 2", len(k))
	}
	got := k[1].Spans[0]
	if got.Label != "fresh" || got.End == 99 || got.Arg == 99 {
		t.Errorf("stale SpanID crossed the episode fence: %+v", got)
	}
	if len(k[1].Links) != 0 {
		t.Errorf("stale link recorded: %+v", k[1].Links)
	}
}

func TestRecorderHeadSamplingByOrdinal(t *testing.T) {
	r := newTestRecorder(t, Config{SampleEvery: 3})
	for ord := uint64(0); ord < 9; ord++ {
		r.StartEpisode(ord)
		r.Event(KindEvent, "e", 0, 0, 0)
		retained := r.FinishEpisode(Outcome{})
		if want := ord%3 == 0; retained != want {
			t.Errorf("ordinal %d retained = %v, want %v", ord, retained, want)
		}
	}
	var got []uint64
	for _, tr := range r.Kept() {
		if tr.Reasons != ReasonHead {
			t.Errorf("ep-%d reasons = %v, want head", tr.Ordinal, tr.Reasons)
		}
		got = append(got, tr.Ordinal)
	}
	if len(got) != 3 || got[0] != 0 || got[1] != 3 || got[2] != 6 {
		t.Errorf("retained ordinals %v, want [0 3 6]", got)
	}
}

func TestRecorderAnomalyRetention(t *testing.T) {
	cfg := Config{
		Anomaly:   Policy{RetriesExhausted: true, Undelivered: true, LatencyAboveMin: 2, Invariant: true},
		Collector: NewCollector(),
	}
	r := NewRecorder(&cfg)
	cases := []struct {
		name string
		o    Outcome
		want Reasons
	}{
		{"clean", Outcome{Detected: true, Delivered: true, LatencyMin: 1}, 0},
		{"retries", Outcome{Detected: true, RetriesExhausted: true, LatencyMin: math.NaN()}, ReasonRetries | ReasonUndelivered},
		{"undelivered", Outcome{Detected: true, Delivered: false, LatencyMin: math.NaN()}, ReasonUndelivered},
		{"escaped-not-undelivered", Outcome{Detected: false, LatencyMin: math.NaN()}, 0},
		{"slow", Outcome{Detected: true, Delivered: true, LatencyMin: 2.5}, ReasonLatency},
		{"invariant", Outcome{Detected: true, Delivered: true, LatencyMin: 1, InvariantViolation: true}, ReasonInvariant},
	}
	for i, tc := range cases {
		r.StartEpisode(uint64(i))
		r.Event(KindEvent, "e", 0, 0, 0)
		retained := r.FinishEpisode(tc.o)
		if retained != (tc.want != 0) {
			t.Errorf("%s: retained = %v, want %v", tc.name, retained, tc.want != 0)
		}
	}
	kept := r.TakeKept()
	want := map[uint64]Reasons{1: ReasonRetries | ReasonUndelivered, 2: ReasonUndelivered, 4: ReasonLatency, 5: ReasonInvariant}
	if len(kept) != len(want) {
		t.Fatalf("kept %d traces, want %d", len(kept), len(want))
	}
	for _, tr := range kept {
		if tr.Reasons != want[tr.Ordinal] {
			t.Errorf("ep-%d reasons = %v, want %v", tr.Ordinal, tr.Reasons, want[tr.Ordinal])
		}
		if !tr.Reasons.Anomalous() {
			t.Errorf("ep-%d not flagged anomalous", tr.Ordinal)
		}
	}
}

func TestRecorderOpenSpanClosedAtCapture(t *testing.T) {
	r := newTestRecorder(t, Config{})
	r.StartEpisode(0)
	r.Async(KindAwait, "never-ended", 0, 7)
	r.FinishEpisode(Outcome{})
	sp := r.Kept()[0].Spans[0]
	if math.IsNaN(sp.End) || sp.End != sp.Start {
		t.Errorf("open span not closed at its start: %+v", sp)
	}
}

func TestRecorderLinksSurviveCapture(t *testing.T) {
	r := newTestRecorder(t, Config{})
	r.StartEpisode(0)
	evicted := r.Async(KindMessage, "evicted", 0, 0) // seq 0: will fall off the ring
	r.Begin(KindDispatch, "scope", 0, 0)             // seq 1
	r.Link(evicted)                                  // endpoint gets evicted → dropped at capture
	msg := r.Async(KindMessage, "kept", 0, 1)        // seq 2
	for i := 0; i < spanCap-2; i++ {                 // seqs 3..spanCap: wrap the ring past seq 0
		r.Event(KindEvent, "fill", 0, 2, 0)
	}
	for i := 0; i < linkCap; i++ { // the last of these is dropped at the cap, not grown
		r.Link(msg)
	}
	r.FinishEpisode(Outcome{})
	tr := r.Kept()[0]
	if tr.Dropped != 1 {
		t.Fatalf("Dropped = %d, want 1 (seq 0 evicted)", tr.Dropped)
	}
	// The evicted-endpoint link occupied a cap slot, linkCap-1 Link(msg)
	// calls took the others, and the last was dropped at the cap;
	// capture then discards the evicted-endpoint one.
	if len(tr.Links) != linkCap-1 {
		t.Fatalf("captured %d links, want %d", len(tr.Links), linkCap-1)
	}
	for _, l := range tr.Links {
		for _, seq := range []int32{l.From, l.To} {
			found := false
			for _, sp := range tr.Spans {
				if sp.Seq == seq {
					found = true
				}
			}
			if !found {
				t.Errorf("link endpoint %d not among captured spans", seq)
			}
		}
	}
}

func TestRecorderFinishWithoutStart(t *testing.T) {
	r := newTestRecorder(t, Config{})
	if r.FinishEpisode(Outcome{}) {
		t.Error("inactive recorder retained a trace")
	}
	r.StartEpisode(0)
	r.FinishEpisode(Outcome{})
	if r.FinishEpisode(Outcome{}) {
		t.Error("double FinishEpisode retained a second trace")
	}
}

func TestRecorderFlushMovesToCollector(t *testing.T) {
	col := NewCollector()
	r := NewRecorder(&Config{SampleEvery: 1, Collector: col, Scope: "s"})
	r.StartEpisode(4)
	r.Event(KindEvent, "e", 0, 0, 0)
	r.FinishEpisode(Outcome{})
	r.Flush()
	if col.Len() != 1 {
		t.Fatalf("collector has %d traces, want 1", col.Len())
	}
	if len(r.Kept()) != 0 {
		t.Error("flush left traces in the recorder")
	}
	if id := col.Traces()[0].ID(); id != "s/ep-4" {
		t.Errorf("trace ID = %q, want s/ep-4", id)
	}
	r.Flush() // second flush: nothing to move, no duplicate
	if col.Len() != 1 {
		t.Error("empty flush duplicated traces")
	}
}

func TestConfigValidate(t *testing.T) {
	col := NewCollector()
	cases := []struct {
		name string
		cfg  *Config
		ok   bool
	}{
		{"nil", nil, false},
		{"no-collector", &Config{SampleEvery: 1}, false},
		{"negative-sample", &Config{SampleEvery: -1, Collector: col}, false},
		{"nan-latency", &Config{Collector: col, Anomaly: Policy{LatencyAboveMin: math.NaN()}}, false},
		{"ok", &Config{SampleEvery: 1, Collector: col}, true},
		{"ok-anomaly-only", &Config{Collector: col, Anomaly: Policy{RetriesExhausted: true}}, true},
	}
	for _, tc := range cases {
		if err := tc.cfg.Validate(); (err == nil) != tc.ok {
			t.Errorf("%s: Validate() = %v, want ok=%v", tc.name, err, tc.ok)
		}
	}
}

func TestConfigWithScope(t *testing.T) {
	var nilCfg *Config
	if nilCfg.WithScope("x") != nil {
		t.Error("nil WithScope should stay nil")
	}
	base := &Config{SampleEvery: 5, Collector: NewCollector(), Scope: "a"}
	d := base.WithScope("b")
	if d == base || d.Scope != "b" || base.Scope != "a" {
		t.Errorf("WithScope did not copy: base=%q derived=%q", base.Scope, d.Scope)
	}
	if d.Collector != base.Collector || d.SampleEvery != base.SampleEvery {
		t.Error("WithScope must share the collector and sampling settings")
	}
}
