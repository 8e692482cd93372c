package trace

import (
	"math"
	"testing"
)

func wrapTestRecorder(t *testing.T) *Recorder {
	t.Helper()
	return NewRecorder(&Config{
		SampleEvery: 1,
		Collector:   NewCollector(),
	})
}

// TestSpanSeqSaturatesAtWrapBoundary pins the per-epoch SpanID ceiling:
// the seq counter used to wrap past 2³¹ spans (negative ring index,
// then SpanID aliasing at 2³²); now the recorder saturates — the last
// encodable span still works end to end, every span past the ceiling is
// rejected with the invalid SpanID and counted as dropped, and nothing
// panics.
func TestSpanSeqSaturatesAtWrapBoundary(t *testing.T) {
	r := wrapTestRecorder(t)
	r.StartEpisode(0)
	r.seq = maxEpisodeSpans - 1 // jump to just below the ceiling

	last := r.Begin(KindCompute, "boundary", 1, 1.0)
	if last == 0 {
		t.Fatal("span just below the ceiling must still be recorded")
	}
	if got := r.Begin(KindCompute, "past-ceiling", 1, 2.0); got != 0 {
		t.Fatalf("Begin past the ceiling returned live SpanID %d", got)
	}
	if got := r.Async(KindMessage, "past-ceiling", 1, 2.0); got != 0 {
		t.Fatalf("Async past the ceiling returned live SpanID %d", got)
	}
	if got := r.Event(KindEvent, "past-ceiling", 1, 2.0, 0); got != 0 {
		t.Fatalf("Event past the ceiling returned live SpanID %d", got)
	}
	if r.seq != maxEpisodeSpans {
		t.Fatalf("seq advanced past the ceiling: %d", r.seq)
	}

	// The boundary span's handle stays live: closing it must stick.
	r.EndArg(last, 3.0, 42)
	if !r.FinishEpisode(Outcome{LatencyMin: math.NaN()}) {
		t.Fatal("head-sampled episode not retained")
	}
	kept := r.TakeKept()
	if len(kept) != 1 {
		t.Fatalf("retained %d traces, want 1", len(kept))
	}
	tr := kept[0]
	var boundary *Span
	for i := range tr.Spans {
		if tr.Spans[i].Label == "boundary" {
			boundary = &tr.Spans[i]
		}
	}
	if boundary == nil {
		t.Fatal("boundary span missing from the capture")
	}
	if boundary.End != 3.0 || boundary.Arg != 42 {
		t.Fatalf("boundary span not closed through its SpanID: %+v", *boundary)
	}
	// Dropped accounts both ring eviction and the 3 ceiling rejections.
	wantDropped := maxEpisodeSpans - len(tr.Spans) + 3
	if tr.Dropped != wantDropped {
		t.Fatalf("Dropped = %d, want %d", tr.Dropped, wantDropped)
	}
}

// TestEpochPackingSurvives31BitRollover pins the other half of the
// packing: SpanIDs of epochs at and beyond 2³¹ — previously an int64
// overflow that made every resolve fail — still round-trip, and a stale
// handle from the previous epoch stays dead across the rollover.
func TestEpochPackingSurvives31BitRollover(t *testing.T) {
	r := wrapTestRecorder(t)
	r.epoch = 1<<31 - 2

	r.StartEpisode(7)
	stale := r.Begin(KindCompute, "pre-rollover", 1, 1.0)
	if stale == 0 {
		t.Fatal("pre-rollover span not recorded")
	}
	r.FinishEpisode(Outcome{LatencyMin: math.NaN()})

	// This StartEpisode lands exactly on the masked-to-zero epoch value
	// and must skip it (a seq-0 span would otherwise pack to SpanID 0).
	r.StartEpisode(8)
	if r.epoch&epochIDMask == 0 {
		t.Fatalf("epoch %d masks to the invalid 0 ID block", r.epoch)
	}
	first := r.Begin(KindCompute, "post-rollover", 1, 1.0)
	if first == 0 {
		t.Fatal("seq-0 span of the post-rollover epoch packed to the invalid SpanID")
	}
	r.EndArg(stale, 9.0, 9) // stale: must be a no-op, not corrupt the live span
	r.EndArg(first, 2.0, 5)
	r.FinishEpisode(Outcome{LatencyMin: math.NaN()})

	kept := r.TakeKept()
	if len(kept) != 2 {
		t.Fatalf("retained %d traces, want 2", len(kept))
	}
	sp := kept[1].Spans[0]
	if sp.Label != "post-rollover" || sp.End != 2.0 || sp.Arg != 5 {
		t.Fatalf("post-rollover span did not round-trip through its SpanID: %+v", sp)
	}
}
