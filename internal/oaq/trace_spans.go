package oaq

import (
	"satqos/internal/obs/trace"
	"satqos/internal/stats"
)

// This file is the span-tracing glue of the episode engine, its only
// trace facility. Every hook is gated on e.rec != nil, so episodes
// without a tracing config pay one pointer compare per site and
// allocate nothing.

// termTraceLabels memoizes the KindTermination span label per cause, so
// the recording path never formats.
var termTraceLabels = func() [numTerminations]string {
	var l [numTerminations]string
	for t := TermNone; int(t) < numTerminations; t++ {
		l[int(t)] = "term:" + t.String()
	}
	return l
}()

// setTracer attaches (or with nil, detaches) a span recorder to the
// runner's whole simulation stack: the des kernel (dispatch spans), both
// crosslink fabrics (message spans and drop events), and the episode
// engine itself (episode, phase, compute, and await spans).
func (r *episodeRunner) setTracer(rec *trace.Recorder) {
	r.ep.rec = rec
	r.ep.sim.SetTracer(rec)
	r.ep.net.SetTracer(rec)
	r.ep.ground.SetTracer(rec)
}

// startTrace opens the episode's root span. Called from run() after the
// signal has been placed; e.ord must already hold the episode's global
// ordinal.
func (e *episode) startTrace() {
	e.rec.StartEpisode(e.ord)
	e.rootSpan = e.rec.Begin(trace.KindEpisode, "episode", trace.SatKernel, e.sigStart)
}

// finishTrace closes the root span, annotates the termination cause, and
// lets the recorder decide retention from the episode outcome. The
// invariant check runs only when the anomaly policy asks for it.
func (e *episode) finishTrace(res *EpisodeResult, endAt float64) {
	if e.terminationSeen {
		e.rec.Event(trace.KindTermination, termTraceLabels[int(e.termination)],
			trace.SatKernel, endAt, float64(e.termination))
	}
	e.rec.EndArg(e.rootSpan, endAt, float64(e.termination))
	violated := false
	if e.rec.WantInvariant() {
		violated = e.net.Stats().CheckInvariant() != nil ||
			e.ground.Stats().CheckInvariant() != nil ||
			(e.fab != nil && e.fab.Stats().CheckInvariant() != nil)
	}
	e.rec.FinishEpisode(trace.Outcome{
		Detected:           res.Detected,
		Delivered:          res.Delivered,
		RetriesExhausted:   res.Termination == TermRetriesExhausted,
		LatencyMin:         res.DeliveryLatency,
		InvariantViolation: violated,
	})
}

// RunEpisodeTraced runs one episode with span tracing forced on and
// returns its outcome together with its trace — a one-episode
// convenience over RunEpisode. Span times are absolute simulation
// minutes; the root span opens at signal start, so the detection (t0)
// is root Start + DetectionDelay. Batch callers (the evaluation engine,
// and cmd/oaqtrace through NewRunner) set Params.Tracing instead.
func RunEpisodeTraced(p Params, rng *stats.RNG) (EpisodeResult, trace.EpisodeTrace, error) {
	col := trace.NewCollector()
	p.Tracing = &trace.Config{SampleEvery: 1, Collector: col}
	res, err := RunEpisode(p, rng)
	if err != nil {
		return EpisodeResult{}, trace.EpisodeTrace{}, err
	}
	return res, col.Traces()[0], nil
}
