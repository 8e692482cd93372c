package oaq

import (
	"flag"
	"os"
	"reflect"
	"strings"
	"testing"

	"satqos/internal/obs/trace"
	"satqos/internal/qos"
	"satqos/internal/stats"
)

// updateGolden rewrites the pinned exporter outputs instead of
// comparing against them.
var updateGolden = flag.Bool("update-golden", false, "rewrite golden files with the current output")

// lossyTracedParams is the workload the span-tracing tests run: lossy
// crosslinks with a small retry budget, so a fixed seed deterministically
// produces retries-exhausted (anomalous) episodes.
func lossyTracedParams() Params {
	p := ReferenceParams(10, qos.SchemeOAQ)
	p.MessageLossProb = 0.35
	p.RequestRetries = 1
	return p
}

// TestTracingBitIdenticalAcrossWorkers is the tentpole determinism
// property: with tracing on, both the evaluation result and the full
// retained-trace export are byte-identical at any worker count. Head
// sampling keys off the global episode ordinal and anomaly retention
// off the episode outcome, so the retained set cannot depend on how
// shards were scheduled.
func TestTracingBitIdenticalAcrossWorkers(t *testing.T) {
	const episodes, seed = 3000, 17
	run := func(workers int) (*Evaluation, string) {
		p := lossyTracedParams()
		p.Tracing = &trace.Config{
			SampleEvery: 500,
			Anomaly:     trace.Policy{RetriesExhausted: true, Undelivered: true, Invariant: true},
			Collector:   trace.NewCollector(),
			Scope:       "det",
		}
		ev, err := EvaluateParallel(p, episodes, seed, workers)
		if err != nil {
			t.Fatal(err)
		}
		var b strings.Builder
		if err := p.Tracing.Collector.WriteChrome(&b); err != nil {
			t.Fatal(err)
		}
		return ev, b.String()
	}
	ev1, tr1 := run(1)
	ev8, tr8 := run(8)
	if !reflect.DeepEqual(ev1, ev8) {
		t.Errorf("traced evaluation differs between workers 1 and 8:\n%+v\n%+v", ev1, ev8)
	}
	if tr1 != tr8 {
		t.Errorf("trace export differs between workers 1 and 8:\n--- w1 ---\n%.2000s\n--- w8 ---\n%.2000s", tr1, tr8)
	}
	if !strings.Contains(tr1, `[retries`) {
		t.Errorf("lossy workload retained no retries-exhausted trace:\n%.1000s", tr1)
	}
	if !strings.Contains(tr1, `"det/ep-0 [head`) {
		t.Errorf("head sampler missed ordinal 0:\n%.1000s", tr1)
	}

	// And tracing must not perturb the simulation itself.
	p := lossyTracedParams()
	untraced, err := EvaluateParallel(p, episodes, seed, 8)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(ev1, untraced) {
		t.Errorf("tracing changed the evaluation:\ntraced:   %+v\nuntraced: %+v", ev1, untraced)
	}
}

// TestTracingSequentialMatchesParallel: the sequential engine (one
// worker, on the calling goroutine) equals a 4-worker run, traces
// included.
func TestTracingSequentialMatchesParallel(t *testing.T) {
	const episodes, seed = 600, 17 // < parallel.DefaultShardSize
	export := func(eval func(p Params) (*Evaluation, error)) (*Evaluation, string) {
		p := lossyTracedParams()
		p.Tracing = &trace.Config{
			Anomaly:   trace.Policy{RetriesExhausted: true},
			Collector: trace.NewCollector(),
		}
		ev, err := eval(p)
		if err != nil {
			t.Fatal(err)
		}
		var b strings.Builder
		if err := p.Tracing.Collector.WriteChrome(&b); err != nil {
			t.Fatal(err)
		}
		return ev, b.String()
	}
	evSeq, trSeq := export(func(p Params) (*Evaluation, error) {
		return EvaluateParallel(p, episodes, seed, 1)
	})
	evPar, trPar := export(func(p Params) (*Evaluation, error) {
		return EvaluateParallel(p, episodes, seed, 4)
	})
	if !reflect.DeepEqual(evSeq, evPar) {
		t.Error("sequential and parallel evaluations differ")
	}
	if trSeq != trPar {
		t.Errorf("sequential and parallel trace exports differ:\n--- seq ---\n%.1000s\n--- par ---\n%.1000s", trSeq, trPar)
	}
}

// TestRunEpisodeTraced: the one-episode convenience returns the
// episode's own trace — a root span enclosing every other span, spans
// in time order, the detection dispatch at the t0 origin (root Start +
// DetectionDelay), and a delivered alert and every coordination request
// visible as crosslink message spans.
func TestRunEpisodeTraced(t *testing.T) {
	p := ReferenceParams(10, qos.SchemeOAQ)
	// Long signals force sequential chains frequently; find an episode
	// with a coordination request to exercise the full vocabulary.
	p.SignalDuration = stats.Exponential{Rate: 0.1}
	rng := stats.NewRNG(3, 0)
	var sawRequest bool
	for i := 0; i < 50 && !sawRequest; i++ {
		res, tr, err := RunEpisodeTraced(p, rng)
		if err != nil {
			t.Fatal(err)
		}
		if len(tr.Spans) == 0 {
			t.Fatal("no spans retained")
		}
		root := tr.Spans[0]
		if root.Kind != trace.KindEpisode || root.Parent != -1 {
			t.Fatalf("first span is not the episode root: %+v", root)
		}
		labels := make(map[trace.Kind]map[string]int)
		for j, sp := range tr.Spans {
			if sp.Start < root.Start || (sp.End > root.End && sp.End == sp.End) {
				t.Errorf("span %q [%g,%g] outside the episode root [%g,%g]",
					sp.Label, sp.Start, sp.End, root.Start, root.End)
			}
			if j > 0 && sp.Start < tr.Spans[j-1].Start {
				t.Errorf("span %d %q starts before its predecessor", sp.Seq, sp.Label)
			}
			if labels[sp.Kind] == nil {
				labels[sp.Kind] = make(map[string]int)
			}
			labels[sp.Kind][sp.Label]++
		}
		if !res.Detected {
			continue
		}
		t0 := root.Start + res.DetectionDelay
		found := false
		for _, sp := range tr.Spans {
			if sp.Kind == trace.KindDispatch && sp.Label == "detection" {
				found = true
				if sp.Start != t0 {
					t.Errorf("detection dispatch at %g, want root Start + DetectionDelay = %g", sp.Start, t0)
				}
			}
		}
		if !found {
			t.Error("detected episode has no detection dispatch span")
		}
		if res.Delivered && labels[trace.KindMessage]["crosslink:alert"] == 0 {
			t.Error("delivered episode without an alert message span")
		}
		if n := labels[trace.KindMessage]["crosslink:coordination-request"]; n > 0 {
			sawRequest = true
			if labels[trace.KindDispatch]["crosslink:coordination-request"] != n {
				t.Error("request sent but never received (healthy link)")
			}
		}
	}
	if !sawRequest {
		t.Error("no episode produced a coordination request in 50 tries")
	}
}

// TestRunEpisodeTracedSpans: on a plain reference episode the wrapper
// returns the episode's own retained trace with a root span enclosing
// every other span, and a detected episode carries a detection span.
func TestRunEpisodeTracedSpans(t *testing.T) {
	res, tr, err := RunEpisodeTraced(ReferenceParams(10, qos.SchemeOAQ), stats.NewRNG(7, 0))
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.Spans) == 0 {
		t.Fatal("no spans retained")
	}
	root := tr.Spans[0]
	if root.Kind != trace.KindEpisode || root.Parent != -1 {
		t.Fatalf("first span is not the episode root: %+v", root)
	}
	for _, sp := range tr.Spans[1:] {
		if sp.Start < root.Start || (sp.End > root.End && sp.End == sp.End) {
			t.Errorf("span %q [%g,%g] outside the episode root [%g,%g]",
				sp.Label, sp.Start, sp.End, root.Start, root.End)
		}
	}
	if res.Detected {
		found := false
		for _, sp := range tr.Spans {
			if sp.Label == "detection" || strings.HasPrefix(sp.Label, "detect") {
				found = true
			}
		}
		if !found {
			t.Error("detected episode has no detection span")
		}
	}
}

// TestMembershipSkipEvent: a membership-aware satellite that skips
// excluded peers records each skip as a membership-skip event (arg =
// the skipped pass index) — the one decision with no other span.
func TestMembershipSkipEvent(t *testing.T) {
	p := ReferenceParams(10, qos.SchemeOAQ)
	p.SignalDuration = stats.Exponential{Rate: 0.1}
	p.MembershipAware = true
	p.FailSilentProb = 1
	rng := stats.NewRNG(3, 0)
	for i := 0; i < 50; i++ {
		res, tr, err := RunEpisodeTraced(p, rng)
		if err != nil {
			t.Fatal(err)
		}
		forwarded, skips := false, 0
		for _, sp := range tr.Spans {
			// A request to a fail-silent peer is recorded as a drop.
			if sp.Label == "crosslink:coordination-request" {
				forwarded = true
			}
			if sp.Kind == trace.KindEvent && sp.Label == "membership-skip" {
				skips++
				if sp.Arg <= float64(sp.Sat) {
					t.Errorf("S%d skipped S%g, want a later peer", sp.Sat, sp.Arg)
				}
			}
		}
		if !res.Detected || !forwarded {
			continue
		}
		if skips == 0 {
			t.Fatal("forwarding episode past fail-silent peers retained no membership-skip event")
		}
		return
	}
	t.Fatal("no detected episode forwarded a coordination request in 50 tries")
}

// TestAnomalyChromeGolden is the acceptance gate for the exporter: a
// deterministic anomaly-triggered (retries-exhausted) episode renders
// to Chrome trace-event JSON byte-for-byte as pinned in testdata.
// Regenerate after a deliberate format change with:
//
//	go test ./internal/oaq -run TestAnomalyChromeGolden -update-golden
func TestAnomalyChromeGolden(t *testing.T) {
	p := lossyTracedParams()
	cfg := &trace.Config{
		Anomaly:   trace.Policy{RetriesExhausted: true},
		Collector: trace.NewCollector(),
		Scope:     "golden",
	}
	p.Tracing = cfg
	r, err := NewRunner(p, stats.NewRNG(21, 0))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 400 && cfg.Collector.Len() == 0; i++ {
		r.Run()
		r.FlushTraces()
	}
	traces := cfg.Collector.Traces()
	if len(traces) == 0 {
		t.Fatal("no retries-exhausted episode in 400 tries")
	}
	tr := traces[0]
	if !tr.Reasons.Anomalous() {
		t.Fatalf("retained trace is not anomalous: reasons=%v", tr.Reasons)
	}

	single := trace.NewCollector()
	single.Add([]trace.EpisodeTrace{tr})
	var b strings.Builder
	if err := single.WriteChrome(&b); err != nil {
		t.Fatal(err)
	}
	const goldenPath = "testdata/anomaly_chrome.golden"
	if *updateGolden {
		if err := os.WriteFile(goldenPath, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatal(err)
	}
	if b.String() != string(want) {
		t.Errorf("Chrome export of the anomalous episode drifted from golden.\n--- got ---\n%.3000s\n--- want ---\n%.3000s", b.String(), want)
	}
	for _, must := range []string{`"ph":"X"`, `"ph":"M"`, "retries", `"displayTimeUnit":"ms"`} {
		if !strings.Contains(b.String(), must) {
			t.Errorf("export missing %q", must)
		}
	}
}
