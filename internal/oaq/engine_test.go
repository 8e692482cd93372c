package oaq

import (
	"math"
	"reflect"
	"testing"

	"satqos/internal/qos"
	"satqos/internal/stats"
)

// evaluationsEqual compares two evaluations field-for-field, treating
// NaN-free floats with exact equality (the determinism guarantee is
// bit-identical results, not approximate ones).
func evaluationsEqual(t *testing.T, label string, a, b *Evaluation) {
	t.Helper()
	if !reflect.DeepEqual(a, b) {
		t.Errorf("%s: evaluations differ:\n  A: %+v\n  B: %+v", label, a, b)
	}
}

// The tentpole determinism guarantee: for a fixed seed, the sharded
// engine produces bit-identical tallies at any worker count, because the
// shard partition and the per-shard substreams never depend on workers.
func TestEvaluateParallelWorkerCountInvariant(t *testing.T) {
	configs := map[string]Params{
		"oaq-underlap": ReferenceParams(10, qos.SchemeOAQ),
		"baq":          ReferenceParams(10, qos.SchemeBAQ),
		"oaq-overlap":  ReferenceParams(12, qos.SchemeOAQ),
	}
	lossy := ReferenceParams(10, qos.SchemeOAQ)
	lossy.MessageLossProb = 0.2
	lossy.FailSilentProb = 0.1
	configs["lossy-failsilent"] = lossy

	const episodes = 3000 // three shards at the default shard size
	for label, p := range configs {
		ref, err := EvaluateParallel(p, episodes, 7, 1)
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		for _, workers := range []int{2, 4, 8} {
			got, err := EvaluateParallel(p, episodes, 7, workers)
			if err != nil {
				t.Fatalf("%s workers=%d: %v", label, workers, err)
			}
			evaluationsEqual(t, label, ref, got)
		}
	}
}

// Runner reuse must be semantically invisible: a long run of one Runner
// equals the fold of fresh per-episode RunEpisode calls on an RNG
// advancing through the same state sequence.
func TestRunnerReuseMatchesFreshEpisodes(t *testing.T) {
	p := ReferenceParams(10, qos.SchemeOAQ)
	p.MessageLossProb = 0.1
	const episodes = 400
	r, err := NewRunner(p, stats.NewRNG(5, 9))
	if err != nil {
		t.Fatal(err)
	}
	reused := newTally()
	for i := 0; i < episodes; i++ {
		res := r.Run()
		reused.add(&res, uint64(i))
	}
	rng := stats.NewRNG(5, 9)
	fresh := newTally()
	for i := 0; i < episodes; i++ {
		res, err := RunEpisode(p, rng)
		if err != nil {
			t.Fatal(err)
		}
		fresh.add(&res, uint64(i))
	}
	evaluationsEqual(t, "fresh-vs-reused", reused.evaluation(episodes), fresh.evaluation(episodes))
}

func TestEvaluatePairedParallelWorkerCountInvariant(t *testing.T) {
	a := ReferenceParams(10, qos.SchemeOAQ)
	b := ReferenceParams(10, qos.SchemeBAQ)
	const episodes = 2500
	ref, err := EvaluatePairedParallel(a, b, episodes, 3, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 4, 8} {
		got, err := EvaluatePairedParallel(a, b, episodes, 3, workers)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(ref, got) {
			t.Errorf("workers=%d: paired comparison differs:\n  ref: %+v\n  got: %+v", workers, ref, got)
		}
	}
	if ref.MeanLevelDiff <= 0 {
		t.Errorf("paired gain %v, want positive (sanity)", ref.MeanLevelDiff)
	}
}

func TestEvaluateParallelValidation(t *testing.T) {
	p := ReferenceParams(10, qos.SchemeOAQ)
	if _, err := EvaluateParallel(p, 0, 1, 4); err == nil {
		t.Error("zero episodes accepted")
	}
	bad := p
	bad.K = 0
	if _, err := EvaluateParallel(bad, 10, 1, 4); err == nil {
		t.Error("invalid params accepted")
	}
	if _, err := EvaluatePairedParallel(bad, p, 10, 1, 4); err == nil {
		t.Error("invalid paired config accepted")
	}
}

// The sharded engine must agree statistically with the analytic model
// (it is the same protocol, just a different RNG indexing scheme).
func TestEvaluateParallelMatchesAnalytic(t *testing.T) {
	model := qos.ReferenceModel()
	for _, scheme := range []qos.Scheme{qos.SchemeOAQ, qos.SchemeBAQ} {
		ev, err := EvaluateParallel(ReferenceParams(10, scheme), 12000, 2003, 4)
		if err != nil {
			t.Fatal(err)
		}
		ana, err := model.ConditionalPMF(scheme, 10)
		if err != nil {
			t.Fatal(err)
		}
		for y := qos.LevelMiss; y <= qos.LevelSimultaneousDual; y++ {
			if d := math.Abs(ev.PMF[y] - ana[y]); d > 0.03 {
				t.Errorf("%v P(Y=%d): sim %.4f vs analytic %.4f (|diff| %.4f)", scheme, int(y), ev.PMF[y], ana[y], d)
			}
		}
	}
}
