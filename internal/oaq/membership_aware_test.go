package oaq

import (
	"testing"

	"satqos/internal/qos"
	"satqos/internal/stats"
)

// The §5 integration: a satellite that consults its membership view
// routes coordination requests around excluded peers, recovering
// sequential-coverage mass that fail-silent neighbors would otherwise
// destroy. Skipping only pays when the deadline admits the later pass
// (τ > L1) — with the paper's τ = 5 < Tr no substitute can arrive in
// time and the view changes nothing — so this test uses a relaxed
// deadline and long signals (k = 9: L1 = 10, τ = 25).
func TestMembershipAwareRoutesAroundFailures(t *testing.T) {
	mk := func(aware bool) Params {
		p := ReferenceParams(9, qos.SchemeOAQ)
		p.TauMin = 25
		p.SignalDuration = stats.Exponential{Rate: 0.05}
		p.BackwardMessaging = true
		p.FailSilentProb = 0.5
		p.MembershipAware = aware
		return p
	}
	blind, err := EvaluateParallel(mk(false), 6000, 41, 1)
	if err != nil {
		t.Fatal(err)
	}
	aware, err := EvaluateParallel(mk(true), 6000, 41, 1)
	if err != nil {
		t.Fatal(err)
	}
	if aware.PMF[qos.LevelSequentialDual] <= blind.PMF[qos.LevelSequentialDual] {
		t.Errorf("membership awareness should recover sequential mass: aware %v vs blind %v",
			aware.PMF[qos.LevelSequentialDual], blind.PMF[qos.LevelSequentialDual])
	}
	// Both variants keep the delivery guarantee (backward messaging).
	for name, ev := range map[string]*Evaluation{"blind": blind, "aware": aware} {
		if ev.DeliveredFraction < ev.DetectedFraction-1e-9 {
			t.Errorf("%s: delivered %v < detected %v", name, ev.DeliveredFraction, ev.DetectedFraction)
		}
	}
}

// With healthy peers the membership view is a no-op: identical results
// on identical seeds.
func TestMembershipAwareNoOpWhenHealthy(t *testing.T) {
	base := ReferenceParams(10, qos.SchemeOAQ)
	aware := base
	aware.MembershipAware = true
	evBase, err := EvaluateParallel(base, 2000, 42, 1)
	if err != nil {
		t.Fatal(err)
	}
	evAware, err := EvaluateParallel(aware, 2000, 42, 1)
	if err != nil {
		t.Fatal(err)
	}
	if evBase.PMF != evAware.PMF {
		t.Errorf("membership awareness changed healthy-plane results: %v vs %v",
			evBase.PMF, evAware.PMF)
	}
}

// A skipped peer means a later pass: the level-2 results of the aware
// variant arrive no earlier than the blind variant's on average, and
// never after the deadline.
func TestMembershipAwareLatencyBounded(t *testing.T) {
	p := ReferenceParams(10, qos.SchemeOAQ)
	p.BackwardMessaging = true
	p.FailSilentProb = 0.6
	p.MembershipAware = true
	p.SignalDuration = stats.Exponential{Rate: 0.1} // long signals → deep chains
	rng := stats.NewRNG(43, 0)
	for i := 0; i < 2000; i++ {
		res, err := RunEpisode(p, rng)
		if err != nil {
			t.Fatal(err)
		}
		if res.Delivered && res.DeliveryLatency > p.TauMin+1e-9 {
			t.Fatalf("delivery latency %v beyond the deadline", res.DeliveryLatency)
		}
	}
}
