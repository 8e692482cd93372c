package oaq

import (
	"math"
	"testing"

	"satqos/internal/qos"
)

// TestProbabilityBounds pins the aligned validation of the two failure
// probabilities: both are closed on [0, 1] (1 models a certain failure —
// every peer fail-silent, a total crosslink outage) and both reject NaN.
func TestProbabilityBounds(t *testing.T) {
	cases := []struct {
		name  string
		value float64
		ok    bool
	}{
		{"zero", 0, true},
		{"interior", 0.5, true},
		{"one", 1, true},
		{"negative", -0.1, false},
		{"above one", 1.1, false},
		{"NaN", math.NaN(), false},
	}
	for _, tc := range cases {
		p := ReferenceParams(10, qos.SchemeOAQ)
		p.FailSilentProb = tc.value
		if err := p.Validate(); (err == nil) != tc.ok {
			t.Errorf("FailSilentProb %s (%g): err = %v, want ok=%v", tc.name, tc.value, err, tc.ok)
		}
		p = ReferenceParams(10, qos.SchemeOAQ)
		p.MessageLossProb = tc.value
		if err := p.Validate(); (err == nil) != tc.ok {
			t.Errorf("MessageLossProb %s (%g): err = %v, want ok=%v", tc.name, tc.value, err, tc.ok)
		}
	}
	p := ReferenceParams(10, qos.SchemeOAQ)
	p.RequestRetries = -1
	if err := p.Validate(); err == nil {
		t.Error("negative retry budget accepted")
	}
}

// Lossy crosslinks under backward messaging: a lost coordination
// request or done notification falls back to the requester's timeout,
// so every detected signal still produces a timely alert — at a reduced
// QoS level.
func TestLossyCrosslinksBackwardStillDelivers(t *testing.T) {
	p := ReferenceParams(10, qos.SchemeOAQ)
	p.BackwardMessaging = true
	p.MessageLossProb = 0.5
	ev, err := EvaluateParallel(p, 5000, 21, 1)
	if err != nil {
		t.Fatal(err)
	}
	if ev.DeliveredFraction < ev.DetectedFraction-1e-9 {
		t.Errorf("lossy backward: delivered %v < detected %v",
			ev.DeliveredFraction, ev.DetectedFraction)
	}
	// Losses shrink — but do not eliminate — sequential coordination.
	clean := ReferenceParams(10, qos.SchemeOAQ)
	clean.BackwardMessaging = true
	evClean, err := EvaluateParallel(clean, 5000, 22, 1)
	if err != nil {
		t.Fatal(err)
	}
	if ev.PMF[qos.LevelSequentialDual] >= evClean.PMF[qos.LevelSequentialDual] {
		t.Errorf("50%% loss should reduce sequential mass: %v vs clean %v",
			ev.PMF[qos.LevelSequentialDual], evClean.PMF[qos.LevelSequentialDual])
	}
	if ev.PMF[qos.LevelSequentialDual] == 0 {
		t.Error("sequential coordination should survive some losses")
	}
}

// Lossy crosslinks under no-backward messaging: a lost request leaves
// the detecting satellite silently waiting for a peer that never heard
// it, and the alert is lost — the variant's documented weakness,
// extended from fail-silent peers to lossy links.
func TestLossyCrosslinksNoBackwardLosesAlerts(t *testing.T) {
	p := ReferenceParams(10, qos.SchemeOAQ)
	p.BackwardMessaging = false
	p.MessageLossProb = 0.5
	ev, err := EvaluateParallel(p, 5000, 22, 1)
	if err != nil {
		t.Fatal(err)
	}
	if ev.DeliveredFraction >= ev.DetectedFraction-0.01 {
		t.Errorf("no-backward over a 50%%-lossy link should lose alerts: delivered %v of detected %v",
			ev.DeliveredFraction, ev.DetectedFraction)
	}
}

// BAQ never uses the crosslink for coordination, so message loss cannot
// affect it at all.
func TestLossDoesNotAffectBAQ(t *testing.T) {
	clean := ReferenceParams(10, qos.SchemeBAQ)
	lossy := ReferenceParams(10, qos.SchemeBAQ)
	lossy.MessageLossProb = 0.9
	evClean, err := EvaluateParallel(clean, 3000, 23, 1)
	if err != nil {
		t.Fatal(err)
	}
	evLossy, err := EvaluateParallel(lossy, 3000, 23, 1)
	if err != nil {
		t.Fatal(err)
	}
	for y := qos.LevelMiss; y <= qos.LevelSimultaneousDual; y++ {
		if evClean.PMF[y] != evLossy.PMF[y] {
			t.Errorf("level %v: BAQ differs under loss: %v vs %v", y, evClean.PMF[y], evLossy.PMF[y])
		}
	}
}

// Determinism: identical parameters and seed produce identical
// evaluations (the repository-wide reproducibility guarantee).
func TestEvaluateDeterministic(t *testing.T) {
	p := ReferenceParams(10, qos.SchemeOAQ)
	p.MessageLossProb = 0.2
	p.FailSilentProb = 0.1
	a, err := EvaluateParallel(p, 2000, 77, 1)
	if err != nil {
		t.Fatal(err)
	}
	b, err := EvaluateParallel(p, 2000, 77, 1)
	if err != nil {
		t.Fatal(err)
	}
	if a.PMF != b.PMF {
		t.Errorf("non-deterministic PMF: %v vs %v", a.PMF, b.PMF)
	}
	if a.MeanMessages != b.MeanMessages || a.DeliveredFraction != b.DeliveredFraction {
		t.Error("non-deterministic aggregates")
	}
}
