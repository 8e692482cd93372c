package oaq

import (
	"fmt"
	"math"
	"testing"

	"satqos/internal/obs"
	"satqos/internal/qos"
	"satqos/internal/stats"
)

func TestEvaluatePairedValidation(t *testing.T) {
	a := ReferenceParams(10, qos.SchemeOAQ)
	b := ReferenceParams(10, qos.SchemeBAQ)
	if _, err := EvaluatePairedParallel(a, b, 0, 1, 1); err == nil {
		t.Error("zero episodes accepted")
	}
	bad := a
	bad.K = 0
	if _, err := EvaluatePairedParallel(bad, b, 10, 1, 1); err == nil {
		t.Error("invalid config A accepted")
	}
	if _, err := EvaluatePairedParallel(a, bad, 10, 1, 1); err == nil {
		t.Error("invalid config B accepted")
	}
	mismatched := ReferenceParams(12, qos.SchemeBAQ)
	if _, err := EvaluatePairedParallel(a, mismatched, 10, 1, 1); err == nil {
		t.Error("mismatched capacity accepted")
	}
	otherDur := ReferenceParams(10, qos.SchemeBAQ)
	otherDur.SignalDuration = stats.Exponential{Rate: 0.2}
	if _, err := EvaluatePairedParallel(a, otherDur, 10, 1, 1); err == nil {
		t.Error("mismatched duration distribution accepted")
	}
}

func TestEvaluatePairedOAQvsBAQ(t *testing.T) {
	a := ReferenceParams(10, qos.SchemeOAQ)
	b := ReferenceParams(10, qos.SchemeBAQ)
	cmp, err := EvaluatePairedParallel(a, b, 4000, 11, 1)
	if err != nil {
		t.Fatal(err)
	}
	// OAQ never does worse than BAQ on the same workload in the
	// underlap regime (it only adds sequential passes on top of the
	// identical detection).
	if cmp.LossFraction > 0.001 {
		t.Errorf("OAQ lost to BAQ on %v of shared episodes", cmp.LossFraction)
	}
	if cmp.WinFraction <= 0 {
		t.Error("OAQ never won — sequential coordination missing")
	}
	if cmp.MeanLevelDiff <= 0 {
		t.Errorf("mean level gain = %v, want positive", cmp.MeanLevelDiff)
	}
	if cmp.MeanLevelDiffCI <= 0 || cmp.MeanLevelDiffCI > 0.1 {
		t.Errorf("paired CI = %v, want small and positive", cmp.MeanLevelDiffCI)
	}
	// The gain matches the analytic G2 (the paired estimator is
	// unbiased): E[Y_OAQ − Y_BAQ | k=10] = P(Y=2|10) since the only
	// difference is single→sequential upgrades.
	model := qos.ReferenceModel()
	pmf, err := model.ConditionalPMF(qos.SchemeOAQ, 10)
	if err != nil {
		t.Fatal(err)
	}
	want := pmf[qos.LevelSequentialDual]
	if diff := cmp.MeanLevelDiff - want; diff > 3*cmp.MeanLevelDiffCI+0.01 || diff < -3*cmp.MeanLevelDiffCI-0.01 {
		t.Errorf("paired gain %v ± %v vs analytic %v", cmp.MeanLevelDiff, cmp.MeanLevelDiffCI, want)
	}
	// The two sides' PMFs are well-formed.
	if cmp.A.PMF.Total() < 0.999 || cmp.B.PMF.Total() < 0.999 {
		t.Error("paired PMFs lost mass")
	}
}

// The paired estimator's confidence interval must be tighter than the
// naive two-independent-runs interval for the same budget. Use k = 9,
// where both schemes share the same miss events (identical workload
// draws), giving strictly positive covariance. (At k = 10, BAQ's level
// is deterministic and pairing is merely a wash.)
func TestPairedVarianceReduction(t *testing.T) {
	a := ReferenceParams(9, qos.SchemeOAQ)
	b := ReferenceParams(9, qos.SchemeBAQ)
	const n = 3000
	cmp, err := EvaluatePairedParallel(a, b, n, 5, 1)
	if err != nil {
		t.Fatal(err)
	}
	// Independent runs: var(diff) = var(Y_A) + var(Y_B). Estimate the
	// marginal variances from the paired PMFs themselves.
	varOf := func(pmf qos.PMF) float64 {
		var m, m2 float64
		for l, p := range pmf {
			m += float64(l) * p
			m2 += float64(l) * float64(l) * p
		}
		return m2 - m*m
	}
	independentCI := 1.96 * math.Sqrt((varOf(cmp.A.PMF)+varOf(cmp.B.PMF))/n)
	if cmp.MeanLevelDiffCI >= independentCI {
		t.Errorf("paired CI %v not tighter than independent CI %v",
			cmp.MeanLevelDiffCI, independentCI)
	}
}

// The alert-latency exemplar of a paired evaluation names the global
// episode that produced it: replaying that episode's substream through
// RunEpisode reproduces the exemplar's latency.
func TestPairedExemplarReplays(t *testing.T) {
	a := ReferenceParams(10, qos.SchemeBAQ)
	b := ReferenceParams(10, qos.SchemeOAQ)
	a.Metrics = obs.NewRegistry()
	b.Metrics = obs.NewRegistry()
	const seed = 3
	if _, err := EvaluatePairedParallel(a, b, 4096, seed, 2); err != nil {
		t.Fatal(err)
	}
	snap := a.Metrics.Snapshot()
	m := snap.Get("oaq_alert_latency_minutes")
	if m == nil || m.Exemplar == nil {
		t.Fatalf("config A recorded no alert-latency exemplar: %+v", m)
	}
	var ord uint64
	if _, err := fmt.Sscanf(m.Exemplar.TraceID, "ep-%d", &ord); err != nil {
		t.Fatalf("exemplar trace ID %q: %v", m.Exemplar.TraceID, err)
	}
	a.Metrics = nil
	res, err := RunEpisode(a, stats.NewRNG(seed, ord))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Delivered || res.DeliveryLatency != m.Exemplar.Value {
		t.Fatalf("exemplar %s has latency %v; its replay delivered=%v latency %v",
			m.Exemplar.TraceID, m.Exemplar.Value, res.Delivered, res.DeliveryLatency)
	}
}
