package experiment

import (
	"encoding/json"
	"strings"
	"testing"

	"satqos/internal/obs"
)

func TestSweepInstrumentation(t *testing.T) {
	Metrics = obs.NewRegistry()
	t.Cleanup(func() { Metrics = nil })

	lambdas := []float64{1e-5, 5e-5, 1e-4}
	if _, err := Figure9(lambdas); err != nil {
		t.Fatal(err)
	}
	snap := Metrics.Snapshot()
	pts := snap.Get("experiment_sweep_points_total")
	if pts == nil || pts.Value == nil || *pts.Value != float64(len(lambdas)) {
		t.Fatalf("experiment_sweep_points_total = %+v, want %d", pts, len(lambdas))
	}
	h := snap.Get("experiment_sweep_point_seconds")
	if h == nil || h.Count == nil || *h.Count != uint64(len(lambdas)) {
		t.Fatalf("experiment_sweep_point_seconds count = %+v, want %d", h, len(lambdas))
	}
}

func TestSimVsAnalyticPublishesProtocolFamilies(t *testing.T) {
	Metrics = obs.NewRegistry()
	t.Cleanup(func() { Metrics = nil })

	const episodes = 256
	if _, _, err := SimVsAnalytic([]int{12}, episodes, 7); err != nil {
		t.Fatal(err)
	}
	snap := Metrics.Snapshot()
	// Two cells (OAQ, BAQ) of `episodes` each.
	ep := snap.Get("oaq_episodes_total")
	if ep == nil || ep.Value == nil || *ep.Value != 2*episodes {
		t.Fatalf("oaq_episodes_total = %+v, want %d", ep, 2*episodes)
	}
	for _, name := range []string{
		"des_events_fired_total",
		"crosslink_messages_sent_total",
		"oaq_alert_latency_minutes",
	} {
		if snap.Get(name) == nil {
			t.Errorf("family %q missing from sweep registry", name)
		}
	}
}

func TestAblationPublishesProtocolFamilies(t *testing.T) {
	Metrics = obs.NewRegistry()
	t.Cleanup(func() { Metrics = nil })

	const episodes = 128
	if _, err := AblationTC1([]float64{0, 20}, episodes, 7); err != nil {
		t.Fatal(err)
	}
	snap := Metrics.Snapshot()
	// Two thresholds of `episodes` each, timed as two sweep points.
	ep := snap.Get("oaq_episodes_total")
	if ep == nil || ep.Value == nil || *ep.Value != 2*episodes {
		t.Fatalf("oaq_episodes_total = %+v, want %d", ep, 2*episodes)
	}
	pts := snap.Get("experiment_sweep_points_total")
	if pts == nil || pts.Value == nil || *pts.Value != 2 {
		t.Fatalf("experiment_sweep_points_total = %+v, want 2", pts)
	}
}

// TestSweepMetricsIndependentOfWorkers: the simulation families a sweep
// publishes into Metrics are the same at any worker count. Cells run
// concurrently, so this holds only if their float histogram sums are
// folded into Metrics in cell order rather than completion order. The
// wall-clock _seconds families are left out.
func TestSweepMetricsIndependentOfWorkers(t *testing.T) {
	t.Cleanup(func() { Metrics, Workers = nil, 0 })
	losses := []float64{0, 0.05, 0.1, 0.15, 0.2, 0.25, 0.3, 0.35, 0.4, 0.45, 0.5, 0.55}
	snapshot := func(workers int) string {
		Metrics, Workers = obs.NewRegistry(), workers
		if _, err := DegradedLossSweep(losses, nil, 10, 1, 400, 3); err != nil {
			t.Fatal(err)
		}
		if _, err := AblationBackwardMessaging([]float64{0, 0.1, 0.2, 0.3}, 400, 3); err != nil {
			t.Fatal(err)
		}
		snap := Metrics.Snapshot()
		kept := snap.Metrics[:0]
		for _, m := range snap.Metrics {
			if !strings.HasSuffix(m.Name, "_seconds") {
				kept = append(kept, m)
			}
		}
		snap.Metrics = kept
		b, err := json.MarshalIndent(snap, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}
	want := snapshot(1)
	for run := 0; run < 10; run++ {
		if got := snapshot(8); got != want {
			t.Fatalf("run %d: sweep metrics at 8 workers differ from 1 worker", run)
		}
	}
}
