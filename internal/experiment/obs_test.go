package experiment

import (
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
