package satqos_test

import (
	"math"
	"testing"

	"satqos"
)

// The facade quickstart from the package documentation must work
// verbatim.
func TestQuickstartFlow(t *testing.T) {
	dist, err := satqos.PlaneCapacity(10, 5e-5, 30000)
	if err != nil {
		t.Fatal(err)
	}
	model, err := satqos.NewAnalyticModel(satqos.ReferenceGeometry(), 5, 0.2, 30)
	if err != nil {
		t.Fatal(err)
	}
	p, err := model.Measure(satqos.SchemeOAQ, dist, satqos.LevelSequentialDual)
	if err != nil {
		t.Fatal(err)
	}
	if p <= 0 || p >= 1 {
		t.Errorf("P(Y>=2) = %v, want in (0, 1)", p)
	}
	baq, err := model.Measure(satqos.SchemeBAQ, dist, satqos.LevelSequentialDual)
	if err != nil {
		t.Fatal(err)
	}
	if p <= baq {
		t.Errorf("OAQ %v should beat BAQ %v", p, baq)
	}
}

func TestProtocolFacade(t *testing.T) {
	rng := satqos.NewRNG(1, 0)
	params := satqos.ReferenceProtocolParams(12, satqos.SchemeOAQ)
	res, err := satqos.RunEpisode(params, rng)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Level.Valid() {
		t.Errorf("invalid level %v", res.Level)
	}
	ev, err := satqos.EvaluateProtocol(params, 500, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(ev.PMF.Total()-1) > 1e-9 {
		t.Errorf("PMF mass = %v", ev.PMF.Total())
	}
}

func TestConstellationFacade(t *testing.T) {
	c, err := satqos.NewConstellation(satqos.DefaultConstellationConfig())
	if err != nil {
		t.Fatal(err)
	}
	if c.ActiveSatellites() != 98 {
		t.Errorf("active = %d, want 98", c.ActiveSatellites())
	}
	target, err := satqos.FromDegrees(30, -100)
	if err != nil {
		t.Fatal(err)
	}
	if n := c.SimultaneousCoverageCount(target, 0); n < 0 {
		t.Errorf("coverage count = %d", n)
	}
}

func TestTraceAndMissionFacade(t *testing.T) {
	rng := satqos.NewRNG(5, 0)
	// The origin rule: the root span opens at signal start, so the
	// detection dispatch starts at root Start + DetectionDelay. A k=8
	// plane has coverage gaps, so some detected episodes have a nonzero
	// delay, where the rule bites.
	params := satqos.ReferenceProtocolParams(8, satqos.SchemeOAQ)
	delayed := false
	for i := 0; i < 200 && !delayed; i++ {
		res, tr, err := satqos.RunEpisodeTraced(params, rng)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Detected {
			continue
		}
		if len(tr.Spans) == 0 {
			t.Fatal("detected episode produced no trace")
		}
		delayed = res.DetectionDelay > 0
		t0 := tr.Spans[0].Start + res.DetectionDelay
		found := false
		for _, sp := range tr.Spans {
			if sp.Label == "detection" {
				found = true
				if sp.Start != t0 {
					t.Errorf("detection span at %g, want root Start + DetectionDelay = %g", sp.Start, t0)
				}
			}
		}
		if !found {
			t.Error("detected episode has no detection span")
		}
	}
	if !delayed {
		t.Error("no detected episode with a detection delay in 200 tries")
	}
	cfg := satqos.DefaultMissionConfig()
	cfg.SignalRatePerMin = 0.2
	rep, err := satqos.RunMission(cfg, 60)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Episodes > 0 && rep.DetectedFraction <= 0 {
		t.Error("mission detected nothing")
	}
}

func TestCapacityMetricsFacade(t *testing.T) {
	p := satqos.ReferenceCapacityParams(10, 5e-5, 30000)
	mtta, err := p.MeanTimeToThreshold()
	if err != nil {
		t.Fatal(err)
	}
	if mtta <= 0 {
		t.Errorf("MTTA = %v", mtta)
	}
	avail, err := satqos.ConstellationAtLeast(p, 7, 80)
	if err != nil {
		t.Fatal(err)
	}
	if avail <= 0 || avail > 1 {
		t.Errorf("availability = %v", avail)
	}
}

func TestExperimentFacade(t *testing.T) {
	if tab := satqos.Table1(); len(tab.Rows) != 2 {
		t.Error("Table1 wrong shape")
	}
	f7, err := satqos.Figure7([]float64{1e-5, 1e-4}, 10, 30000)
	if err != nil {
		t.Fatal(err)
	}
	if len(f7.X) != 2 {
		t.Error("Figure7 wrong shape")
	}
	if _, err := satqos.Figure8([]float64{1e-5}); err != nil {
		t.Fatal(err)
	}
	if _, err := satqos.Figure9([]float64{1e-5}); err != nil {
		t.Fatal(err)
	}
}
