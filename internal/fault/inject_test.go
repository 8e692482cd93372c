package fault

import (
	"reflect"
	"testing"

	"satqos/internal/crosslink"
	"satqos/internal/des"
	"satqos/internal/stats"
)

type probe struct {
	T          float64
	FailSilent bool
	LossProb   float64
}

// runScenario arms the scenario on a fresh sim/fabric pair and samples
// the fabric state at the given times.
func runScenario(t *testing.T, s *Scenario, seed uint64, times []float64) []probe {
	t.Helper()
	sim := &des.Simulation{}
	links, err := crosslink.NewNetwork(sim, crosslink.Config{MaxDelayMin: 0.1, LossProb: 0.1}, stats.NewRNG(1, 0))
	if err != nil {
		t.Fatal(err)
	}
	ground, err := crosslink.NewNetwork(sim, crosslink.Config{MaxDelayMin: 0.1}, stats.NewRNG(2, 0))
	if err != nil {
		t.Fatal(err)
	}
	counts := new(Injector).Arm(s, Target{
		Sim:      sim,
		Origin:   0,
		RNG:      stats.NewRNG(seed, 0),
		Detector: 1,
		Links:    links,
		Ground:   ground,
	})
	if want := (Counts{FailSilentWindows: len(s.FailSilent), LossBursts: len(s.LossBursts)}); counts != want {
		t.Errorf("Arm counts = %+v, want %+v", counts, want)
	}
	var got []probe
	for _, at := range times {
		sim.ScheduleCallAt(at, "probe", func(now float64, _ any) {
			got = append(got, probe{T: now, FailSilent: links.FailSilent(2), LossProb: links.LossProb()})
			if links.FailSilent(2) != ground.FailSilent(2) {
				t.Errorf("t=%g: fabrics disagree on fail-silence", now)
			}
		}, nil)
	}
	sim.Run(1e6)
	return got
}

func TestArmDrivesTimeline(t *testing.T) {
	s := &Scenario{
		FailSilent: []FailSilentWindow{{Sat: 2, StartMin: 1, EndMin: 3}},
		LossBursts: []LossBurst{{StartMin: 2, EndMin: 4, Prob: 1}},
	}
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	got := runScenario(t, s, 7, []float64{0.5, 1.5, 2.5, 3.5, 4.5})
	want := []probe{
		{0.5, false, 0.1}, // before everything
		{1.5, true, 0.1},  // fail-silent window open
		{2.5, true, 1},    // burst overrides loss
		{3.5, false, 1},   // recovered, burst still on
		{4.5, false, 0.1}, // burst over: base restored
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("timeline:\n got %+v\nwant %+v", got, want)
	}
}

func TestArmSpareDelayRecovery(t *testing.T) {
	// A window without scripted recovery ends when the delayed spare
	// deploys.
	s := &Scenario{
		FailSilent:    []FailSilentWindow{{Sat: 2, StartMin: 1}},
		SpareDelayMin: 2,
	}
	got := runScenario(t, s, 7, []float64{0.5, 1.5, 2.9, 3.5})
	want := []probe{
		{0.5, false, 0.1},
		{1.5, true, 0.1},
		{2.9, true, 0.1},
		{3.5, false, 0.1}, // spare deployed at 1 + 2
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("timeline:\n got %+v\nwant %+v", got, want)
	}
}

func TestArmJitterDeterministic(t *testing.T) {
	s := &Scenario{
		FailSilent: []FailSilentWindow{{Sat: 2, StartMin: 1, EndMin: 3, JitterMin: 2}},
		LossBursts: []LossBurst{{StartMin: 4, EndMin: 5, Prob: 0.9, JitterMin: 1}},
	}
	times := []float64{0.5, 1.5, 2.5, 3.5, 4.2, 4.8, 5.7, 6.5}
	a := runScenario(t, s, 42, times)
	b := runScenario(t, s, 42, times)
	if !reflect.DeepEqual(a, b) {
		t.Errorf("same seed, different timelines:\n a %+v\n b %+v", a, b)
	}
	// Jitter shifts the window but never drops it: the fabric must pass
	// through the fail-silent state at some probe.
	saw := false
	for _, p := range a {
		saw = saw || p.FailSilent
	}
	if !saw {
		t.Error("jittered window never observed")
	}
}

func TestArmEmptyScenarioIsNoOp(t *testing.T) {
	var s *Scenario
	counts := new(Injector).Arm(s, Target{})
	if counts != (Counts{}) {
		t.Errorf("nil scenario armed: %+v", counts)
	}
}
