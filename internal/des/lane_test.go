package des

import (
	"testing"

	"satqos/internal/obs/trace"
)

// TestLaneRunStopsAtHorizon: with only lane events pending, Run fires
// the ones due by the horizon, leaves the rest pending, and parks the
// clock at the horizon.
func TestLaneRunStopsAtHorizon(t *testing.T) {
	s := &Simulation{}
	l := s.NewLane(2)
	var got []float64
	fire := func(now float64, _ any) { got = append(got, now) }
	s.ScheduleLane(l, "a", fire, nil)
	s.Run(1)
	s.ScheduleLane(l, "b", fire, nil)
	if n := s.Run(2.5); n != 1 || len(got) != 1 || got[0] != 2 {
		t.Fatalf("Run(2.5) fired %d events at %v, want one at 2", n, got)
	}
	if s.Now() != 2.5 || s.Pending() != 1 || l.n != 1 {
		t.Fatalf("after Run(2.5): now %g, pending %d, lane %d", s.Now(), s.Pending(), l.n)
	}
	s.Run(10)
	if len(got) != 2 || got[1] != 3 {
		t.Fatalf("fired at %v, want [2 3]", got)
	}
}

// TestLaneRingWrapsAndGrows keeps a lane's ring partly full while it
// wraps and doubles, checking FIFO order and the cleared slots.
func TestLaneRingWrapsAndGrows(t *testing.T) {
	s := &Simulation{}
	l := s.NewLane(1)
	var got []int
	fire := func(_ float64, arg any) { got = append(got, *arg.(*int)) }
	ids := make([]int, 200)
	next := 0
	for round := 0; round < 20; round++ {
		for i := 0; i < 1+round%7*3 && next < len(ids); i++ {
			ids[next] = next
			s.ScheduleLane(l, "x", fire, &ids[next])
			next++
		}
		s.Step()
		s.Step()
	}
	s.Run(1e9)
	for i, id := range got {
		if id != i {
			t.Fatalf("lane fired id %d at position %d: %v", id, i, got)
		}
	}
	if len(got) != next {
		t.Fatalf("fired %d of %d lane events", len(got), next)
	}
	for i, x := range l.buf {
		if x.fn != nil || x.arg != nil {
			t.Fatalf("drained lane slot %d still references its event", i)
		}
	}
}

func TestLaneMisuse(t *testing.T) {
	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", name)
			}
		}()
		f()
	}
	s := &Simulation{}
	l := s.NewLane(1)
	nop := func(float64, any) {}
	mustPanic("negative delay", func() { s.NewLane(-1) })
	mustPanic("nil handler", func() { s.ScheduleLane(l, "x", nil, nil) })
	mustPanic("foreign lane", func() { (&Simulation{}).ScheduleLane(l, "x", nop, nil) })
	s.ScheduleLane(l, "x", nop, nil)
	mustPanic("retime a non-empty lane", func() { l.SetDelay(2) })
	s.Reset()
	if l.n != 0 || s.Pending() != 0 {
		t.Fatalf("Reset left lane %d, pending %d", l.n, s.Pending())
	}
	l.SetDelay(2) // empty again: allowed
	if l.Delay() != 2 {
		t.Fatalf("delay %g after SetDelay(2)", l.Delay())
	}
}

// TestLaneDispatchTraced: a traced simulation wraps lane dispatches in
// kernel dispatch spans labeled like heap dispatches.
func TestLaneDispatchTraced(t *testing.T) {
	rec := trace.NewRecorder(&trace.Config{SampleEvery: 1, Collector: trace.NewCollector()})
	s := &Simulation{}
	s.SetTracer(rec)
	l := s.NewLane(1)
	rec.StartEpisode(0)
	s.ScheduleCall(1, "heap", func(float64, any) {}, nil)
	s.ScheduleLane(l, "lane", func(float64, any) {}, nil)
	s.Run(5)
	if !rec.FinishEpisode(trace.Outcome{}) {
		t.Fatal("episode not retained")
	}
	var labels []string
	for _, sp := range rec.Kept()[0].Spans {
		if sp.Kind == trace.KindDispatch && sp.Sat == trace.SatKernel && sp.Start == 1 && sp.End == 1 {
			labels = append(labels, sp.Label)
		}
	}
	if len(labels) != 2 || labels[0] != "heap" || labels[1] != "lane" {
		t.Fatalf("dispatch spans %v, want [heap lane]", labels)
	}
}
