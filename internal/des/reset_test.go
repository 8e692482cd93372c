package des

import "testing"

func TestResetClearsStateKeepsStorage(t *testing.T) {
	s := &Simulation{}
	var fired int
	for i := 0; i < 8; i++ {
		s.Schedule(float64(i), "e", func(float64) { fired++ })
	}
	s.Run(3)
	if fired != 4 {
		t.Fatalf("fired %d events before reset, want 4", fired)
	}
	s.Reset()
	if s.Now() != 0 || s.Fired() != 0 || s.Pending() != 0 {
		t.Fatalf("reset left now=%v fired=%d pending=%d", s.Now(), s.Fired(), s.Pending())
	}
	// The simulation is fully usable again from time zero.
	order := []float64{}
	s.Schedule(2, "b", func(now float64) { order = append(order, now) })
	s.Schedule(1, "a", func(now float64) { order = append(order, now) })
	s.Run(10)
	if len(order) != 2 || order[0] != 1 || order[1] != 2 {
		t.Fatalf("post-reset run fired %v", order)
	}
}

// A long sequence of ScheduleCall schedule/fire cycles recycles the
// same Event structs while preserving the (time, seq) ordering that
// never-recycled Schedule events follow.
func TestEventReuseKeepsDeterministicOrder(t *testing.T) {
	run := func(reuse bool) []int {
		s := &Simulation{}
		var log []int
		logID := func(_ float64, arg any) { log = append(log, arg.(int)) }
		at := func(delay float64, label string, id int) {
			if reuse {
				s.ScheduleCall(delay, label, logID, id)
			} else {
				s.Schedule(delay, label, func(now float64) { logID(now, id) })
			}
		}
		for round := 0; round < 5; round++ {
			id := round * 10
			at(1, "x", id)
			at(1, "y", id+1)
			at(0.5, "z", id+2)
			s.Run(s.Now() + 2)
			s.Reset()
		}
		if got := len(s.free) > 0; got != reuse {
			t.Fatalf("reuse=%v: freelist holds %d events", reuse, len(s.free))
		}
		return log
	}
	plain, reused := run(false), run(true)
	if len(plain) != len(reused) {
		t.Fatalf("lengths differ: %d vs %d", len(plain), len(reused))
	}
	for i := range plain {
		if plain[i] != reused[i] {
			t.Fatalf("event order diverges at %d: %v vs %v", i, plain, reused)
		}
	}
}

// A ScheduleCall handler scheduling new events must never receive its
// own in-flight event back.
func TestEventReuseHandlerScheduling(t *testing.T) {
	s := &Simulation{}
	depth := 0
	var firing *Event // the event whose handler is running
	var grow ArgHandler
	grow = func(float64, any) {
		depth++
		if depth < 100 {
			e := s.ScheduleCall(0.1, "grow", grow, nil)
			if e == firing {
				t.Fatalf("depth %d: handler was handed its own in-flight event", depth)
			}
			firing = e
		}
	}
	firing = s.ScheduleCall(0.1, "grow", grow, nil)
	s.Run(1000)
	if depth != 100 {
		t.Fatalf("chain depth %d, want 100", depth)
	}
}
