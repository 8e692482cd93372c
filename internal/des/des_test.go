package des

import (
	"math"
	"sort"
	"testing"
	"testing/quick"

	"satqos/internal/stats"
)

func TestEventOrdering(t *testing.T) {
	var s Simulation
	var order []string
	s.Schedule(3, "c", func(now float64) { order = append(order, "c") })
	s.Schedule(1, "a", func(now float64) { order = append(order, "a") })
	s.Schedule(2, "b", func(now float64) { order = append(order, "b") })
	s.Run(10)
	if got := len(order); got != 3 {
		t.Fatalf("fired %d events, want 3", got)
	}
	if order[0] != "a" || order[1] != "b" || order[2] != "c" {
		t.Errorf("order = %v", order)
	}
	if s.Now() != 10 {
		t.Errorf("Now = %v, want horizon 10", s.Now())
	}
}

func TestSimultaneousEventsFIFO(t *testing.T) {
	var s Simulation
	var order []int
	for i := 0; i < 50; i++ {
		i := i
		s.Schedule(5, "same", func(now float64) { order = append(order, i) })
	}
	s.Run(5)
	if !sort.IntsAreSorted(order) {
		t.Errorf("simultaneous events not FIFO: %v", order)
	}
}

func TestClockAdvances(t *testing.T) {
	var s Simulation
	var times []float64
	for _, d := range []float64{5, 1, 3} {
		s.Schedule(d, "t", func(now float64) { times = append(times, now) })
	}
	s.Run(100)
	want := []float64{1, 3, 5}
	for i := range want {
		if times[i] != want[i] {
			t.Errorf("times = %v, want %v", times, want)
		}
	}
}

func TestCancel(t *testing.T) {
	var s Simulation
	fired := false
	e := s.Schedule(1, "x", func(now float64) { fired = true })
	s.Cancel(e)
	s.Run(10)
	if fired {
		t.Error("canceled event fired")
	}
	if !e.Canceled() {
		t.Error("Canceled() = false")
	}
	// Double cancel and nil cancel are safe no-ops.
	s.Cancel(e)
	s.Cancel(nil)
}

// Canceling the head event must leave the next live event at the head:
// Run may fire nothing scheduled after its horizon.
func TestCancelHeadRespectsHorizon(t *testing.T) {
	var s Simulation
	var fired []float64
	record := func(now float64) { fired = append(fired, now) }
	head := s.Schedule(1, "head", record)
	s.Schedule(5, "mid", record)
	s.Schedule(20, "late", record)
	s.Cancel(head)
	if got := s.Pending(); got != 2 {
		t.Fatalf("Pending after canceling the head = %d, want 2", got)
	}
	s.Run(10)
	if len(fired) != 1 || fired[0] != 5 {
		t.Fatalf("Run(10) fired at %v, want [5]", fired)
	}
	if s.Now() != 10 || s.Pending() != 1 {
		t.Fatalf("after Run(10): Now = %g, Pending = %d, want 10 and 1", s.Now(), s.Pending())
	}
}

func TestCancelFromHandler(t *testing.T) {
	var s Simulation
	fired := false
	victim := s.Schedule(2, "victim", func(now float64) { fired = true })
	s.Schedule(1, "killer", func(now float64) { s.Cancel(victim) })
	s.Run(10)
	if fired {
		t.Error("event canceled by earlier handler still fired")
	}
}

func TestHorizonLeavesLaterEventsPending(t *testing.T) {
	var s Simulation
	early, late := false, false
	s.Schedule(1, "early", func(now float64) { early = true })
	s.Schedule(100, "late", func(now float64) { late = true })
	s.Run(10)
	if !early || late {
		t.Errorf("early=%v late=%v after horizon 10", early, late)
	}
	if s.Pending() != 1 {
		t.Errorf("Pending = %d, want 1", s.Pending())
	}
	s.Run(200)
	if !late {
		t.Error("late event did not fire on second Run")
	}
}

func TestHalt(t *testing.T) {
	var s Simulation
	count := 0
	for i := 0; i < 10; i++ {
		s.Schedule(float64(i+1), "n", func(now float64) {
			count++
			if count == 3 {
				s.Halt()
			}
		})
	}
	s.Run(100)
	if count != 3 {
		t.Errorf("fired %d events after Halt, want 3", count)
	}
	// Clock stays at the halting event's time, not the horizon.
	if s.Now() != 3 {
		t.Errorf("Now = %v, want 3", s.Now())
	}
}

func TestScheduleFromHandler(t *testing.T) {
	var s Simulation
	var chain []float64
	var step Handler
	step = func(now float64) {
		chain = append(chain, now)
		if len(chain) < 5 {
			s.Schedule(2, "chain", step)
		}
	}
	s.Schedule(1, "chain", step)
	s.Run(100)
	want := []float64{1, 3, 5, 7, 9}
	for i := range want {
		if chain[i] != want[i] {
			t.Fatalf("chain = %v, want %v", chain, want)
		}
	}
}

func TestScheduleAt(t *testing.T) {
	var s Simulation
	var at float64
	s.Schedule(5, "advance", func(now float64) {
		s.ScheduleAt(7, "abs", func(now float64) { at = now })
	})
	s.Run(100)
	if at != 7 {
		t.Errorf("absolute event fired at %v, want 7", at)
	}
}

func TestSchedulePanics(t *testing.T) {
	var s Simulation
	for name, fn := range map[string]func(){
		"negative delay": func() { s.Schedule(-1, "x", func(float64) {}) },
		"NaN delay":      func() { s.Schedule(math.NaN(), "x", func(float64) {}) },
		"nil handler":    func() { s.Schedule(1, "x", nil) },
		"past absolute":  func() { s.ScheduleAt(-1, "x", func(float64) {}) },
		"bad ticker":     func() { s.Ticker(0, "x", func(float64) {}) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s did not panic", name)
				}
			}()
			fn()
		}()
	}
}

func TestRunHorizonBeforeNowPanics(t *testing.T) {
	var s Simulation
	s.Schedule(5, "x", func(float64) {})
	s.Run(5)
	defer func() {
		if recover() == nil {
			t.Error("Run into the past did not panic")
		}
	}()
	s.Run(1)
}

func TestTicker(t *testing.T) {
	var s Simulation
	var ticks []float64
	stop := s.Ticker(10, "tick", func(now float64) {
		ticks = append(ticks, now)
	})
	s.Run(35)
	if len(ticks) != 3 || ticks[0] != 10 || ticks[2] != 30 {
		t.Errorf("ticks = %v, want [10 20 30]", ticks)
	}
	stop()
	s.Run(100)
	if len(ticks) != 3 {
		t.Errorf("ticker fired after stop: %v", ticks)
	}
}

func TestTickerStopFromWithinHandler(t *testing.T) {
	var s Simulation
	count := 0
	var stop func()
	stop = s.Ticker(1, "tick", func(now float64) {
		count++
		if count == 4 {
			stop()
		}
	})
	s.Run(100)
	if count != 4 {
		t.Errorf("count = %d, want 4", count)
	}
}

// A Ticker stopped from inside its own tick keeps the handle of the
// event that just fired, and a second stop cancels it again. Were that
// closure event recycled like ScheduleCall events are, the second stop
// would cancel whichever unrelated event reused its storage.
func TestTickerStopSparesRecycledEvents(t *testing.T) {
	var s Simulation
	var stop func()
	stop = s.Ticker(1, "tick", func(float64) { stop() })
	s.ScheduleCall(0.5, "churn", func(float64, any) {}, nil)
	s.Run(1.5)
	fired := 0
	count := func(float64, any) { fired++ }
	for i := 0; i < 4; i++ {
		s.ScheduleCall(1, "live", count, nil)
	}
	stop()
	s.Run(10)
	if fired != 4 {
		t.Fatalf("%d of 4 live events fired after the second stop", fired)
	}

	// Cancel on a fired Schedule handle stays a no-op.
	e := s.Schedule(1, "once", func(float64) {})
	s.Run(s.Now() + 2)
	s.ScheduleCall(1, "live", count, nil)
	s.Cancel(e)
	if s.Pending() != 1 {
		t.Fatalf("Cancel of a fired Schedule handle left %d pending, want 1", s.Pending())
	}
	s.Run(s.Now() + 2)
	if fired != 5 {
		t.Fatalf("live event canceled through a fired Schedule handle")
	}
}

func TestEventAccessors(t *testing.T) {
	var s Simulation
	e := s.Schedule(2.5, "hello", func(float64) {})
	if e.Time() != 2.5 {
		t.Errorf("Time = %v", e.Time())
	}
	if e.Label() != "hello" {
		t.Errorf("Label = %q", e.Label())
	}
}

func TestFiredCount(t *testing.T) {
	var s Simulation
	for i := 0; i < 7; i++ {
		s.Schedule(float64(i), "x", func(float64) {})
	}
	n := s.Run(100)
	if n != 7 || s.Fired() != 7 {
		t.Errorf("Run returned %d, Fired = %d, want 7", n, s.Fired())
	}
}

// Events fire in nondecreasing time order no matter the insertion order.
func TestHeapOrderProperty(t *testing.T) {
	prop := func(seed uint64) bool {
		r := stats.NewRNG(seed, 0)
		var s Simulation
		var fireTimes []float64
		n := 200
		for i := 0; i < n; i++ {
			s.Schedule(r.Float64()*1000, "p", func(now float64) {
				fireTimes = append(fireTimes, now)
			})
		}
		s.Run(2000)
		if len(fireTimes) != n {
			return false
		}
		return sort.Float64sAreSorted(fireTimes)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func BenchmarkScheduleAndRun(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		var s Simulation
		for j := 0; j < 1000; j++ {
			s.Schedule(float64(j%17), "b", func(float64) {})
		}
		s.Run(100)
	}
}

// Time returns the simulation time at which the event is scheduled.
func (e *Event) Time() float64 { return e.time }

// Label returns the diagnostic label given at scheduling time.
func (e *Event) Label() string { return e.label }

// Canceled reports whether Cancel was called on the event.
func (e *Event) Canceled() bool { return e.canceled }

// Fired returns the number of events executed so far.
func (s *Simulation) Fired() uint64 { return s.fired }

// Halt stops the run loop after the current event completes. It is the
// mechanism by which an event handler ends a Run early.
func (s *Simulation) Halt() { s.halted = true }
