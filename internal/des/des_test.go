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
	s.ScheduleCall(3, "c", func(float64, any) { order = append(order, "c") }, nil)
	s.ScheduleCall(1, "a", func(float64, any) { order = append(order, "a") }, nil)
	s.ScheduleCall(2, "b", func(float64, any) { order = append(order, "b") }, nil)
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
		s.ScheduleCall(5, "same", func(_ float64, arg any) { order = append(order, arg.(int)) }, i)
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
		s.ScheduleCall(d, "t", func(now float64, _ any) { times = append(times, now) }, nil)
	}
	s.Run(100)
	want := []float64{1, 3, 5}
	for i := range want {
		if times[i] != want[i] {
			t.Errorf("times = %v, want %v", times, want)
		}
	}
}

func TestHorizonLeavesLaterEventsPending(t *testing.T) {
	var s Simulation
	early, late := false, false
	s.ScheduleCall(1, "early", func(float64, any) { early = true }, nil)
	s.ScheduleCall(100, "late", func(float64, any) { late = true }, nil)
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

func TestScheduleFromHandler(t *testing.T) {
	var s Simulation
	var chain []float64
	var step ArgHandler
	step = func(now float64, _ any) {
		chain = append(chain, now)
		if len(chain) < 5 {
			s.ScheduleCall(2, "chain", step, nil)
		}
	}
	s.ScheduleCall(1, "chain", step, nil)
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
	s.ScheduleCall(5, "advance", func(float64, any) {
		s.ScheduleCallAt(7, "abs", func(now float64, _ any) { at = now }, nil)
	}, nil)
	s.Run(100)
	if at != 7 {
		t.Errorf("absolute event fired at %v, want 7", at)
	}
}

func TestSchedulePanics(t *testing.T) {
	var s Simulation
	nop := func(float64, any) {}
	for name, fn := range map[string]func(){
		"negative delay": func() { s.ScheduleCall(-1, "x", nop, nil) },
		"NaN delay":      func() { s.ScheduleCall(math.NaN(), "x", nop, nil) },
		"nil handler":    func() { s.ScheduleCall(1, "x", nil, nil) },
		"past absolute":  func() { s.ScheduleCallAt(-1, "x", nop, nil) },
		"bad ticker":     func() { s.Ticker(0, "x", nop, nil) },
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
	s.ScheduleCall(5, "x", func(float64, any) {}, nil)
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
	s.Ticker(10, "tick", func(now float64, _ any) {
		ticks = append(ticks, now)
	}, nil)
	s.Run(35)
	if len(ticks) != 3 || ticks[0] != 10 || ticks[2] != 30 {
		t.Errorf("ticks = %v, want [10 20 30]", ticks)
	}
	// A Reset drops the pending tick, and with it the ticker.
	s.Reset()
	s.Run(100)
	if len(ticks) != 3 {
		t.Errorf("ticker fired after Reset: %v", ticks)
	}
}

func TestFiredCount(t *testing.T) {
	var s Simulation
	for i := 0; i < 7; i++ {
		s.ScheduleCall(float64(i), "x", func(float64, any) {}, nil)
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
			s.ScheduleCall(r.Float64()*1000, "p", func(now float64, _ any) {
				fireTimes = append(fireTimes, now)
			}, nil)
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

// benchNop is BenchmarkScheduleAndRun's package-level handler.
func benchNop(float64, any) {}

// BenchmarkScheduleAndRun runs 1000 events, a quarter of them on a lane,
// on one reused Simulation. Once the first round has grown the heap, the
// lane ring and the freelist, a round allocates nothing.
func BenchmarkScheduleAndRun(b *testing.B) {
	var s Simulation
	lane := s.NewLane(2)
	round := func() {
		s.Reset()
		for j := 0; j < 1000; j++ {
			if j%4 == 0 {
				s.ScheduleLane(lane, "b", benchNop, nil)
			} else {
				s.ScheduleCall(float64(j%17), "b", benchNop, nil)
			}
		}
		s.Run(100)
	}
	round()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		round()
	}
}

// Fired returns the number of events executed so far.
func (s *Simulation) Fired() uint64 { return s.fired }
