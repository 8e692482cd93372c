package des

import (
	"fmt"
	"math"
	"testing"

	"satqos/internal/stats"
)

// TestFreelistNeverAliasesLiveEvent is the property test for the
// fired-event freelist: no *event on the freelist may still sit in a
// queue slot, and none may sit on it twice. Either would be a
// use-after-free-style bug — the next ScheduleCall would silently rewire
// a pending occurrence — and, because only one goroutine is involved,
// the race detector cannot see it.
//
// The test drives randomized workloads (nested scheduling from handlers,
// bursts, Resets) and checks the freelist against the queue after every
// operation, handler dispatches included.
func TestFreelistNeverAliasesLiveEvent(t *testing.T) {
	for seed := uint64(1); seed <= 20; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			rng := stats.NewRNG(seed, 0)
			sim := &Simulation{}

			issued := 0
			check := func(what string) {
				queued := make(map[*event]bool, len(sim.queue))
				for _, q := range sim.queue {
					queued[q.ev] = true
				}
				free := make(map[*event]bool, len(sim.free))
				for _, e := range sim.free {
					if queued[e] {
						t.Fatalf("after %s: freelist event %p %q@%g is still queued", what, e, e.label, e.time)
					}
					if free[e] {
						t.Fatalf("after %s: event %p is on the freelist twice", what, e)
					}
					free[e] = true
				}
			}

			var burst func()
			fired := func(float64, any) {
				check("dispatch")
				// Handlers sometimes schedule follow-ups — the nested
				// case in which a recycled-too-early event would bite.
				if rng.Float64() < 0.4 {
					burst()
				}
			}
			burst = func() {
				n := 1 + rng.Intn(4)
				for i := 0; i < n; i++ {
					sim.ScheduleCall(rng.Float64()*3, "prop", fired, nil)
					issued++
					check("schedule")
				}
			}

			for round := 0; round < 30; round++ {
				burst()
				sim.Run(sim.Now() + rng.Float64()*4)
				check("run")
				if rng.Float64() < 0.15 {
					// Reset recycles every still-pending event.
					sim.Reset()
					check("reset")
				}
			}
			sim.Run(math.Inf(1))
			check("drain")
			if sim.Pending() != 0 {
				t.Fatalf("%d events neither fired nor reset away", sim.Pending())
			}
			if issued == 0 {
				t.Fatal("property test scheduled no events")
			}
		})
	}
}

// TestScheduleCallDispatch checks the scheduling path end to end:
// events at equal times fire in scheduling order, the argument
// round-trips, and recycling clears the handler and argument so the
// freelist retains nothing.
func TestScheduleCallDispatch(t *testing.T) {
	sim := &Simulation{}
	var order []string
	type payload struct{ name string }
	p := &payload{name: "arg1"}
	sim.ScheduleCall(1, "plain", func(float64, any) { order = append(order, "plain") }, nil)
	sim.ScheduleCall(1, "call", func(now float64, arg any) {
		order = append(order, arg.(*payload).name)
		if now != 1 {
			t.Errorf("now = %g, want 1", now)
		}
	}, p)
	sim.Run(2)
	if len(order) != 2 || order[0] != "plain" || order[1] != "arg1" {
		t.Fatalf("dispatch order = %v, want [plain arg1]", order)
	}
	for _, e := range sim.free {
		if e.arg != nil || e.fn != nil {
			t.Fatalf("recycled event retains handler state: %+v", e)
		}
	}
}

// TestScheduleCallAtValidation checks ScheduleCallAt's past-time panic.
func TestScheduleCallAtValidation(t *testing.T) {
	sim := &Simulation{}
	sim.Run(5)
	defer func() {
		if recover() == nil {
			t.Fatal("ScheduleCallAt in the past did not panic")
		}
	}()
	sim.ScheduleCallAt(1, "past", func(float64, any) {}, nil)
}
