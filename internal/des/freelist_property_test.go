package des

import (
	"fmt"
	"math"
	"testing"

	"satqos/internal/stats"
)

// TestFreelistNeverAliasesLiveEvent is the property test for the
// fired-event freelist: the storage handed out by Schedule must never be
// an *Event that is still pending in the queue. Such aliasing would be a
// use-after-free-style bug — recycling a live event silently rewires an
// unrelated scheduled occurrence — and, because only one goroutine is
// involved, the race detector cannot see it.
//
// The test drives randomized workloads (nested scheduling from handlers,
// bursts, Resets, ScheduleCall and Schedule mixed) while tracking the
// set of live (scheduled, not yet fired) event pointers, and fails the
// moment a freshly scheduled event aliases a live one.
func TestFreelistNeverAliasesLiveEvent(t *testing.T) {
	for seed := uint64(1); seed <= 20; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			rng := stats.NewRNG(seed, 0)
			sim := &Simulation{}

			live := make(map[*Event]bool)
			issued := 0
			// track wraps every Schedule call with the aliasing check.
			track := func(e *Event) {
				if live[e] {
					t.Fatalf("Schedule returned an event that is still live (pending): %p %q@%g",
						e, e.Label(), e.Time())
				}
				live[e] = true
				issued++
			}

			var burst func(now float64)
			fired := func(e **Event) Handler {
				return func(now float64) {
					delete(live, *e)
					// Handlers sometimes schedule follow-ups — the nested
					// case in which a recycled-too-early event would bite.
					if rng.Float64() < 0.4 {
						burst(now)
					}
				}
			}
			argFired := func(now float64, arg any) {
				delete(live, arg.(*Event))
			}
			burst = func(now float64) {
				n := 1 + rng.Intn(4)
				for i := 0; i < n; i++ {
					delay := rng.Float64() * 3
					if rng.Float64() < 0.5 {
						var e *Event
						e = sim.Schedule(delay, "prop", fired(&e))
						track(e)
					} else {
						// ScheduleCall variant: the event removes itself
						// from the live set via its own pointer argument.
						e := sim.ScheduleCall(delay, "prop-arg", argFired, nil)
						e.arg = e
						track(e)
					}
				}
			}

			for round := 0; round < 30; round++ {
				burst(sim.Now())
				sim.Run(sim.Now() + rng.Float64()*4)
				if rng.Float64() < 0.15 {
					// Reset recycles every still-pending ScheduleCall
					// event; all live pointers become legitimately
					// reusable.
					sim.Reset()
					clear(live)
				}
			}
			sim.Run(math.Inf(1))
			if len(live) != 0 {
				t.Fatalf("%d events neither fired nor reset away", len(live))
			}
			if issued == 0 {
				t.Fatal("property test scheduled no events")
			}
		})
	}
}

// TestScheduleCallDispatch checks the arg-based scheduling path end to
// end: ordering with Schedule events at equal times follows scheduling
// order, the argument round-trips, and recycling clears the argument so
// the freelist retains nothing.
func TestScheduleCallDispatch(t *testing.T) {
	sim := &Simulation{}
	var order []string
	type payload struct{ name string }
	p := &payload{name: "arg1"}
	sim.Schedule(1, "plain", func(now float64) { order = append(order, "plain") })
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
		if e.arg != nil || e.argFn != nil || e.handler != nil {
			t.Fatalf("recycled event retains handler state: %+v", e)
		}
	}
}

// TestScheduleCallAtValidation mirrors ScheduleAt's past-time panic.
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
