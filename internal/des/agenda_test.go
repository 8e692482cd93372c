package des

import (
	"math"
	"reflect"
	"testing"
)

func TestAgendaArmOrderAndClamp(t *testing.T) {
	var a Agenda
	var fired []string
	note := func(_ float64, arg any) { fired = append(fired, arg.(string)) }
	a.Add(5, "late", note, "late")
	a.Add(1, "early", note, "early")
	a.Add(1, "early2", note, "early2") // tie: Add order
	a.Add(-3, "past", note, "past")    // lands before now once armed

	sim := &Simulation{}
	sim.ScheduleCall(2, "marker", note, "marker")
	sim.Run(1.5) // now = 1.5; origin 0 puts "past" and both "early" behind now
	if a.Len() != 4 {
		t.Fatalf("Len = %d", a.Len())
	}
	a.Arm(sim, 0)
	sim.Run(100)

	// Clamped entries fire immediately at now=1.5 in time order (ties in
	// Add order), before the marker at t=2 and the un-clamped entry at 5.
	want := []string{"past", "early", "early2", "marker", "late"}
	if !reflect.DeepEqual(fired, want) {
		t.Errorf("fire order = %v, want %v", fired, want)
	}

	// Re-arming on a fresh simulation replays the script.
	fired = nil
	sim.Reset()
	a.Arm(sim, 10)
	sim.Run(100)
	want = []string{"past", "early", "early2", "late"}
	if !reflect.DeepEqual(fired, want) {
		t.Errorf("re-armed fire order = %v, want %v", fired, want)
	}

	// A reset agenda scripts a fresh timeline in the same storage.
	fired = nil
	sim.Reset()
	a.Reset()
	a.Add(2, "b", note, "b")
	a.Add(1, "a", note, "a")
	a.Arm(sim, 0)
	sim.Run(100)
	if want = []string{"a", "b"}; a.Len() != 2 || !reflect.DeepEqual(fired, want) {
		t.Errorf("after Reset: %d entries fired %v, want %v", a.Len(), fired, want)
	}
}

func TestAgendaAddValidation(t *testing.T) {
	var a Agenda
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Add at %v did not panic", bad)
				}
			}()
			a.Add(bad, "x", func(float64, any) {}, nil)
		}()
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("Add with nil action did not panic")
			}
		}()
		a.Add(1, "x", nil, nil)
	}()
}

// Len returns the number of entries on the agenda.
func (a *Agenda) Len() int { return len(a.entries) }
