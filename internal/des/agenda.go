package des

import (
	"cmp"
	"fmt"
	"math"
	"slices"
)

// AgendaEntry is one scripted occurrence on an Agenda: an action to run
// at an absolute scenario time (minutes from the agenda's origin).
type AgendaEntry struct {
	// At is the scenario time of the action, relative to the origin
	// passed to Arm.
	At float64
	// Label tags the scheduled event for diagnostics.
	Label string
	// Fn is the action; it receives the simulation time it fires at and
	// Arg, as with ScheduleCall.
	Fn  ArgHandler
	Arg any
}

// Agenda is a scenario-event source: an ordered script of timed actions
// that can be armed onto a Simulation at a chosen origin. It decouples
// scenario authoring (package fault builds agendas from JSON timelines)
// from the kernel: the agenda holds plain entries until Arm translates
// them into scheduled events.
//
// An Agenda can be armed repeatedly — once per episode — and entries
// whose absolute time has already passed when Arm is called are clamped
// to fire immediately (in Add order), preserving FIFO determinism. A
// caller that scripts a fresh timeline per episode Resets the agenda and
// re-adds; with action functions that build no closures, that cycle
// allocates nothing once the entry storage has grown.
type Agenda struct {
	entries []AgendaEntry
	sorted  bool
}

// Add appends an entry. At must be finite; NaN is a scripting bug and
// panics, matching the kernel's ScheduleCall contract.
func (a *Agenda) Add(at float64, label string, fn ArgHandler, arg any) {
	if math.IsNaN(at) || math.IsInf(at, 0) {
		panic(fmt.Sprintf("des: agenda entry %q at non-finite time %g", label, at))
	}
	if fn == nil {
		panic(fmt.Sprintf("des: agenda entry %q has nil action", label))
	}
	a.entries = append(a.entries, AgendaEntry{At: at, Label: label, Fn: fn, Arg: arg})
	a.sorted = false
}

// Reset removes every entry, keeping the storage.
func (a *Agenda) Reset() {
	clear(a.entries)
	a.entries = a.entries[:0]
}

// Arm schedules every entry onto the simulation at absolute time
// origin + entry.At. Entries landing before the simulation's current
// time fire immediately instead (scenario times are clamped, never
// dropped). Entries are armed in time order (ties in Add order), so two
// agendas armed back-to-back interleave deterministically.
func (a *Agenda) Arm(sim *Simulation, origin float64) {
	if !a.sorted {
		slices.SortStableFunc(a.entries, func(x, y AgendaEntry) int { return cmp.Compare(x.At, y.At) })
		a.sorted = true
	}
	now := sim.Now()
	for _, e := range a.entries {
		at := origin + e.At
		if at < now {
			at = now
		}
		sim.ScheduleCallAt(at, e.Label, e.Fn, e.Arg)
	}
}
