package des

import (
	"fmt"
	"sort"
	"testing"

	"satqos/internal/stats"
)

// oracleEvent is the reference model's view of one pending event.
type oracleEvent struct {
	time float64
	seq  uint64
	id   int
}

// TestHeapMatchesSortedOracle is the property test for the event heap:
// seeded random interleavings of scheduling, Step, and Reset — with the
// fired events recycled through the freelist (reuse=true), or with the
// freelist cleared after every operation so that every event is freshly
// allocated (reuse=false) — are mirrored into a reference model that
// keeps the pending set as a plain slice sorted by (time, seq). After
// every operation the kernel must agree with the model on the fired
// event, the clock, the pending count, the freelist length and every
// Stats counter, and each heap slot must hold its event's key in heap
// order.
func TestHeapMatchesSortedOracle(t *testing.T) {
	for _, reuse := range []bool{false, true} {
		for seed := uint64(1); seed <= 12; seed++ {
			t.Run(fmt.Sprintf("reuse=%v/seed=%d", reuse, seed), func(t *testing.T) {
				checkHeapAgainstOracle(t, reuse, seed)
			})
		}
	}
}

func checkHeapAgainstOracle(t *testing.T, reuse bool, seed uint64) {
	rng := stats.NewRNG(seed, 0)
	sim := &Simulation{}

	var (
		pending []oracleEvent // model pending set
		want    Stats         // model counters since the last Reset
		free    int           // model freelist length
		nextID  int
		fired   = -1 // id recorded by the last dispatched event
		total   uint64
	)
	onFire := func(_ float64, arg any) { fired = *arg.(*int) }

	sortPending := func() {
		sort.Slice(pending, func(i, j int) bool {
			if pending[i].time != pending[j].time {
				return pending[i].time < pending[j].time
			}
			return pending[i].seq < pending[j].seq
		})
	}

	for op := 0; op < 3000; op++ {
		var what string
		switch r := rng.Float64(); {
		case r < 0.5:
			what = "schedule"
			// Coarse integer delays make equal times common, so the
			// seq tie-break is exercised constantly.
			delay := float64(rng.Intn(8))
			id := nextID
			nextID++
			sim.ScheduleCall(delay, "prop", onFire, &id)
			want.Scheduled++
			if free > 0 {
				free--
				want.FreelistHits++
			} else {
				want.FreelistMisses++
			}
			pending = append(pending, oracleEvent{time: sim.Now() + delay, seq: want.Scheduled, id: id})
			want.MaxHeapDepth = max(want.MaxHeapDepth, len(pending))
		case r < 0.97:
			what = "step"
			fired = -1
			ok := sim.Step()
			if ok != (len(pending) > 0) {
				t.Fatalf("op %d: Step = %v with %d pending in the model", op, ok, len(pending))
			}
			if !ok {
				break
			}
			sortPending()
			head := pending[0]
			if fired != head.id || sim.Now() != head.time {
				t.Fatalf("op %d: fired id %d at %g, oracle head is id %d at %g",
					op, fired, sim.Now(), head.id, head.time)
			}
			pending = pending[1:]
			want.Fired++
			total++
			if reuse {
				free++
			}
		default:
			what = "reset"
			sim.Reset()
			if reuse {
				free += len(pending)
			}
			pending = pending[:0]
			want = Stats{}
		}
		if !reuse {
			sim.ClearEventFreelist()
		}

		if got := sim.Stats(); got != want {
			t.Fatalf("op %d (%s): Stats = %+v, oracle %+v", op, what, got, want)
		}
		if got := sim.Pending(); got != len(pending) {
			t.Fatalf("op %d (%s): Pending = %d, oracle %d", op, what, got, len(pending))
		}
		if len(sim.free) != free {
			t.Fatalf("op %d (%s): freelist holds %d events, oracle %d", op, what, len(sim.free), free)
		}
		for i, q := range sim.queue {
			if q.time != q.ev.time {
				t.Fatalf("op %d (%s): slot %d key %g disagrees with event time %g",
					op, what, i, q.time, q.ev.time)
			}
			if i > 0 && q.before(&sim.queue[(i-1)/2]) {
				t.Fatalf("op %d (%s): slot %d orders before its parent", op, what, i)
			}
		}
	}
	if total == 0 {
		t.Fatal("property run fired no events")
	}
}

// fireRecord is one dispatched event as both runs of the lane property
// test see it.
type fireRecord struct {
	label string
	time  float64
}

// laneTwin drives one simulation of the lane property test. The lane
// run schedules fixed-delay events on its lanes; the reference run
// schedules the same events through ScheduleCall with the lane's delay.
type laneTwin struct {
	sim     *Simulation
	lanes   []*Lane // nil in the reference run
	delays  []float64
	log     []fireRecord
	tickers int // tickers started since the last Reset
}

func (w *laneTwin) onFire(now float64, arg any) {
	r := arg.(*laneRec)
	w.log = append(w.log, fireRecord{r.label, now})
}

// laneRec identifies one scheduled event across both runs.
type laneRec struct {
	label string
}

// TestLanesMatchAllHeapReference is the property test for fixed-delay
// lanes: seeded random interleavings of heap scheduling, Ticker,
// ScheduleLane on one to three lanes (with delays drawn so lane and heap
// events often tie in time), lane retiming while empty, Step, Run and
// Reset — with fired heap events recycled through the freelist
// (reuse=true), or with both freelists cleared after every operation
// (reuse=false) — run against a reference simulation that schedules
// every lane event through ScheduleCall with the lane's delay. After
// every operation the two must have fired the same (label, time)
// sequence, sit at the same clock, and agree on Pending and on the
// Scheduled, Fired and MaxHeapDepth counters; no Run may fire an event
// past its horizon.
func TestLanesMatchAllHeapReference(t *testing.T) {
	for _, reuse := range []bool{false, true} {
		for seed := uint64(1); seed <= 12; seed++ {
			t.Run(fmt.Sprintf("reuse=%v/seed=%d", reuse, seed), func(t *testing.T) {
				checkLanesAgainstReference(t, reuse, seed)
			})
		}
	}
}

func checkLanesAgainstReference(t *testing.T, reuse bool, seed uint64) {
	rng := stats.NewRNG(seed, 1)
	laneDelays := []float64{0, 0.5, 1, 2, 3}
	nLanes := 1 + rng.Intn(3)
	var lr, ref laneTwin
	for _, w := range []*laneTwin{&lr, &ref} {
		w.sim = &Simulation{}
	}
	for i := 0; i < nLanes; i++ {
		d := laneDelays[rng.Intn(len(laneDelays))]
		lr.lanes = append(lr.lanes, lr.sim.NewLane(d))
		lr.delays = append(lr.delays, d)
		ref.delays = append(ref.delays, d)
	}
	nextID := 0
	newRec := func(kind string) *laneRec {
		nextID++
		return &laneRec{label: fmt.Sprintf("%s#%d", kind, nextID)}
	}
	var fired, laneFired uint64

	for op := 0; op < 3000; op++ {
		var what string
		mark := len(lr.log)
		switch r := rng.Float64(); {
		case r < 0.25:
			what = "schedule"
			delay := float64(rng.Intn(8)) / 2
			rec := newRec("heap")
			for _, w := range []*laneTwin{&lr, &ref} {
				w.sim.ScheduleCall(delay, rec.label, w.onFire, rec)
			}
		case r < 0.55:
			what = "lane"
			i := rng.Intn(nLanes)
			rec := newRec(fmt.Sprintf("lane%d", i))
			lr.sim.ScheduleLane(lr.lanes[i], rec.label, lr.onFire, rec)
			ref.sim.ScheduleCall(ref.delays[i], rec.label, ref.onFire, rec)
		case r < 0.60:
			what = "retime"
			i := rng.Intn(nLanes)
			if lr.lanes[i].n > 0 {
				break
			}
			d := laneDelays[rng.Intn(len(laneDelays))]
			lr.lanes[i].SetDelay(d)
			lr.delays[i], ref.delays[i] = d, d
		case r < 0.69:
			what = "ticker"
			if lr.tickers >= 3 {
				break
			}
			period := float64(1 + rng.Intn(4))
			label := fmt.Sprintf("tick#%d", op)
			for _, w := range []*laneTwin{&lr, &ref} {
				w.tickers++
				w.sim.Ticker(period, label, func(now float64, _ any) {
					w.log = append(w.log, fireRecord{label, now})
				}, nil)
			}
		case r < 0.90:
			what = "step"
			a, b := lr.sim.Step(), ref.sim.Step()
			if a != b {
				t.Fatalf("op %d: Step = %v, reference %v", op, a, b)
			}
		case r < 0.99:
			what = "run"
			horizon := lr.sim.Now() + float64(rng.Intn(7))/2
			a, b := lr.sim.Run(horizon), ref.sim.Run(horizon)
			if a != b {
				t.Fatalf("op %d: Run(%g) fired %d, reference %d", op, horizon, a, b)
			}
			for _, f := range lr.log[mark:] {
				if f.time > horizon {
					t.Fatalf("op %d: Run(%g) fired %s at %g", op, horizon, f.label, f.time)
				}
			}
		default:
			what = "reset"
			for _, w := range []*laneTwin{&lr, &ref} {
				// The reset drops every pending tick.
				w.sim.Reset()
				w.tickers = 0
			}
		}
		if !reuse {
			lr.sim.ClearEventFreelist()
			ref.sim.ClearEventFreelist()
		}

		if len(lr.log) != len(ref.log) {
			t.Fatalf("op %d (%s): %d events fired, reference %d", op, what, len(lr.log), len(ref.log))
		}
		for i := mark; i < len(lr.log); i++ {
			if lr.log[i] != ref.log[i] {
				t.Fatalf("op %d (%s): fired %+v, reference %+v", op, what, lr.log[i], ref.log[i])
			}
			if lr.log[i].label[:4] == "lane" {
				laneFired++
			}
			fired++
		}
		if a, b := lr.sim.Now(), ref.sim.Now(); a != b {
			t.Fatalf("op %d (%s): clock %g, reference %g", op, what, a, b)
		}
		if a, b := lr.sim.Pending(), ref.sim.Pending(); a != b {
			t.Fatalf("op %d (%s): Pending = %d, reference %d", op, what, a, b)
		}
		a, b := lr.sim.Stats(), ref.sim.Stats()
		if a.Scheduled != b.Scheduled || a.Fired != b.Fired || a.MaxHeapDepth != b.MaxHeapDepth {
			t.Fatalf("op %d (%s): Stats = %+v, reference %+v", op, what, a, b)
		}
	}
	if laneFired == 0 || laneFired == fired {
		t.Fatalf("property run fired %d lane events of %d: interleaving not exercised", laneFired, fired)
	}
}
