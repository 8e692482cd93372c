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
// seeded random interleavings of ScheduleCall, Cancel of an arbitrary
// pending event, Step, and Reset — with event reuse on and off — are
// mirrored into a reference model that keeps the pending set as a plain
// slice sorted by (time, seq). After every operation the kernel must
// agree with the model on the fired event, the clock, the pending
// count, and every Stats counter, and each queued event's index must
// equal its heap slot.
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
	if reuse {
		sim.EnableEventReuse()
	}

	var (
		pending []oracleEvent // model pending set
		handles = map[int]*Event{}
		want    Stats // model counters since the last Reset
		free    int   // model freelist length
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
	dropPending := func(k int) {
		delete(handles, pending[k].id)
		pending = append(pending[:k], pending[k+1:]...)
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
			e := sim.ScheduleCall(delay, "prop", onFire, &id)
			handles[id] = e
			want.Scheduled++
			if reuse && free > 0 {
				free--
				want.FreelistHits++
			} else {
				want.FreelistMisses++
			}
			pending = append(pending, oracleEvent{time: sim.Now() + delay, seq: want.Scheduled, id: id})
			want.MaxHeapDepth = max(want.MaxHeapDepth, len(pending))
		case r < 0.65:
			what = "cancel"
			if len(pending) == 0 {
				break
			}
			k := rng.Intn(len(pending))
			sim.Cancel(handles[pending[k].id])
			dropPending(k)
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
			dropPending(0)
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
			clear(handles)
			want = Stats{}
		}

		if got := sim.Stats(); got != want {
			t.Fatalf("op %d (%s): Stats = %+v, oracle %+v", op, what, got, want)
		}
		if got := sim.Pending(); got != len(pending) {
			t.Fatalf("op %d (%s): Pending = %d, oracle %d", op, what, got, len(pending))
		}
		if reuse && len(sim.free) != free {
			t.Fatalf("op %d (%s): freelist holds %d events, oracle %d", op, what, len(sim.free), free)
		}
		for i, q := range sim.queue {
			if q.ev.index != i {
				t.Fatalf("op %d (%s): event in slot %d has index %d", op, what, i, q.ev.index)
			}
			if q.time != q.ev.time || q.ev.canceled {
				t.Fatalf("op %d (%s): slot %d key %g disagrees with event (time %g, canceled %v)",
					op, what, i, q.time, q.ev.time, q.ev.canceled)
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
