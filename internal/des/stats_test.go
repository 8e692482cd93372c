package des

import "testing"

func TestStatsCountersAndReset(t *testing.T) {
	sim := &Simulation{}
	nop := func(float64, any) {}
	for i := 0; i < 3; i++ {
		sim.ScheduleCall(float64(i+1), "e", nop, nil)
	}
	st := sim.Stats()
	if st.Scheduled != 3 || st.Fired != 0 {
		t.Fatalf("Scheduled/Fired = %d/%d, want 3/0", st.Scheduled, st.Fired)
	}
	if st.FreelistHits != 0 || st.FreelistMisses != 3 {
		t.Fatalf("freelist hits/misses = %d/%d, want 0/3", st.FreelistHits, st.FreelistMisses)
	}
	if st.MaxHeapDepth != 3 {
		t.Fatalf("MaxHeapDepth = %d, want 3", st.MaxHeapDepth)
	}
	sim.Run(10)
	if got := sim.Stats().Fired; got != 3 {
		t.Fatalf("Fired = %d, want 3", got)
	}

	// The three fired events sit in the freelist; the next schedules
	// draw from it and count as hits.
	sim.Reset()
	if st := sim.Stats(); st != (Stats{}) {
		t.Fatalf("Stats after Reset = %+v, want zero", st)
	}
	sim.ScheduleCall(1, "e", nop, nil)
	sim.ScheduleCall(2, "e", nop, nil)
	st = sim.Stats()
	if st.FreelistHits != 2 || st.FreelistMisses != 0 {
		t.Fatalf("freelist hits/misses after reuse = %d/%d, want 2/0", st.FreelistHits, st.FreelistMisses)
	}
	if st.MaxHeapDepth != 2 {
		t.Fatalf("MaxHeapDepth after Reset = %d, want 2", st.MaxHeapDepth)
	}
}

func TestStatsMaxDepthIsWatermark(t *testing.T) {
	sim := &Simulation{}
	// Interleave schedule and fire so the live depth oscillates.
	sim.Schedule(1, "a", func(float64) {
		sim.Schedule(1, "b", func(float64) {})
	})
	sim.Run(10)
	if got := sim.Stats().MaxHeapDepth; got != 1 {
		t.Fatalf("MaxHeapDepth = %d, want 1 (never more than one pending)", got)
	}
}
