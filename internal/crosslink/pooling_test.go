package crosslink

import (
	"testing"

	"satqos/internal/des"
	"satqos/internal/stats"
)

// runScripted drives one deterministic messaging scenario — losses,
// fail-silence mid-flight, messages left in flight across a Reset epoch
// — and returns the Stats observed at quiescence in each epoch.
func runScripted(t *testing.T) (epoch1, epoch2 Stats) {
	t.Helper()
	sim := &des.Simulation{}
	n, err := NewNetwork(sim, Config{MaxDelayMin: 1, LossProb: 0.3}, stats.NewRNG(7, 0))
	if err != nil {
		t.Fatal(err)
	}

	register := func(ids ...NodeID) {
		for _, id := range ids {
			if err := n.Register(id, func(float64, Message) {}); err != nil {
				t.Fatal(err)
			}
		}
	}
	register(GroundStation, 0, 1, 2, 3)

	// Epoch 1: a burst of traffic, a node going fail-silent while
	// messages to it are in flight, and sends from the silenced node.
	for i := 0; i < 40; i++ {
		from, to := NodeID(i%4), NodeID((i+1)%4)
		if err := n.Send(from, to, "data", i); err != nil {
			t.Fatal(err)
		}
	}
	sim.Run(0.2) // some deliveries, some still in flight
	n.SetFailSilent(2, true)
	for i := 0; i < 10; i++ {
		if err := n.Send(2, GroundStation, "alert", nil); err != nil {
			t.Fatal(err)
		}
		if err := n.Send(0, 2, "data", nil); err != nil {
			t.Fatal(err)
		}
	}
	sim.Run(5) // quiescence: everything delivered or dropped
	epoch1 = n.Stats()
	if err := epoch1.CheckInvariant(); err != nil {
		t.Fatalf("epoch 1: %v", err)
	}
	if epoch1.InFlight != 0 {
		t.Fatalf("epoch 1 not quiescent: %+v", epoch1)
	}

	// Leave messages in flight across the Reset so the epoch fence and
	// the recycled envelopes of a dead generation are exercised: none
	// of them may touch epoch 2's books.
	for i := 0; i < 8; i++ {
		if err := n.Send(0, 1, "straggler", nil); err != nil {
			t.Fatal(err)
		}
	}
	n.Reset()
	register(GroundStation, 0, 1)
	for i := 0; i < 20; i++ {
		if err := n.Send(0, 1, "data", i); err != nil {
			t.Fatal(err)
		}
	}
	sim.Run(10)
	epoch2 = n.Stats()
	if err := epoch2.CheckInvariant(); err != nil {
		t.Fatalf("epoch 2: %v", err)
	}
	if epoch2.InFlight != 0 {
		t.Fatalf("epoch 2 not quiescent: %+v", epoch2)
	}
	return epoch1, epoch2
}

// TestPoolingConservation is the quiescence invariant of the message
// freelist: the scripted scenario produces, in every Reset epoch, the
// counters an unpooled network (one fresh envelope per message)
// produced for it, and satisfies the conservation identity at
// quiescence. This is the guard that envelope recycling can never
// double-count, lose, or leak a message across an epoch fence.
func TestPoolingConservation(t *testing.T) {
	// Recorded from the unpooled network before envelopes were always
	// pooled.
	unpooled1 := Stats{Sent: 50, Delivered: 25, DroppedLoss: 10, DroppedFailSilent: 15, SuppressedFailSilent: 10}
	unpooled2 := Stats{Sent: 20, Delivered: 14, DroppedLoss: 6}
	p1, p2 := runScripted(t)
	if p1 != unpooled1 {
		t.Errorf("epoch 1 counters diverge:\nunpooled: %+v\npooled:   %+v", unpooled1, p1)
	}
	if p2 != unpooled2 {
		t.Errorf("epoch 2 counters diverge:\nunpooled: %+v\npooled:   %+v", unpooled2, p2)
	}
}

// TestPoolingRecyclesEnvelopes checks the freelist actually recycles:
// after a quiescent run, further sends draw from the pool rather
// than allocating (the steady-state zero-allocation property the oaq
// episode benchmark gates end to end).
func TestPoolingRecyclesEnvelopes(t *testing.T) {
	sim := &des.Simulation{}
	n, err := NewNetwork(sim, Config{MaxDelayMin: 1}, stats.NewRNG(1, 0))
	if err != nil {
		t.Fatal(err)
	}
	if err := n.Register(0, func(float64, Message) {}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 32; i++ {
		if err := n.Send(0, 0, "warm", nil); err != nil {
			t.Fatal(err)
		}
	}
	sim.Run(2)
	if len(n.free) != 32 {
		t.Fatalf("freelist holds %d envelopes after quiescence, want 32", len(n.free))
	}
	for _, d := range n.free {
		if d.msg.Payload != nil {
			t.Fatal("recycled envelope retains a payload reference")
		}
	}
	allocs := testing.AllocsPerRun(100, func() {
		if err := n.Send(0, 0, "steady", nil); err != nil {
			t.Fatal(err)
		}
		sim.Run(sim.Now() + 2)
	})
	if allocs != 0 {
		t.Fatalf("steady-state pooled send allocates %v times", allocs)
	}
}
