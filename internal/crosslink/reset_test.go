package crosslink

import (
	"strings"
	"testing"

	"satqos/internal/des"
	"satqos/internal/stats"
)

func TestNetworkReset(t *testing.T) {
	sim := &des.Simulation{}
	n, err := NewNetwork(sim, Config{MaxDelayMin: 0.5}, stats.NewRNG(1, 0))
	if err != nil {
		t.Fatal(err)
	}
	got := 0
	if err := n.Register(1, func(float64, Message) { got++ }); err != nil {
		t.Fatal(err)
	}
	n.SetFailSilent(2, true)
	if err := n.Send(1, 1, "ping", nil); err != nil {
		t.Fatal(err)
	}
	sim.Run(1)
	if got != 1 || n.Stats().Sent != 1 {
		t.Fatalf("pre-reset: delivered=%d sent=%d", got, n.Stats().Sent)
	}

	sim.Reset()
	n.Reset()
	if n.Stats() != (Stats{}) {
		t.Fatalf("stats not cleared: %+v", n.Stats())
	}
	if n.FailSilent(2) {
		t.Fatal("fail-silent mark survived reset")
	}
	// Handlers are gone: sending to the old node is a wiring error again.
	if err := n.Send(1, 1, "ping", nil); err == nil {
		t.Fatal("send to unregistered node accepted after reset")
	}
	// Re-registration restores service.
	if err := n.Register(1, func(float64, Message) { got += 10 }); err != nil {
		t.Fatal(err)
	}
	if err := n.Send(1, 1, "ping", nil); err != nil {
		t.Fatal(err)
	}
	sim.Run(1)
	if got != 11 || n.Stats().Delivered != 1 {
		t.Fatalf("post-reset: got=%d delivered=%d", got, n.Stats().Delivered)
	}
}

// TestResetClearsTouchedWindow drives Reset's slot window: nodes are
// registered and marked fail-silent at high IDs, at low IDs down to the
// ground station, and — in a later epoch — below the previous window's
// low edge and beyond the slices' old length. After every Reset, each
// node ever touched must be back to unregistered and not fail-silent,
// so sending to it is the unregistered-node wiring error again.
func TestResetClearsTouchedWindow(t *testing.T) {
	sim := &des.Simulation{}
	n, err := NewNetwork(sim, Config{MaxDelayMin: 0.5}, stats.NewRNG(1, 0))
	if err != nil {
		t.Fatal(err)
	}
	h := func(float64, Message) {}
	epochs := []struct {
		register, silent []NodeID
	}{
		{register: []NodeID{68, 69, 70}, silent: []NodeID{71}},
		// High first, then below the window's low edge down to slot 0,
		// so the window must widen downward within the epoch.
		{register: []NodeID{70, 3, GroundStation}, silent: []NodeID{69, 2}},
		// A middle slot plus growth past the old slice length.
		{register: []NodeID{40}, silent: []NodeID{75}},
		// Fail-silent only, at both ends.
		{silent: []NodeID{GroundStation, 75}},
	}
	var touched []NodeID
	for e, ep := range epochs {
		for _, id := range ep.register {
			if err := n.Register(id, h); err != nil {
				t.Fatal(err)
			}
		}
		for _, id := range ep.silent {
			n.SetFailSilent(id, true)
		}
		for _, id := range ep.silent {
			if !n.FailSilent(id) {
				t.Fatalf("epoch %d: node %d not fail-silent before Reset", e, id)
			}
		}
		touched = append(touched, ep.register...)
		touched = append(touched, ep.silent...)

		sim.Reset()
		n.Reset()
		for _, id := range touched {
			if n.handlerOf(id) != nil {
				t.Fatalf("epoch %d: node %d kept its handler across Reset", e, id)
			}
			if n.FailSilent(id) {
				t.Fatalf("epoch %d: node %d still fail-silent after Reset", e, id)
			}
			err := n.Send(0, id, "ping", nil)
			if err == nil || !strings.Contains(err.Error(), "unregistered node") {
				t.Fatalf("epoch %d: Send to node %d after Reset: err = %v, want unregistered node", e, id, err)
			}
		}
		if st := n.Stats(); st != (Stats{}) {
			t.Fatalf("epoch %d: rejected sends touched the books: %+v", e, st)
		}
	}
}
