package crosslink

import (
	"math"
	"testing"

	"satqos/internal/des"
	"satqos/internal/stats"
)

func newNet(t *testing.T, cfg Config) (*des.Simulation, *Network) {
	t.Helper()
	sim := &des.Simulation{}
	net, err := NewNetwork(sim, cfg, stats.NewRNG(7, 0))
	if err != nil {
		t.Fatal(err)
	}
	return sim, net
}

func TestNewNetworkValidation(t *testing.T) {
	sim := &des.Simulation{}
	rng := stats.NewRNG(1, 0)
	if _, err := NewNetwork(nil, Config{MaxDelayMin: 1}, rng); err == nil {
		t.Error("nil simulation accepted")
	}
	if _, err := NewNetwork(sim, Config{MaxDelayMin: 1}, nil); err == nil {
		t.Error("nil RNG accepted")
	}
	if _, err := NewNetwork(sim, Config{MaxDelayMin: 0}, rng); err == nil {
		t.Error("zero delay accepted")
	}
	if _, err := NewNetwork(sim, Config{MaxDelayMin: math.NaN()}, rng); err == nil {
		t.Error("NaN delay accepted")
	}
	if _, err := NewNetwork(sim, Config{MaxDelayMin: 1, LossProb: 1}, rng); err != nil {
		t.Errorf("loss probability 1 (total outage) rejected: %v", err)
	}
	if _, err := NewNetwork(sim, Config{MaxDelayMin: 1, LossProb: 1.5}, rng); err == nil {
		t.Error("loss probability above 1 accepted")
	}
	if _, err := NewNetwork(sim, Config{MaxDelayMin: 1, LossProb: math.NaN()}, rng); err == nil {
		t.Error("NaN loss accepted")
	}
	if _, err := NewNetwork(sim, Config{MaxDelayMin: 1, LossProb: -0.1}, rng); err == nil {
		t.Error("negative loss accepted")
	}
}

func TestDeliveryWithinDelta(t *testing.T) {
	sim, net := newNet(t, Config{MaxDelayMin: 0.05})
	var deliveries []float64
	var got Message
	if err := net.Register(2, func(now float64, m Message) {
		deliveries = append(deliveries, now)
		got = m
	}); err != nil {
		t.Fatal(err)
	}
	if err := net.Register(1, func(float64, Message) {}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 200; i++ {
		if err := net.Send(1, 2, "ping", i); err != nil {
			t.Fatal(err)
		}
	}
	sim.Run(10)
	if len(deliveries) != 200 {
		t.Fatalf("delivered %d, want 200", len(deliveries))
	}
	for _, d := range deliveries {
		if d <= 0 || d > 0.05 {
			t.Fatalf("delivery at %v outside (0, δ]", d)
		}
	}
	if got.From != 1 || got.To != 2 || got.Kind != "ping" {
		t.Errorf("message fields: %+v", got)
	}
	if got.SentAt != 0 {
		t.Errorf("SentAt = %v", got.SentAt)
	}
	st := net.Stats()
	if st.Sent != 200 || st.Delivered != 200 || st.DroppedLoss != 0 {
		t.Errorf("stats: %+v", st)
	}
	if net.MaxDelay() != 0.05 {
		t.Errorf("MaxDelay = %v", net.MaxDelay())
	}
}

func TestSendToUnregistered(t *testing.T) {
	_, net := newNet(t, Config{MaxDelayMin: 1})
	if err := net.Send(1, 99, "x", nil); err == nil {
		t.Error("send to unregistered node accepted")
	}
}

func TestRegisterNilHandler(t *testing.T) {
	_, net := newNet(t, Config{MaxDelayMin: 1})
	if err := net.Register(1, nil); err == nil {
		t.Error("nil handler accepted")
	}
}

func TestFailSilentReceiverDropsQuietly(t *testing.T) {
	sim, net := newNet(t, Config{MaxDelayMin: 0.1})
	delivered := 0
	if err := net.Register(2, func(float64, Message) { delivered++ }); err != nil {
		t.Fatal(err)
	}
	net.SetFailSilent(2, true)
	if !net.FailSilent(2) {
		t.Error("FailSilent not reported")
	}
	if err := net.Send(1, 2, "x", nil); err != nil {
		t.Fatalf("send to fail-silent node should not error: %v", err)
	}
	sim.Run(1)
	if delivered != 0 {
		t.Error("fail-silent node processed a message")
	}
	if net.Stats().DroppedFailSilent != 1 {
		t.Errorf("stats: %+v", net.Stats())
	}
	// Recovery re-enables delivery.
	net.SetFailSilent(2, false)
	if err := net.Send(1, 2, "x", nil); err != nil {
		t.Fatal(err)
	}
	sim.Run(2)
	if delivered != 1 {
		t.Error("recovered node did not receive")
	}
}

func TestFailSilentSenderEmitsNothing(t *testing.T) {
	sim, net := newNet(t, Config{MaxDelayMin: 0.1})
	delivered := 0
	if err := net.Register(2, func(float64, Message) { delivered++ }); err != nil {
		t.Fatal(err)
	}
	net.SetFailSilent(1, true)
	if err := net.Send(1, 2, "x", nil); err != nil {
		t.Fatal(err)
	}
	sim.Run(1)
	if delivered != 0 {
		t.Error("fail-silent sender's message was delivered")
	}
	// The message is documented as "never emitted": it must not count as
	// Sent (it would permanently violate the accounting invariant), only
	// as suppressed.
	st := net.Stats()
	if st.Sent != 0 || st.SuppressedFailSilent != 1 {
		t.Errorf("suppressed send miscounted: %+v", st)
	}
	if err := st.CheckInvariant(); err != nil {
		t.Error(err)
	}
}

func TestFailSilenceBeginningInFlight(t *testing.T) {
	// A node that goes silent after a message was sent but before it
	// arrives must not process it (the failure is instantaneous).
	sim, net := newNet(t, Config{MaxDelayMin: 0.5})
	delivered := 0
	if err := net.Register(2, func(float64, Message) { delivered++ }); err != nil {
		t.Fatal(err)
	}
	if err := net.Send(1, 2, "x", nil); err != nil {
		t.Fatal(err)
	}
	// Regression: the message is in flight; the books must balance even
	// before delivery resolves.
	st := net.Stats()
	if st.Sent != 1 || st.InFlight != 1 {
		t.Errorf("in-flight accounting: %+v", st)
	}
	if err := st.CheckInvariant(); err != nil {
		t.Error(err)
	}
	net.SetFailSilent(2, true)
	sim.Run(1)
	if delivered != 0 {
		t.Error("in-flight message delivered to a node that failed before arrival")
	}
	// Regression: late-onset fail-silence (after the send) must land the
	// drop in DroppedFailSilent without skewing the invariant.
	st = net.Stats()
	if st.Sent != 1 || st.Delivered != 0 || st.DroppedFailSilent != 1 || st.InFlight != 0 {
		t.Errorf("late fail-silence accounting: %+v", st)
	}
	if err := st.CheckInvariant(); err != nil {
		t.Error(err)
	}
}

func TestStatsInvariantUnderMixedTraffic(t *testing.T) {
	// Drive every outcome class — delivery, link loss, receiver
	// fail-silence at send time, fail-silence beginning in flight, and
	// sender suppression — and confirm the books always balance.
	sim := &des.Simulation{}
	net, err := NewNetwork(sim, Config{MaxDelayMin: 0.02, LossProb: 0.3}, stats.NewRNG(5, 0))
	if err != nil {
		t.Fatal(err)
	}
	for id := NodeID(1); id <= 4; id++ {
		if err := net.Register(id, func(float64, Message) {}); err != nil {
			t.Fatal(err)
		}
	}
	net.SetFailSilent(3, true)
	for i := 0; i < 500; i++ {
		if err := net.Send(1, 2, "a", nil); err != nil {
			t.Fatal(err)
		}
		if err := net.Send(1, 3, "b", nil); err != nil {
			t.Fatal(err)
		}
		if err := net.Send(3, 1, "c", nil); err != nil {
			t.Fatal(err)
		}
		if err := net.Send(2, 4, "d", nil); err != nil {
			t.Fatal(err)
		}
		if err := net.Stats().CheckInvariant(); err != nil {
			t.Fatal(err)
		}
	}
	net.SetFailSilent(4, true) // some 2→4 messages are still in flight
	sim.Run(10)
	st := net.Stats()
	if err := st.CheckInvariant(); err != nil {
		t.Fatal(err)
	}
	if st.InFlight != 0 {
		t.Errorf("messages still in flight at quiescence: %+v", st)
	}
	if st.SuppressedFailSilent != 500 {
		t.Errorf("suppressed = %d, want 500 (all 3→1 sends)", st.SuppressedFailSilent)
	}
	if st.Sent != 1500 {
		t.Errorf("Sent = %d, want 1500 (emitted messages only)", st.Sent)
	}
	if st.DroppedLoss == 0 || st.Delivered == 0 || st.DroppedFailSilent < 500 {
		t.Errorf("expected all outcome classes populated: %+v", st)
	}
}

func TestSetLossProb(t *testing.T) {
	sim := &des.Simulation{}
	net, err := NewNetwork(sim, Config{MaxDelayMin: 0.01, LossProb: 0.1}, stats.NewRNG(3, 0))
	if err != nil {
		t.Fatal(err)
	}
	if err := net.Register(2, func(float64, Message) {}); err != nil {
		t.Fatal(err)
	}
	// A total outage (loss 1) drops everything.
	net.SetLossProb(1)
	if net.LossProb() != 1 {
		t.Fatalf("LossProb = %v after override", net.LossProb())
	}
	for i := 0; i < 100; i++ {
		if err := net.Send(1, 2, "x", nil); err != nil {
			t.Fatal(err)
		}
	}
	sim.Run(1)
	st := net.Stats()
	if st.DroppedLoss != 100 || st.Delivered != 0 {
		t.Errorf("outage did not drop everything: %+v", st)
	}
	if err := st.CheckInvariant(); err != nil {
		t.Error(err)
	}
	// Reset restores the configured base, not the override.
	sim.Reset()
	net.Reset()
	if net.LossProb() != 0.1 {
		t.Errorf("LossProb = %v after Reset, want base 0.1", net.LossProb())
	}
	for _, bad := range []float64{-0.1, 1.1, math.NaN()} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("SetLossProb(%v) did not panic", bad)
				}
			}()
			net.SetLossProb(bad)
		}()
	}
}

func TestAlertToUnregisteredGround(t *testing.T) {
	// An alert sent while the ground segment has no registered handler:
	// with the ground marked fail-silent the send is swallowed (the shape
	// a faulted ground pass takes); without any mark it is a wiring error.
	sim, net := newNet(t, Config{MaxDelayMin: 0.1})
	if err := net.Send(3, GroundStation, "alert", nil); err == nil {
		t.Error("alert to unregistered ground accepted")
	}
	net.SetFailSilent(GroundStation, true)
	if err := net.Send(3, GroundStation, "alert", nil); err != nil {
		t.Fatalf("alert to fail-silent ground should be swallowed: %v", err)
	}
	st := net.Stats()
	if st.Sent != 1 || st.DroppedFailSilent != 1 || st.InFlight != 0 {
		t.Errorf("alert to fail-silent ground: %+v", st)
	}
	sim.Run(1)
	if err := net.Stats().CheckInvariant(); err != nil {
		t.Error(err)
	}
}

func TestResetFencesInFlightDeliveries(t *testing.T) {
	// Regression for cross-epoch accounting skew: a message emitted
	// before Reset must neither deliver nor touch the fresh epoch's
	// counters when the network is reset but the simulation is not.
	sim, net := newNet(t, Config{MaxDelayMin: 0.5})
	delivered := 0
	if err := net.Register(2, func(float64, Message) { delivered++ }); err != nil {
		t.Fatal(err)
	}
	if err := net.Send(1, 2, "x", nil); err != nil {
		t.Fatal(err)
	}
	net.Reset() // sim NOT reset: the delivery event is still scheduled
	if err := net.Register(2, func(float64, Message) { delivered += 10 }); err != nil {
		t.Fatal(err)
	}
	sim.Run(1)
	if delivered != 0 {
		t.Errorf("stale-epoch message delivered (delivered=%d)", delivered)
	}
	st := net.Stats()
	if st != (Stats{}) {
		t.Errorf("stale-epoch delivery skewed fresh books: %+v", st)
	}
	if err := st.CheckInvariant(); err != nil {
		t.Error(err)
	}
}

func TestLossProcess(t *testing.T) {
	sim := &des.Simulation{}
	net, err := NewNetwork(sim, Config{MaxDelayMin: 0.01, LossProb: 0.3}, stats.NewRNG(99, 0))
	if err != nil {
		t.Fatal(err)
	}
	delivered := 0
	if err := net.Register(2, func(float64, Message) { delivered++ }); err != nil {
		t.Fatal(err)
	}
	const n = 20000
	for i := 0; i < n; i++ {
		if err := net.Send(1, 2, "x", nil); err != nil {
			t.Fatal(err)
		}
	}
	sim.Run(10)
	frac := float64(delivered) / n
	if math.Abs(frac-0.7) > 0.02 {
		t.Errorf("delivery fraction = %v, want ≈0.7", frac)
	}
	st := net.Stats()
	if st.DroppedLoss+st.Delivered != n {
		t.Errorf("loss accounting: %+v", st)
	}
}

func TestGroundStationConstant(t *testing.T) {
	sim, net := newNet(t, Config{MaxDelayMin: 0.1})
	alerts := 0
	if err := net.Register(GroundStation, func(float64, Message) { alerts++ }); err != nil {
		t.Fatal(err)
	}
	if err := net.Send(3, GroundStation, "alert", "payload"); err != nil {
		t.Fatal(err)
	}
	sim.Run(1)
	if alerts != 1 {
		t.Error("ground station did not receive the alert")
	}
}

// MaxDelay returns δ.
func (n *Network) MaxDelay() float64 { return n.delta }
