package route

import (
	"fmt"
	"math"
	"testing"

	"satqos/internal/crosslink"
	"satqos/internal/des"
	"satqos/internal/obs"
	"satqos/internal/stats"
)

// testRig is a simulation with one crosslink network routed over a
// fabric, with every grid node registered as a sink.
type testRig struct {
	sim *des.Simulation
	net *crosslink.Network
	fab *Fabric
	// got counts deliveries per destination NodeID+1 slot.
	got map[crosslink.NodeID]int
}

func newTestRig(t *testing.T, cfg Config, seed uint64) *testRig {
	t.Helper()
	sim := &des.Simulation{}
	rng := stats.NewRNG(seed, 0)
	net, err := crosslink.NewNetwork(sim, crosslink.Config{MaxDelayMin: 1}, rng)
	if err != nil {
		t.Fatal(err)
	}
	fab, err := NewFabric(sim, cfg, rng)
	if err != nil {
		t.Fatal(err)
	}
	net.SetRouter(fab)
	r := &testRig{sim: sim, net: net, fab: fab, got: map[crosslink.NodeID]int{}}
	for id := crosslink.GroundStation; int(id) < cfg.Nodes(); id++ {
		id := id
		if err := net.Register(id, func(now float64, msg crosslink.Message) {
			r.got[id]++
		}); err != nil {
			t.Fatal(err)
		}
	}
	return r
}

// checkConserved asserts both accounting invariants and quiescence.
func (r *testRig) checkConserved(t *testing.T) {
	t.Helper()
	if err := r.net.Stats().CheckInvariant(); err != nil {
		t.Fatal(err)
	}
	if err := r.fab.Stats().CheckInvariant(); err != nil {
		t.Fatal(err)
	}
	if fl := r.fab.Stats().InFlight; fl != 0 {
		t.Fatalf("%d packets in flight at quiescence", fl)
	}
	if fl := r.net.Stats().InFlight; fl != 0 {
		t.Fatalf("%d envelopes in flight at quiescence", fl)
	}
}

func TestStaticShortestPathDelivery(t *testing.T) {
	cfg := validConfig()
	rig := newTestRig(t, cfg, 1)
	if err := rig.net.Send(0, 7, "alert", nil); err != nil {
		t.Fatal(err)
	}
	rig.sim.Run(100)
	rig.checkConserved(t)
	fs := rig.fab.Stats()
	if fs.Delivered != 1 || rig.got[7] != 1 {
		t.Fatalf("delivered %d (handler saw %d)", fs.Delivered, rig.got[7])
	}
	want := rig.fab.Topology().Dist(0, 7)
	if fs.HopsSum != want || fs.MaxHops != want {
		t.Fatalf("hops %d/%d, want the shortest path %d", fs.HopsSum, fs.MaxHops, want)
	}
	ns := rig.net.Stats()
	if ns.Sent != 1 || ns.Delivered != 1 {
		t.Fatalf("crosslink stats %+v", ns)
	}
}

func TestAllPoliciesDeliverWithinDiameter(t *testing.T) {
	for _, policy := range PolicyNames() {
		t.Run(policy, func(t *testing.T) {
			cfg := validConfig()
			cfg.Policy = policy
			cfg.ISLRatePerMin = 600
			cfg.QueueCap = 64
			rig := newTestRig(t, cfg, 7)
			n := cfg.Nodes()
			pairs := 0
			for from := 0; from < n; from++ {
				for to := 0; to < n; to++ {
					if from == to {
						continue
					}
					if err := rig.net.Send(crosslink.NodeID(from), crosslink.NodeID(to), "alert", nil); err != nil {
						t.Fatal(err)
					}
					pairs++
				}
			}
			rig.sim.Run(1000)
			rig.checkConserved(t)
			fs := rig.fab.Stats()
			if fs.Delivered != pairs {
				t.Fatalf("delivered %d of %d (stats %+v)", fs.Delivered, pairs, fs)
			}
			if diam := rig.fab.Topology().Diameter(); fs.MaxHops > diam {
				t.Fatalf("max hops %d exceeds diameter %d: forwarding loop", fs.MaxHops, diam)
			}
			if fs.MaxHops < rig.fab.Topology().Diameter() {
				// All-pairs traffic includes a diameter-length pair, and
				// loop-free forwarding takes exactly dist(src, dst) hops.
				t.Fatalf("max hops %d below diameter %d: distance-decreasing forwarding broken", fs.MaxHops, rig.fab.Topology().Diameter())
			}
		})
	}
}

func TestQueueOverflowDrops(t *testing.T) {
	cfg := validConfig()
	cfg.Planes, cfg.PerPlane = 1, 4
	cfg.ISLRatePerMin = 0.01 // 100-minute transmissions
	cfg.QueueCap = 1
	rig := newTestRig(t, cfg, 3)
	for i := 0; i < 5; i++ {
		if err := rig.net.Send(0, 1, "alert", nil); err != nil {
			t.Fatal(err)
		}
	}
	rig.sim.Run(1000)
	rig.checkConserved(t)
	fs := rig.fab.Stats()
	// One in the transmitter, one queued; three bounce off the full FIFO.
	if fs.Delivered != 2 || fs.DroppedQueue != 3 {
		t.Fatalf("stats %+v, want 2 delivered / 3 queue drops", fs)
	}
	if ns := rig.net.Stats(); ns.DroppedQueue != 3 {
		t.Fatalf("crosslink queue drops %d, want 3", ns.DroppedQueue)
	}
}

func TestPerHopLoss(t *testing.T) {
	cfg := validConfig()
	cfg.QueueCap = 16
	rig := newTestRig(t, cfg, 5)
	rig.net.SetLossProb(1)
	for i := 0; i < 10; i++ {
		if err := rig.net.Send(0, 7, "alert", nil); err != nil {
			t.Fatal(err)
		}
	}
	rig.sim.Run(1000)
	rig.checkConserved(t)
	fs := rig.fab.Stats()
	if fs.DroppedLoss != 10 || fs.Delivered != 0 {
		t.Fatalf("stats %+v, want every packet lost", fs)
	}
	if ns := rig.net.Stats(); ns.DroppedLoss != 10 {
		t.Fatalf("crosslink loss drops %d", ns.DroppedLoss)
	}
}

func TestBackgroundTrafficImmuneToProtocolLoss(t *testing.T) {
	cfg := validConfig()
	cfg.TrafficLoadPerMin = 40
	rig := newTestRig(t, cfg, 11)
	rig.net.SetLossProb(1) // loss bursts target protocol envelopes only
	rig.fab.ArmBackground(0, 10)
	rig.sim.Run(1000)
	rig.checkConserved(t)
	fs := rig.fab.Stats()
	if fs.Background == 0 {
		t.Fatal("no background packets at load 40/min over 10 min")
	}
	if fs.Injected != fs.Background {
		t.Fatalf("injected %d != background %d with no protocol traffic", fs.Injected, fs.Background)
	}
	if fs.DroppedLoss != 0 {
		t.Fatalf("%d background packets lost to the protocol loss process", fs.DroppedLoss)
	}
	if fs.Delivered == 0 {
		t.Fatal("no background packet delivered")
	}
	if ns := rig.net.Stats(); ns != (crosslink.Stats{}) {
		t.Fatalf("background traffic leaked into crosslink stats: %+v", ns)
	}
}

func TestFailSilentRelayAndDestination(t *testing.T) {
	cfg := validConfig()
	cfg.Planes, cfg.PerPlane = 1, 5 // ring: 0→2 must relay through 1
	rig := newTestRig(t, cfg, 13)
	rig.net.SetFailSilent(1, true)
	if err := rig.net.Send(0, 2, "alert", nil); err != nil {
		t.Fatal(err)
	}
	rig.sim.Run(100)
	rig.checkConserved(t)
	if fs := rig.fab.Stats(); fs.DroppedFailSilent != 1 || fs.Delivered != 0 {
		t.Fatalf("relay drop: %+v", fs)
	}
	// Recovery: the relay comes back, traffic flows again.
	rig.net.SetFailSilent(1, false)
	if err := rig.net.Send(0, 2, "alert", nil); err != nil {
		t.Fatal(err)
	}
	rig.sim.Run(200)
	rig.checkConserved(t)
	if fs := rig.fab.Stats(); fs.Delivered != 1 {
		t.Fatalf("after recovery: %+v", fs)
	}
	// A fail-silent destination swallows the packet on arrival.
	rig.net.SetFailSilent(2, true)
	if err := rig.net.Send(0, 2, "alert", nil); err != nil {
		t.Fatal(err)
	}
	rig.sim.Run(300)
	rig.checkConserved(t)
	if fs := rig.fab.Stats(); fs.DroppedFailSilent != 2 {
		t.Fatalf("destination drop: %+v", fs)
	}
	if ns := rig.net.Stats(); ns.DroppedFailSilent != 2 || ns.Delivered != 1 {
		t.Fatalf("crosslink stats %+v", ns)
	}
}

func TestSameNodeLocalDelivery(t *testing.T) {
	cfg := validConfig()
	rig := newTestRig(t, cfg, 17)
	// The gateway satellite alerting the ground station maps src == dst:
	// no ISL hop, only the downlink propagation.
	gw := crosslink.NodeID(cfg.Gateway())
	if err := rig.net.Send(gw, crosslink.GroundStation, "alert", nil); err != nil {
		t.Fatal(err)
	}
	rig.sim.Run(100)
	rig.checkConserved(t)
	fs := rig.fab.Stats()
	if fs.Delivered != 1 || fs.MaxHops != 0 {
		t.Fatalf("local delivery stats %+v", fs)
	}
	if rig.got[crosslink.GroundStation] != 1 {
		t.Fatal("ground handler never ran")
	}
}

func TestPhysNodeMapping(t *testing.T) {
	cfg := validConfig()
	rig := newTestRig(t, cfg, 19)
	if got := rig.fab.physNode(crosslink.GroundStation); got != int32(cfg.Gateway()) {
		t.Fatalf("ground maps to %d, want gateway %d", got, cfg.Gateway())
	}
	n := cfg.Nodes()
	if got := rig.fab.physNode(crosslink.NodeID(n + 3)); got != 3 {
		t.Fatalf("node %d maps to %d, want 3", n+3, got)
	}
}

func TestResetFencesInFlightPackets(t *testing.T) {
	cfg := validConfig()
	cfg.ISLRatePerMin = 0.01 // keep packets in flight at the cut
	rig := newTestRig(t, cfg, 23)
	for i := 0; i < 4; i++ {
		if err := rig.net.Send(0, 7, "alert", nil); err != nil {
			t.Fatal(err)
		}
	}
	rig.sim.Run(1) // transmissions still pending
	if rig.fab.Stats().InFlight == 0 {
		t.Fatal("test setup: nothing in flight at the reset point")
	}
	rig.net.Reset()
	rig.fab.Reset()
	if fs := rig.fab.Stats(); fs != (Stats{}) {
		t.Fatalf("stats after reset: %+v", fs)
	}
	// Stale events fire into the new epoch and must only recycle.
	rig.sim.Run(1000)
	if fs := rig.fab.Stats(); fs != (Stats{}) {
		t.Fatalf("stale epoch leaked into fresh stats: %+v", fs)
	}
	// The fresh epoch works, reusing pooled packets.
	for id := crosslink.GroundStation; int(id) < cfg.Nodes(); id++ {
		id := id
		if err := rig.net.Register(id, func(now float64, msg crosslink.Message) { rig.got[id]++ }); err != nil {
			t.Fatal(err)
		}
	}
	cfg.ISLRatePerMin = 60
	if err := rig.fab.Rebind(cfg, stats.NewRNG(23, 1)); err != nil {
		t.Fatal(err)
	}
	if err := rig.net.Send(0, 7, "alert", nil); err != nil {
		t.Fatal(err)
	}
	rig.sim.Run(2000)
	rig.checkConserved(t)
	if fs := rig.fab.Stats(); fs.Delivered != 1 {
		t.Fatalf("fresh epoch stats %+v", fs)
	}
}

func TestRebindSwitchesPolicy(t *testing.T) {
	cfg := validConfig()
	rig := newTestRig(t, cfg, 29)
	if got := rig.fab.PolicyName(); got != PolicyStatic {
		t.Fatalf("policy %q", got)
	}
	cfg.Policy = PolicyQLearning
	if err := rig.fab.Rebind(cfg, stats.NewRNG(29, 1)); err != nil {
		t.Fatal(err)
	}
	if got := rig.fab.PolicyName(); got != PolicyQLearning {
		t.Fatalf("policy after rebind %q", got)
	}
	if err := rig.net.Send(0, 7, "alert", nil); err != nil {
		t.Fatal(err)
	}
	rig.sim.Run(100)
	rig.checkConserved(t)
	if fs := rig.fab.Stats(); fs.Delivered != 1 {
		t.Fatalf("post-rebind stats %+v", fs)
	}
}

// runStochastic drives one congested scenario and returns the final
// fabric stats.
func runStochastic(t *testing.T, policy string, seed uint64) Stats {
	t.Helper()
	cfg := validConfig()
	cfg.Policy = policy
	cfg.ISLRatePerMin = 6 // 10-second transmissions: real queueing
	cfg.QueueCap = 2
	cfg.TrafficLoadPerMin = 60
	rig := newTestRig(t, cfg, seed)
	rig.fab.ArmBackground(0, 5)
	for i := 0; i < 20; i++ {
		if err := rig.net.Send(crosslink.NodeID(i%12), crosslink.NodeID((i+5)%12), "alert", nil); err != nil {
			t.Fatal(err)
		}
	}
	rig.sim.Run(10000)
	rig.checkConserved(t)
	return rig.fab.Stats()
}

func TestStochasticPoliciesDeterministic(t *testing.T) {
	for _, policy := range []string{PolicyProbabilistic, PolicyQLearning} {
		t.Run(policy, func(t *testing.T) {
			a := runStochastic(t, policy, 42)
			b := runStochastic(t, policy, 42)
			if a != b {
				t.Fatalf("same seed diverged:\n  a %+v\n  b %+v", a, b)
			}
			c := runStochastic(t, policy, 43)
			if a == c {
				t.Fatalf("different seeds produced identical congested stats %+v (suspicious)", a)
			}
			if a.DroppedQueue == 0 {
				t.Fatalf("scenario not congested enough to queue-drop: %+v", a)
			}
			if diam := 4; a.MaxHops > diam {
				t.Fatalf("max hops %d exceeds the 3x4 grid diameter %d", a.MaxHops, diam)
			}
		})
	}
}

func TestQueueDelayHistogram(t *testing.T) {
	cfg := validConfig()
	cfg.ISLRatePerMin = 6
	rig := newTestRig(t, cfg, 31)
	h := obs.NewLocalHistogram(obs.MinuteBuckets)
	rig.fab.SetQueueDelayHistogram(h)
	for i := 0; i < 8; i++ {
		if err := rig.net.Send(0, 7, "alert", nil); err != nil {
			t.Fatal(err)
		}
	}
	rig.sim.Run(1000)
	rig.checkConserved(t)
	if h.Count() != uint64(rig.fab.Stats().Delivered) {
		t.Fatalf("histogram saw %d deliveries, stats say %d", h.Count(), rig.fab.Stats().Delivered)
	}
	rig.fab.SetQueueDelayHistogram(nil) // must not panic on delivery
	if err := rig.net.Send(0, 7, "alert", nil); err != nil {
		t.Fatal(err)
	}
	rig.sim.Run(2000)
	rig.checkConserved(t)
}

func TestNewFabricErrors(t *testing.T) {
	sim := &des.Simulation{}
	rng := stats.NewRNG(1, 0)
	cfg := validConfig()
	if _, err := NewFabric(nil, cfg, rng); err == nil {
		t.Fatal("nil simulation accepted")
	}
	if _, err := NewFabric(sim, cfg, nil); err == nil {
		t.Fatal("nil RNG accepted")
	}
	bad := cfg
	bad.QueueCap = 0
	if _, err := NewFabric(sim, bad, rng); err == nil {
		t.Fatal("invalid config accepted")
	}
	fab, err := NewFabric(sim, cfg, rng)
	if err != nil {
		t.Fatal(err)
	}
	if err := fab.Rebind(cfg, nil); err == nil {
		t.Fatal("Rebind with nil RNG accepted")
	}
}

func TestConservationUnderCombinedFaults(t *testing.T) {
	for _, policy := range PolicyNames() {
		t.Run(policy, func(t *testing.T) {
			cfg := validConfig()
			cfg.Policy = policy
			cfg.ISLRatePerMin = 10
			cfg.QueueCap = 2
			cfg.TrafficLoadPerMin = 90
			rig := newTestRig(t, cfg, 101)
			rig.net.SetLossProb(0.3)
			rig.net.SetFailSilent(5, true)
			rig.fab.ArmBackground(0, 8)
			for i := 0; i < 30; i++ {
				if err := rig.net.Send(crosslink.NodeID(i%12), crosslink.NodeID((i*7+1)%12), "alert", nil); err != nil {
					t.Fatal(err)
				}
			}
			rig.sim.Run(10000)
			rig.checkConserved(t)
			fs := rig.fab.Stats()
			if fs.DroppedLoss == 0 || fs.DroppedFailSilent == 0 {
				t.Fatalf("faults did not bite: %+v", fs)
			}
		})
	}
}

// queued counts the packets waiting in egress FIFOs.
func (f *Fabric) queued() int {
	n := 0
	for _, l := range f.qlen {
		n += l
	}
	return n
}

// queue returns node u's egress FIFO, oldest packet first.
func (f *Fabric) queue(u int) []*packet {
	q := make([]*packet, f.qlen[u])
	for j := range q {
		q[j] = f.ring[f.slot(u, j)]
	}
	return q
}

// TestBackgroundArrivalsOnePending: background arrivals are generated in
// time order, so while a load-180 episode runs on the golden fabric the
// simulation holds at most one pending arrival besides the packets in
// transmission or propagation — not the whole window's cross-traffic.
func TestBackgroundArrivalsOnePending(t *testing.T) {
	cfg := Default(PolicyStatic, 10)
	cfg.ISLRatePerMin = 3
	cfg.TrafficLoadPerMin = 180
	rig := newTestRig(t, cfg, 37)
	rig.fab.ArmBackground(0, 15)
	peak := 0
	for rig.sim.Step() {
		fs := rig.fab.Stats()
		inTransit := fs.InFlight - rig.fab.queued()
		if p := rig.sim.Pending(); p > 1+inTransit {
			t.Fatalf("t=%g: %d events pending, %d packets in transmission or propagation", rig.sim.Now(), p, inTransit)
		}
		peak = max(peak, rig.sim.Pending())
	}
	rig.checkConserved(t)
	if fs := rig.fab.Stats(); fs.Background < 2000 {
		t.Fatalf("only %d background arrivals at load 180 over 15 min", fs.Background)
	}
	if st := rig.sim.Stats(); st.MaxHeapDepth != peak {
		t.Fatalf("MaxHeapDepth %d, observed peak %d", st.MaxHeapDepth, peak)
	}
}

// TestBackgroundArrivalsArePoisson checks the background process over
// many seeded windows: the arrival count's mean and variance both match
// load × window (Poisson), including a window whose mean is far above
// 500; every arrival lies in [origin, until); and no packet is addressed
// to its own source. The transmitters are held busy so every injected
// packet stays queued, with its injection time and endpoints, for
// inspection.
func TestBackgroundArrivalsArePoisson(t *testing.T) {
	cases := []struct {
		load, origin, window float64
		windows              int
	}{
		{load: 2, origin: 1, window: 3, windows: 4000},
		{load: 180, origin: 40, window: 15, windows: 400},
	}
	for _, c := range cases {
		cfg := validConfig()
		cfg.TrafficLoadPerMin = c.load
		cfg.QueueCap = 1 << 20
		rig := newTestRig(t, cfg, 41)
		var sum, sumSq float64
		for w := 0; w < c.windows; w++ {
			rig.sim.Reset()
			if err := rig.fab.Rebind(cfg, stats.NewRNG(41, uint64(w))); err != nil {
				t.Fatal(err)
			}
			for i := range rig.fab.busy {
				rig.fab.busy[i] = true
			}
			until := c.origin + c.window
			rig.fab.ArmBackground(c.origin, until)
			rig.sim.Run(until + 1)
			fs := rig.fab.Stats()
			if fs.Injected != fs.Background || fs.InFlight != fs.Background || rig.fab.queued() != fs.Background {
				t.Fatalf("window %d: stats %+v, %d queued; want every arrival queued", w, fs, rig.fab.queued())
			}
			for node := range rig.fab.qlen {
				for _, p := range rig.fab.queue(node) {
					if p.cur != int32(node) || p.dst == p.cur {
						t.Fatalf("window %d: packet queued at %d from %d to %d", w, node, p.cur, p.dst)
					}
					if p.enq < c.origin || p.enq >= until {
						t.Fatalf("window %d: arrival at %g outside [%g, %g)", w, p.enq, c.origin, until)
					}
				}
			}
			n := float64(fs.Background)
			sum += n
			sumSq += n * n
		}
		m := float64(c.windows)
		mean := sum / m
		variance := (sumSq - sum*sum/m) / (m - 1)
		lambda := c.load * c.window
		if se := math.Sqrt(lambda / m); math.Abs(mean-lambda) > 4*se {
			t.Errorf("load %g × %g min: mean count %.2f, want %g ± %.2f", c.load, c.window, mean, lambda, 4*se)
		}
		// Standard error of a Poisson sample variance, relative to λ.
		if rse := math.Sqrt(2/(m-1) + 1/(lambda*m)); math.Abs(variance/lambda-1) > 4*rse {
			t.Errorf("load %g × %g min: count variance %.1f, want %g (relative tolerance %.3f)", c.load, c.window, variance, lambda, 4*rse)
		}
	}
}

// TestRingQueueWrapDropsResetAndRebind drives one egress FIFO through
// its ring: a QueueCap-3 queue fills, drops the overflow, wraps its tail
// past the end of its slots and still delivers in FIFO order; Reset and
// a Rebind to another QueueCap recycle every queued packet onto the
// freelist; and a queue deeper than the initial ring grows it without
// reordering.
func TestRingQueueWrapDropsResetAndRebind(t *testing.T) {
	cfg := validConfig()
	cfg.Planes, cfg.PerPlane = 1, 4
	cfg.ISLRatePerMin = 0.01 // 100-minute transmissions
	cfg.QueueCap = 3
	sim := &des.Simulation{}
	rng := stats.NewRNG(5, 0)
	net, err := crosslink.NewNetwork(sim, crosslink.Config{MaxDelayMin: 1}, rng)
	if err != nil {
		t.Fatal(err)
	}
	fab, err := NewFabric(sim, cfg, rng)
	if err != nil {
		t.Fatal(err)
	}
	net.SetRouter(fab)
	var order []int
	register := func() {
		t.Helper()
		if err := net.Register(1, func(_ float64, msg crosslink.Message) {
			order = append(order, msg.Payload.(int))
		}); err != nil {
			t.Fatal(err)
		}
	}
	register()
	send := func(payloads ...int) {
		t.Helper()
		for _, pl := range payloads {
			if err := net.Send(0, 1, "alert", pl); err != nil {
				t.Fatal(err)
			}
		}
	}
	conserved := func() {
		t.Helper()
		if err := fab.Stats().CheckInvariant(); err != nil {
			t.Fatal(err)
		}
		if fs := fab.Stats(); fs.InFlight != fab.queued()+btoi(fab.busy[0]) {
			t.Fatalf("in flight %d, queued %d", fs.InFlight, fab.queued())
		}
	}

	// 0 transmits, 1-3 fill the queue, 4 bounces.
	send(0, 1, 2, 3, 4)
	if fab.qlen[0] != 3 || fab.Stats().DroppedQueue != 1 {
		t.Fatalf("qlen %d, stats %+v; want a full queue and one drop", fab.qlen[0], fab.Stats())
	}
	conserved()
	// Packet 0 passed through slot 0 and 1 through slot 1, so the head is
	// at slot 2 and 5 lands in slot 1: the queue wraps past the end of
	// its slots. 6 finds the queue full again.
	sim.ScheduleCallAt(150, "send", func(float64, any) { send(5, 6) }, nil)
	sim.Run(150)
	if fab.qhead[0] != 2 || fab.qlen[0] != 3 || fab.slot(0, 2) != 1 {
		t.Fatalf("head %d len %d tail slot %d; want a wrapped ring", fab.qhead[0], fab.qlen[0], fab.slot(0, 2))
	}
	conserved()
	sim.Run(1000)
	if want := []int{0, 1, 2, 3, 5}; fmt.Sprint(order) != fmt.Sprint(want) {
		t.Fatalf("delivery order %v, want %v", order, want)
	}
	if fs := fab.Stats(); fs.Delivered != 5 || fs.DroppedQueue != 2 || fs.InFlight != 0 {
		t.Fatalf("stats %+v, want 5 delivered / 2 queue drops", fs)
	}
	conserved()

	// Reset recycles the three queued packets; the transmitting one
	// recycles when its stale completion fires.
	send(10, 11, 12, 13)
	free := len(fab.free)
	net.Reset()
	fab.Reset()
	if got := len(fab.free) - free; got != 3 || fab.queued() != 0 {
		t.Fatalf("Reset recycled %d packets, %d still queued; want 3, 0", got, fab.queued())
	}
	for _, p := range fab.ring {
		if p != nil {
			t.Fatal("Reset left a packet in the ring")
		}
	}
	sim.Run(2000)
	if got := len(fab.free) - free; got != 4 {
		t.Fatalf("%d packets back on the freelist after the stale event, want 4", got)
	}
	register()

	// Rebind to QueueCap 5 with three packets queued under the old
	// layout: all three return to the freelist before the ring reshapes.
	order = order[:0]
	send(20, 21, 22, 23)
	free = len(fab.free)
	sim.Reset()
	net.Reset()
	cfg.QueueCap = 5
	if err := fab.Rebind(cfg, rng); err != nil {
		t.Fatal(err)
	}
	if got := len(fab.free) - free; got != 3 || len(fab.ring) != 4*5 {
		t.Fatalf("Rebind recycled %d packets, ring %d slots; want 3, 20", got, len(fab.ring))
	}
	register()
	send(30, 31, 32, 33, 34, 35, 36)
	conserved()
	sim.Run(5000)
	if want := []int{30, 31, 32, 33, 34, 35}; fmt.Sprint(order) != fmt.Sprint(want) {
		t.Fatalf("delivery order after rebind %v, want %v", order, want)
	}
	if fs := fab.Stats(); fs.Delivered != 6 || fs.DroppedQueue != 1 || fs.InFlight != 0 {
		t.Fatalf("stats after rebind %+v, want 6 delivered / 1 queue drop", fs)
	}

	// A queue deeper than the initial ring doubles it in place, keeping
	// FIFO order across the move.
	order = order[:0]
	sim.Reset()
	net.Reset()
	cfg.QueueCap = 40
	if err := fab.Rebind(cfg, rng); err != nil {
		t.Fatal(err)
	}
	register()
	want := make([]int, 30)
	for i := range want {
		want[i] = 100 + i
		send(want[i])
	}
	if fab.slots != 2*initialSlots || fab.qlen[0] != 29 {
		t.Fatalf("ring slots %d, qlen %d; want %d, 29", fab.slots, fab.qlen[0], 2*initialSlots)
	}
	conserved()
	sim.Run(1e5)
	if fmt.Sprint(order) != fmt.Sprint(want) {
		t.Fatalf("delivery order across ring growth %v, want %v", order, want)
	}
	conserved()
}

func btoi(b bool) int {
	if b {
		return 1
	}
	return 0
}

// PolicyName returns the active forwarding policy's name.
func (f *Fabric) PolicyName() string { return f.pol.Name() }
