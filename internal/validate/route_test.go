package validate

import (
	"bytes"
	"fmt"
	"testing"

	"satqos/internal/crosslink"
	"satqos/internal/des"
	"satqos/internal/fault"
	"satqos/internal/oaq"
	"satqos/internal/obs"
	"satqos/internal/obs/trace"
	"satqos/internal/qos"
	"satqos/internal/route"
	"satqos/internal/stats"
)

// TestPropertyRouteConservation drives the routed ISL fabric over
// seeded random topologies × all three forwarding policies with random
// protocol traffic, background cross-traffic, loss, and fail-silence,
// and asserts packet conservation and the no-forwarding-loop hop bound
// at quiescence every time.
func TestPropertyRouteConservation(t *testing.T) {
	const seed = 31
	g := NewGen(seed, 0)
	for trial := 0; trial < 12; trial++ {
		cfg := g.RouteConfig()
		for _, policy := range route.PolicyNames() {
			cfg.Policy = policy
			rng := stats.NewRNG(seed, uint64(100*trial+1))
			sim := &des.Simulation{}
			net, err := crosslink.NewNetwork(sim, crosslink.Config{MaxDelayMin: 0.5}, rng)
			if err != nil {
				t.Fatalf("trial %d %s: %v", trial, policy, err)
			}
			fab, err := route.NewFabric(sim, cfg, rng)
			if err != nil {
				t.Fatalf("trial %d %s: %v (config %+v)", trial, policy, err, cfg)
			}
			net.SetRouter(fab)
			n := cfg.Nodes()
			for id := crosslink.GroundStation; int(id) < n; id++ {
				if err := net.Register(id, func(now float64, msg crosslink.Message) {}); err != nil {
					t.Fatalf("trial %d %s: register: %v", trial, policy, err)
				}
			}
			if rng.Float64() < 0.4 {
				net.SetFailSilent(crosslink.NodeID(rng.Intn(n)), true)
			}
			if rng.Float64() < 0.5 {
				net.SetLossProb(rng.Float64())
			}
			fab.ArmBackground(0, 1+9*rng.Float64())
			for i, sends := 0, 1+rng.Intn(40); i < sends; i++ {
				from := crosslink.NodeID(rng.Intn(n+1) - 1) // ground included
				to := crosslink.NodeID(rng.Intn(n+1) - 1)
				if from == to {
					continue
				}
				if err := net.Send(from, to, "probe", nil); err != nil {
					t.Fatalf("trial %d %s: send: %v", trial, policy, err)
				}
			}
			sim.Run(1e6)
			fs := fab.Stats()
			if err := CheckRoute(fs, fab.Topology().Diameter()); err != nil {
				t.Fatalf("trial %d %s (config %+v): %v", trial, policy, cfg, err)
			}
			if fs.InFlight != 0 {
				t.Fatalf("trial %d %s: %d packets in flight at quiescence (%+v)", trial, policy, fs.InFlight, fs)
			}
			if err := CheckCrosslink(net.Stats()); err != nil {
				t.Fatalf("trial %d %s: %v", trial, policy, err)
			}
		}
	}
}

// TestPropertyRoutedEpisodeConservation runs full protocol episodes over
// generated routed networks and asserts the fabric invariants after
// every episode — including mid-flight packets cut off by the episode
// deadline, which the conservation identity must still account for.
func TestPropertyRoutedEpisodeConservation(t *testing.T) {
	const seed = 37
	g := NewGen(seed, 0)
	for trial := 0; trial < 8; trial++ {
		cfg := g.RouteConfig()
		p := oaq.ReferenceParams(6, qos.SchemeOAQ)
		p.Route = &cfg
		p.RequestRetries = trial % 3
		if trial%2 == 1 {
			p.Faults = g.Scenario()
		}
		r, err := oaq.NewRunner(p, stats.NewRNG(seed, uint64(trial)))
		if err != nil {
			t.Fatalf("trial %d: %v (config %+v)", trial, err, cfg)
		}
		for ep := 0; ep < 12; ep++ {
			r.Run()
			if err := CheckRoute(r.RouteStats(), r.RouteDiameter()); err != nil {
				t.Fatalf("trial %d episode %d (%s on %+v): %v", trial, ep, cfg.Policy, cfg, err)
			}
		}
	}
}

// routedDeterminismParams is the congested, fault-laden workload the
// cross-worker determinism tests replay: enough episodes to span more
// than one shard, so policy state genuinely partitions across workers.
func routedDeterminismParams(policy string, reg *obs.Registry, tc *trace.Config) oaq.Params {
	rc := route.Default(policy, 6)
	rc.TrafficLoadPerMin = 20
	p := oaq.ReferenceParams(6, qos.SchemeOAQ)
	p.Route = &rc
	p.RequestRetries = 1
	p.Faults = &fault.Scenario{
		Name:       "det",
		FailSilent: []fault.FailSilentWindow{{Sat: 2, StartMin: 0.5, EndMin: 4}},
		LossBursts: []fault.LossBurst{{StartMin: 0, EndMin: 3, Prob: 0.25}},
	}
	p.Metrics = reg
	p.Tracing = tc
	return p
}

// TestRoutedWorkerDeterminism asserts the full routed pipeline is
// bit-identical at 1 and 8 workers for every forwarding policy: the
// evaluation (P(Y ≥ y) spectrum and aggregates), the metrics snapshot,
// and the retained trace stream, compared byte for byte.
func TestRoutedWorkerDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-shard routed evaluations are slow")
	}
	const episodes = 1100 // > one shard of 1024
	for _, policy := range route.PolicyNames() {
		t.Run(policy, func(t *testing.T) {
			run := func(workers int) (*oaq.Evaluation, []byte, []byte) {
				reg := obs.NewRegistry()
				col := trace.NewCollector()
				tc := &trace.Config{SampleEvery: 173, Scope: "routed-det/" + policy, Collector: col}
				p := routedDeterminismParams(policy, reg, tc)
				ev, err := oaq.EvaluateParallel(p, episodes, 99, workers)
				if err != nil {
					t.Fatalf("workers %d: %v", workers, err)
				}
				metrics, err := reg.JSON()
				if err != nil {
					t.Fatalf("workers %d: %v", workers, err)
				}
				var traces bytes.Buffer
				if err := col.WriteChrome(&traces); err != nil {
					t.Fatalf("workers %d: %v", workers, err)
				}
				return ev, metrics, traces.Bytes()
			}
			ev1, m1, t1 := run(1)
			ev8, m8, t8 := run(8)
			if err := CheckEvaluationsEqual(ev1, ev8); err != nil {
				t.Fatal(err)
			}
			if err := CheckEvaluation(ev1); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(m1, m8) {
				t.Fatalf("metrics snapshots differ between 1 and 8 workers:\n--- workers=1\n%s\n--- workers=8\n%s",
					firstDiffContext(m1, m8), firstDiffContext(m8, m1))
			}
			if !bytes.Contains(t1, []byte(`"process_name"`)) {
				t.Fatal("no traces retained; the trace half of the determinism gate is vacuous")
			}
			if !bytes.Equal(t1, t8) {
				t.Fatal("trace streams differ between 1 and 8 workers")
			}
		})
	}
}

// firstDiffContext returns a short window around the first differing
// byte, keeping determinism failures readable.
func firstDiffContext(a, b []byte) string {
	i := 0
	for i < len(a) && i < len(b) && a[i] == b[i] {
		i++
	}
	lo := i - 80
	if lo < 0 {
		lo = 0
	}
	hi := i + 80
	if hi > len(a) {
		hi = len(a)
	}
	return fmt.Sprintf("...%s... (first difference at byte %d)", a[lo:hi], i)
}
