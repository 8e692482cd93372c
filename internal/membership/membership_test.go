package membership

import (
	"fmt"
	"testing"

	"satqos/internal/crosslink"
	"satqos/internal/des"
	"satqos/internal/stats"
)

// harness wires a group of n satellites over a δ-bounded crosslink.
func harness(t *testing.T, n int, cfg Config, seed uint64) (*des.Simulation, *crosslink.Network, *Group) {
	t.Helper()
	sim := &des.Simulation{}
	net, err := crosslink.NewNetwork(sim, crosslink.Config{MaxDelayMin: 0.01}, stats.NewRNG(seed, 0))
	if err != nil {
		t.Fatal(err)
	}
	candidates := make([]crosslink.NodeID, n)
	for i := range candidates {
		candidates[i] = crosslink.NodeID(i + 1)
	}
	g, err := NewGroup(sim, net, candidates, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return sim, net, g
}

func TestConfigValidate(t *testing.T) {
	if err := DefaultConfig().Validate(); err != nil {
		t.Fatalf("default config rejected: %v", err)
	}
	if err := (Config{RoundEvery: 0, SuspectAfter: 1}).Validate(); err == nil {
		t.Error("zero round accepted")
	}
	if err := (Config{RoundEvery: 1, SuspectAfter: 1}).Validate(); err == nil {
		t.Error("timeout <= round accepted")
	}
}

func TestNewGroupValidation(t *testing.T) {
	sim := &des.Simulation{}
	net, err := crosslink.NewNetwork(sim, crosslink.Config{MaxDelayMin: 0.01}, stats.NewRNG(1, 0))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewGroup(nil, net, []crosslink.NodeID{1, 2}, DefaultConfig()); err == nil {
		t.Error("nil sim accepted")
	}
	if _, err := NewGroup(sim, nil, []crosslink.NodeID{1, 2}, DefaultConfig()); err == nil {
		t.Error("nil net accepted")
	}
	if _, err := NewGroup(sim, net, []crosslink.NodeID{1}, DefaultConfig()); err == nil {
		t.Error("single candidate accepted")
	}
	if _, err := NewGroup(sim, net, []crosslink.NodeID{1, 1}, DefaultConfig()); err == nil {
		t.Error("duplicate candidates accepted")
	}
	if _, err := NewGroup(sim, net, []crosslink.NodeID{1, 2}, Config{RoundEvery: 1, SuspectAfter: 0.5}); err == nil {
		t.Error("invalid config accepted")
	}
}

// Accuracy: with no failures and timing bounds honored, nobody is ever
// excluded — every member stays on view #1.
func TestAccuracyNoFalseExclusions(t *testing.T) {
	sim, _, g := harness(t, 8, DefaultConfig(), 7)
	g.Start()
	sim.Run(30)
	for _, id := range g.Candidates() {
		v, err := g.ViewOf(id)
		if err != nil {
			t.Fatal(err)
		}
		if v.Number != 1 || len(v.Members) != 8 {
			t.Errorf("node %d moved to %v without any failure", id, v)
		}
	}
}

// Completeness + agreement: a fail-silent member is excluded within a
// bounded time, and all live members install a view with identical
// content.
func TestFailureExclusion(t *testing.T) {
	sim, _, g := harness(t, 8, DefaultConfig(), 11)
	g.Start()
	sim.Run(5)
	if err := g.Fail(3); err != nil {
		t.Fatal(err)
	}
	// Exclusion bound: SuspectAfter + 2 rounds + δ; run well past it.
	sim.Run(8)
	var reference View
	for _, id := range g.Candidates() {
		if id == 3 {
			continue
		}
		v, err := g.ViewOf(id)
		if err != nil {
			t.Fatal(err)
		}
		if v.Includes(3) {
			t.Errorf("node %d still includes the failed node: %v", id, v)
		}
		if len(v.Members) != 7 {
			t.Errorf("node %d view size %d, want 7", id, len(v.Members))
		}
		if reference.Members == nil {
			reference = v
		} else if !v.Equal(reference) {
			t.Errorf("view disagreement: %v vs %v", v, reference)
		}
	}
}

// Rejoin: a recovered member is re-admitted, and its own view converges
// to the group's.
func TestRecoverRejoins(t *testing.T) {
	sim, _, g := harness(t, 6, DefaultConfig(), 13)
	g.Start()
	sim.Run(5)
	if err := g.Fail(2); err != nil {
		t.Fatal(err)
	}
	sim.Run(8)
	if err := g.Recover(2); err != nil {
		t.Fatal(err)
	}
	sim.Run(21)
	for _, id := range g.Candidates() {
		v, err := g.ViewOf(id)
		if err != nil {
			t.Fatal(err)
		}
		if !v.Includes(2) {
			t.Errorf("node %d does not re-admit the recovered node: %v", id, v)
		}
		if len(v.Members) != 6 {
			t.Errorf("node %d view size %d, want 6", id, len(v.Members))
		}
	}
}

// Multiple concurrent failures: all excluded, survivors agree.
func TestMultipleFailures(t *testing.T) {
	sim, _, g := harness(t, 10, DefaultConfig(), 17)
	g.Start()
	sim.Run(3)
	for _, id := range []crosslink.NodeID{2, 5, 9} {
		if err := g.Fail(id); err != nil {
			t.Fatal(err)
		}
	}
	sim.Run(13)
	var ref View
	for _, id := range g.Candidates() {
		switch id {
		case 2, 5, 9:
			continue
		}
		v, err := g.ViewOf(id)
		if err != nil {
			t.Fatal(err)
		}
		if len(v.Members) != 7 {
			t.Errorf("node %d view %v, want 7 members", id, v)
		}
		if ref.Members == nil {
			ref = v
		} else if !v.Equal(ref) {
			t.Errorf("disagreement: %v vs %v", v, ref)
		}
	}
}

// Monotonicity: view numbers strictly increase in every member's
// history, and each history entry differs from its predecessor.
func TestViewHistoryMonotone(t *testing.T) {
	sim, _, g := harness(t, 6, DefaultConfig(), 19)
	g.Start()
	sim.Run(3)
	_ = g.Fail(4)
	sim.Run(9)
	_ = g.Recover(4)
	sim.Run(15)
	_ = g.Fail(1)
	sim.Run(21)
	for _, id := range g.Candidates() {
		hist, err := g.HistoryOf(id)
		if err != nil {
			t.Fatal(err)
		}
		for i := 1; i < len(hist); i++ {
			if hist[i].Number != hist[i-1].Number+1 {
				t.Errorf("node %d: view numbers not consecutive: %v -> %v", id, hist[i-1], hist[i])
			}
			if hist[i].Equal(hist[i-1]) {
				t.Errorf("node %d installed an identical view twice: %v", id, hist[i])
			}
		}
	}
}

// Staggered failures produce consistent final views even when members
// learn of them at different times (suspicion gossip).
func TestStaggeredFailuresConverge(t *testing.T) {
	sim, _, g := harness(t, 8, DefaultConfig(), 23)
	g.Start()
	sim.Run(2)
	_ = g.Fail(7)
	sim.Run(2.5)
	_ = g.Fail(8)
	sim.Run(14)
	var ref View
	for _, id := range g.Candidates() {
		if id == 7 || id == 8 {
			continue
		}
		v, err := g.ViewOf(id)
		if err != nil {
			t.Fatal(err)
		}
		if v.Includes(7) || v.Includes(8) {
			t.Errorf("node %d retains failed members: %v", id, v)
		}
		if ref.Members == nil {
			ref = v
		} else if !v.Equal(ref) {
			t.Errorf("disagreement: %v vs %v", v, ref)
		}
	}
}

func TestViewHelpers(t *testing.T) {
	v := View{Number: 3, Members: []crosslink.NodeID{1, 4}}
	if !v.Includes(4) || v.Includes(2) {
		t.Error("Includes wrong")
	}
	if v.String() != "view#3{1,4}" {
		t.Errorf("String = %q", v.String())
	}
	if v.Equal(View{Members: []crosslink.NodeID{1}}) {
		t.Error("Equal on different sizes")
	}
	if v.Equal(View{Members: []crosslink.NodeID{1, 5}}) {
		t.Error("Equal on different content")
	}
}

func TestUnknownNodeQueries(t *testing.T) {
	_, _, g := harness(t, 4, DefaultConfig(), 29)
	if _, err := g.ViewOf(99); err == nil {
		t.Error("ViewOf unknown accepted")
	}
	if _, err := g.HistoryOf(99); err == nil {
		t.Error("HistoryOf unknown accepted")
	}
	if err := g.Fail(99); err == nil {
		t.Error("Fail unknown accepted")
	}
	if err := g.Recover(99); err == nil {
		t.Error("Recover unknown accepted")
	}
}

func BenchmarkMembershipRound(b *testing.B) {
	sim := &des.Simulation{}
	net, err := crosslink.NewNetwork(sim, crosslink.Config{MaxDelayMin: 0.01}, stats.NewRNG(1, 0))
	if err != nil {
		b.Fatal(err)
	}
	candidates := make([]crosslink.NodeID, 14)
	for i := range candidates {
		candidates[i] = crosslink.NodeID(i + 1)
	}
	g, err := NewGroup(sim, net, candidates, DefaultConfig())
	if err != nil {
		b.Fatal(err)
	}
	g.Start()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sim.Run(sim.Now() + 1)
	}
}

// HistoryOf returns the node's installed view sequence.
func (g *Group) HistoryOf(id crosslink.NodeID) ([]View, error) {
	m, ok := g.members[id]
	if !ok {
		return nil, fmt.Errorf("membership: unknown node %d", id)
	}
	out := make([]View, len(m.history))
	copy(out, m.history)
	return out, nil
}

// Candidates returns the (sorted) candidate set.
func (g *Group) Candidates() []crosslink.NodeID {
	return append([]crosslink.NodeID(nil), g.candidates...)
}
