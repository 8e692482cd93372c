package route

import (
	"fmt"
	"testing"
)

func mustTopology(t *testing.T, c Config) *Topology {
	t.Helper()
	topo, err := NewTopology(c)
	if err != nil {
		t.Fatal(err)
	}
	return topo
}

func TestRingTopology(t *testing.T) {
	c := validConfig()
	c.Planes, c.PerPlane = 1, 6
	topo := mustTopology(t, c)
	if topo.Nodes() != 6 {
		t.Fatalf("nodes %d", topo.Nodes())
	}
	if topo.Diameter() != 3 {
		t.Fatalf("ring-of-6 diameter %d, want 3", topo.Diameter())
	}
	for u := 0; u < 6; u++ {
		if topo.Degree(u) != 2 {
			t.Fatalf("ring node %d degree %d", u, topo.Degree(u))
		}
	}
	if d := topo.Dist(0, 3); d != 3 {
		t.Fatalf("Dist(0,3)=%d", d)
	}
	if d := topo.Dist(0, 5); d != 1 {
		t.Fatalf("Dist(0,5)=%d (wrap edge missing?)", d)
	}
}

func TestTwoNodeRingDedup(t *testing.T) {
	c := validConfig()
	c.Planes, c.PerPlane = 1, 2
	topo := mustTopology(t, c)
	// The two wrap edges of a 2-ring are the same edge; it must appear
	// once per adjacency list.
	if topo.Degree(0) != 1 || topo.Degree(1) != 1 {
		t.Fatalf("degrees %d, %d, want 1, 1", topo.Degree(0), topo.Degree(1))
	}
	if topo.Diameter() != 1 {
		t.Fatalf("diameter %d", topo.Diameter())
	}
}

func TestWalkerStarDiameter(t *testing.T) {
	c := Default(PolicyStatic, 10)
	topo := mustTopology(t, c)
	// Open seam: 6 cross-plane hops plus half the 10-ring.
	if topo.Diameter() != 11 {
		t.Fatalf("7x10 star diameter %d, want 11", topo.Diameter())
	}
}

func TestPlaneWrapShortensSeam(t *testing.T) {
	c := validConfig()
	c.Planes, c.PerPlane = 4, 3
	open := mustTopology(t, c)
	c.PlaneWrap = true
	wrapped := mustTopology(t, c)
	// Plane 0 to plane 3: three hops on the open chain, one across the
	// wrap link.
	if d := open.Dist(0, 9); d != 3 {
		t.Fatalf("open seam Dist(0,9)=%d, want 3", d)
	}
	if d := wrapped.Dist(0, 9); d != 1 {
		t.Fatalf("wrapped Dist(0,9)=%d, want 1", d)
	}
	if wrapped.Diameter() >= open.Diameter() {
		t.Fatalf("wrap did not shrink the diameter: %d vs %d", wrapped.Diameter(), open.Diameter())
	}
}

func TestExtraAndDisabledISLs(t *testing.T) {
	c := validConfig()
	c.Planes, c.PerPlane = 1, 8
	base := mustTopology(t, c)
	if d := base.Dist(0, 4); d != 4 {
		t.Fatalf("Dist(0,4)=%d", d)
	}
	c.ExtraISLs = []ISL{{A: 0, B: 4}}
	shortcut := mustTopology(t, c)
	if d := shortcut.Dist(0, 4); d != 1 {
		t.Fatalf("shortcut Dist(0,4)=%d", d)
	}
	c.ExtraISLs = nil
	c.DisabledISLs = []ISL{{A: 0, B: 1}}
	cut := mustTopology(t, c)
	if d := cut.Dist(0, 1); d != 7 {
		t.Fatalf("cut Dist(0,1)=%d, want the long way round (7)", d)
	}
	if cut.Degree(0) != 1 {
		t.Fatalf("cut node 0 degree %d", cut.Degree(0))
	}
}

// TestNextIdxTable checks the static policy's next hop, the first
// routing candidate: none at the destination, otherwise a neighbor one
// hop closer.
func TestNextIdxTable(t *testing.T) {
	c := validConfig()
	topo := mustTopology(t, c)
	n := topo.Nodes()
	for u := 0; u < n; u++ {
		for dst := 0; dst < n; dst++ {
			cs := topo.candidates(int32(u), int32(dst))
			if u == dst {
				if len(cs) != 0 {
					t.Fatalf("candidates(%d,%d)=%v, want none", u, dst, cs)
				}
				continue
			}
			if len(cs) == 0 {
				t.Fatalf("no static next hop from %d toward %d", u, dst)
			}
			idx := cs[0]
			if idx < 0 || int(idx) >= topo.Degree(u) {
				t.Fatalf("next hop index %d from %d toward %d outside neighbor list", idx, u, dst)
			}
			v := topo.nbrs[u][idx]
			if topo.Dist(int(v), dst) != topo.Dist(u, dst)-1 {
				t.Fatalf("next hop %d from %d toward %d is not strictly closer", v, u, dst)
			}
		}
	}
}

func TestAppendCandidates(t *testing.T) {
	c := validConfig()
	topo := mustTopology(t, c)
	n := topo.Nodes()
	for u := 0; u < n; u++ {
		for dst := 0; dst < n; dst++ {
			if u == dst {
				continue
			}
			cs := topo.candidates(int32(u), int32(dst))
			if len(cs) == 0 {
				t.Fatalf("no candidate from %d toward %d on a connected graph", u, dst)
			}
			du := topo.Dist(u, dst)
			for _, ai := range cs {
				v := topo.nbrs[u][ai]
				if topo.Dist(int(v), dst) != du-1 {
					t.Fatalf("candidate %d from %d toward %d is not strictly closer", v, u, dst)
				}
			}
		}
	}
}

// TestCandidateTable checks the routing-candidate table against a
// brute-force enumeration: Floyd–Warshall distances over the adjacency
// lists, then every neighbor (in neighbor order) one hop closer to the
// destination. The static policy forwards to the first candidate, so
// this also pins its next hop.
func TestCandidateTable(t *testing.T) {
	wrap := validConfig()
	wrap.Planes, wrap.PerPlane, wrap.PlaneWrap = 4, 3, true
	isls := validConfig()
	isls.ExtraISLs = []ISL{{A: 0, B: 6}, {A: 2, B: 11}}
	isls.DisabledISLs = []ISL{{A: 0, B: 1}, {A: 4, B: 8}}
	for _, c := range []struct {
		name string
		cfg  Config
	}{
		{"grid", validConfig()},
		{"default", Default(PolicyStatic, 10)},
		{"plane-wrap", wrap},
		{"extra-and-disabled", isls},
	} {
		t.Run(c.name, func(t *testing.T) {
			topo := mustTopology(t, c.cfg)
			n := topo.Nodes()
			const inf = 1 << 30
			d := make([]int, n*n)
			for u := range d {
				d[u] = inf
			}
			for u := 0; u < n; u++ {
				d[u*n+u] = 0
				for _, v := range topo.nbrs[u] {
					d[u*n+int(v)] = 1
				}
			}
			for k := 0; k < n; k++ {
				for u := 0; u < n; u++ {
					for v := 0; v < n; v++ {
						d[u*n+v] = min(d[u*n+v], d[u*n+k]+d[k*n+v])
					}
				}
			}
			for u := 0; u < n; u++ {
				for dst := 0; dst < n; dst++ {
					if topo.Dist(u, dst) != d[u*n+dst] {
						t.Fatalf("Dist(%d,%d)=%d, brute force %d", u, dst, topo.Dist(u, dst), d[u*n+dst])
					}
					var want []int32
					for ai, v := range topo.nbrs[u] {
						if d[int(v)*n+dst] == d[u*n+dst]-1 {
							want = append(want, int32(ai))
						}
					}
					got := topo.candidates(int32(u), int32(dst))
					if fmt.Sprint(got) != fmt.Sprint(want) {
						t.Fatalf("candidates(%d,%d)=%v, brute force %v", u, dst, got, want)
					}
					if (u == dst) != (len(got) == 0) {
						t.Fatalf("candidates(%d,%d)=%v: want empty exactly when u == dst", u, dst, got)
					}
				}
			}
		})
	}
}

func TestSharedTopologyCache(t *testing.T) {
	a := validConfig()
	b := validConfig()
	// Non-structural knobs must not split the cache.
	b.ISLRatePerMin = 999
	b.Policy = PolicyQLearning
	b.QueueCap = 1
	ta, err := sharedTopology(a)
	if err != nil {
		t.Fatal(err)
	}
	tb, err := sharedTopology(b)
	if err != nil {
		t.Fatal(err)
	}
	if ta != tb {
		t.Fatal("structurally identical configs built distinct topologies")
	}
	c := validConfig()
	c.PlaneWrap = true
	tc, err := sharedTopology(c)
	if err != nil {
		t.Fatal(err)
	}
	if tc == ta {
		t.Fatal("structurally different configs shared a topology")
	}
}

func TestFirstUnreachable(t *testing.T) {
	if got := firstUnreachable(nil); got != -1 {
		t.Fatalf("empty graph: %d", got)
	}
	// 0-1 connected, 2 isolated.
	nbrs := [][]int32{{1}, {0}, {}}
	if got := firstUnreachable(nbrs); got != 2 {
		t.Fatalf("isolated node: %d, want 2", got)
	}
	nbrs = [][]int32{{1}, {0, 2}, {1}}
	if got := firstUnreachable(nbrs); got != -1 {
		t.Fatalf("connected path: %d, want -1", got)
	}
}

// Nodes returns the node count.
func (t *Topology) Nodes() int { return t.n }

// Degree returns the neighbor count of a node.
func (t *Topology) Degree(u int) int { return len(t.nbrs[u]) }
