package route

import (
	"fmt"
	"sync"
)

// Topology is the immutable ISL graph of a configuration: adjacency
// lists in deterministic construction order, all-pairs BFS hop
// distances, and the routing-candidate table every policy forwards by.
// Topologies are structural — they depend only on the graph-shaping
// fields of the Config, not on rates or policies — and are shared
// read-only between fabrics (and therefore shards) through an internal
// cache.
type Topology struct {
	n, planes, perPlane int
	// nbrs[u] lists u's neighbors; the order is fixed by construction
	// (ring first, then cross-plane, then extra ISLs), which makes every
	// policy's candidate enumeration deterministic.
	nbrs   [][]int32
	maxDeg int
	// dist[u*n+v] is the BFS hop distance. It is complete: Validate
	// rejects disconnected graphs.
	dist []uint16
	// cands[candOff[u*n+v]:candOff[u*n+v+1]] are the indices into
	// nbrs[u] of u's strictly closer neighbors toward v, in neighbor
	// order (empty when u == v): the routing-candidate table.
	candOff []int32
	cands   []int32
	diam    int
}

// Diameter returns the longest shortest path in hops — the bound the
// no-forwarding-loop invariant checks against, exact because every
// policy forwards only along strictly distance-decreasing links.
func (t *Topology) Diameter() int { return t.diam }

// Dist returns the hop distance between two nodes.
func (t *Topology) Dist(u, v int) int { return int(t.dist[u*t.n+v]) }

// buildAdjacency constructs the adjacency lists of the configured
// graph: intra-plane rings, cross-plane chains (optionally wrapped into
// a ring), extra ISLs, minus the disabled ones. Every edge is added at
// most once, in a deterministic order.
func buildAdjacency(c Config) [][]int32 {
	n, pp := c.Nodes(), c.PerPlane
	type edge [2]int
	norm := func(a, b int) edge {
		if a > b {
			a, b = b, a
		}
		return edge{a, b}
	}
	disabled := make(map[edge]bool, len(c.DisabledISLs))
	for _, l := range c.DisabledISLs {
		disabled[norm(l.A, l.B)] = true
	}
	seen := make(map[edge]bool, 2*n)
	edges := make([]edge, 0, 2*n)
	add := func(a, b int) {
		if a == b {
			return
		}
		e := norm(a, b)
		if seen[e] || disabled[e] {
			return
		}
		seen[e] = true
		edges = append(edges, e)
	}
	for p := 0; p < c.Planes; p++ {
		for j := 0; j < pp; j++ {
			add(p*pp+j, p*pp+(j+1)%pp)
		}
	}
	if !c.NoCrossPlane {
		for p := 0; p+1 < c.Planes; p++ {
			for j := 0; j < pp; j++ {
				add(p*pp+j, (p+1)*pp+j)
			}
		}
		if c.PlaneWrap && c.Planes > 2 {
			for j := 0; j < pp; j++ {
				add((c.Planes-1)*pp+j, j)
			}
		}
	}
	for _, l := range c.ExtraISLs {
		add(l.A, l.B)
	}
	nbrs := make([][]int32, n)
	for _, e := range edges {
		nbrs[e[0]] = append(nbrs[e[0]], int32(e[1]))
		nbrs[e[1]] = append(nbrs[e[1]], int32(e[0]))
	}
	return nbrs
}

// firstUnreachable BFS-walks the graph from node 0 and returns the
// lowest unreached node, or -1 when the graph is connected. This is the
// cheap O(N+E) connectivity check Validate (and the fuzz target behind
// it) relies on; the quadratic hop tables are built only at fabric
// construction.
func firstUnreachable(nbrs [][]int32) int {
	n := len(nbrs)
	if n == 0 {
		return -1
	}
	visited := make([]bool, n)
	queue := make([]int32, 0, n)
	visited[0] = true
	queue = append(queue, 0)
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		for _, v := range nbrs[u] {
			if !visited[v] {
				visited[v] = true
				queue = append(queue, v)
			}
		}
	}
	for i, ok := range visited {
		if !ok {
			return i
		}
	}
	return -1
}

// NewTopology validates the configuration and builds its graph with the
// all-pairs hop distances and the routing-candidate table. Prefer
// sharedTopology inside the package — it memoizes by structural key —
// but the constructor is exported so tests can reason about diameters
// and distances directly.
func NewTopology(c Config) (*Topology, error) {
	if err := c.Validate(); err != nil {
		return nil, err
	}
	t := &Topology{
		n:        c.Nodes(),
		planes:   c.Planes,
		perPlane: c.PerPlane,
		nbrs:     buildAdjacency(c),
	}
	n := t.n
	for _, nb := range t.nbrs {
		if len(nb) > t.maxDeg {
			t.maxDeg = len(nb)
		}
	}
	t.dist = make([]uint16, n*n)
	queue := make([]int32, 0, n)
	const unset = ^uint16(0)
	for src := 0; src < n; src++ {
		row := t.dist[src*n : (src+1)*n]
		for i := range row {
			row[i] = unset
		}
		row[src] = 0
		queue = append(queue[:0], int32(src))
		for len(queue) > 0 {
			u := queue[0]
			queue = queue[1:]
			du := row[u]
			for _, v := range t.nbrs[u] {
				if row[v] == unset {
					row[v] = du + 1
					queue = append(queue, v)
				}
			}
		}
		for _, d := range row {
			// Validate guarantees connectivity, so unset here is a bug.
			if d == unset {
				return nil, fmt.Errorf("route: internal: node unreachable after connectivity check")
			}
			if int(d) > t.diam {
				t.diam = int(d)
			}
		}
	}
	t.candOff = make([]int32, n*n+1)
	t.cands = make([]int32, 0, n*n)
	for u := 0; u < n; u++ {
		for dst := 0; dst < n; dst++ {
			if du := t.dist[u*n+dst]; du > 0 {
				for ai, v := range t.nbrs[u] {
					if t.dist[int(v)*n+dst] == du-1 {
						t.cands = append(t.cands, int32(ai))
					}
				}
			}
			t.candOff[u*n+dst+1] = int32(len(t.cands))
		}
	}
	return t, nil
}

// candidates returns the indices (into nbrs[u]) of u's strictly
// distance-decreasing neighbors toward dst, in neighbor order.
// Restricting every policy to this candidate set makes forwarding
// loop-free by construction: each hop reduces the BFS distance by
// exactly one, so a packet takes precisely dist(src, dst) hops —
// bounded by the graph diameter. The slice aliases the shared table and
// must not be modified.
func (t *Topology) candidates(u, dst int32) []int32 {
	i := int(u)*t.n + int(dst)
	return t.cands[t.candOff[i]:t.candOff[i+1]]
}

// topoCache shares structural topologies (and their quadratic hop
// tables) across fabrics: every shard of a routed evaluation keys the
// same Config shape and reads the same immutable *Topology.
var (
	topoMu    sync.Mutex
	topoCache = map[string]*Topology{}
)

// topoKey serializes the graph-shaping fields only — rates, queue
// capacities, gateways, and policy knobs do not change the graph.
func topoKey(c Config) string {
	return fmt.Sprintf("%dx%d nc=%t wrap=%t extra=%v disabled=%v",
		c.Planes, c.PerPlane, c.NoCrossPlane, c.PlaneWrap, c.ExtraISLs, c.DisabledISLs)
}

// sharedTopology returns the memoized topology for the configuration,
// building (and caching) it on first use.
func sharedTopology(c Config) (*Topology, error) {
	key := topoKey(c)
	topoMu.Lock()
	t, ok := topoCache[key]
	topoMu.Unlock()
	if ok {
		return t, nil
	}
	t, err := NewTopology(c)
	if err != nil {
		return nil, err
	}
	topoMu.Lock()
	// A concurrent builder may have won the race; keep the first entry
	// so every fabric shares one table.
	if prev, ok := topoCache[key]; ok {
		t = prev
	} else {
		topoCache[key] = t
	}
	topoMu.Unlock()
	return t, nil
}
