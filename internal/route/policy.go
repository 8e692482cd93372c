package route

// Policy is a local forwarding rule: given a packet at node u headed
// for dst, pick one of the candidate next hops. Candidates are always
// the strictly distance-decreasing neighbors (see Topology.candidates),
// so every policy is loop-free and differs only in how it spreads load
// across equal-progress links.
//
// Policies are per-fabric and therefore per-shard: stochastic choices
// draw from the owning fabric's RNG and learned state (Q-tables) never
// crosses shard boundaries, which is what keeps routed evaluations
// bit-identical at any worker count.
type Policy interface {
	Name() string
	// Choose returns a position within cands, the candidate next-hop
	// indices into the neighbor list of u. cands aliases the shared
	// topology's table and must not be modified.
	Choose(f *Fabric, u, dst int32, cands []int32) int
	// Feedback reports the measured per-hop delay (queue wait +
	// transmission + propagation) after the packet reached neighbor
	// ai of u on its way to dst.
	Feedback(f *Fabric, u, dst int32, ai int32, hopDelay float64)
	// Reset discards learned state. Called on Rebind (new parameters);
	// NOT called between episodes — adaptive policies keep learning
	// across a shard's episode range by design.
	Reset()
}

// Q-learning defaults applied when the Config leaves the knobs zero.
const (
	defaultEpsilon = 0.1
	defaultAlpha   = 0.25
)

// newPolicy builds the configured policy for a topology.
func newPolicy(cfg Config, topo *Topology) Policy {
	switch cfg.Policy {
	case PolicyProbabilistic:
		return &probabilisticPolicy{}
	case PolicyQLearning:
		eps, alpha := cfg.Epsilon, cfg.Alpha
		if eps == 0 {
			eps = defaultEpsilon
		}
		if alpha == 0 {
			alpha = defaultAlpha
		}
		return &qlearningPolicy{
			topo:  topo,
			eps:   eps,
			alpha: alpha,
			q:     make([][]float64, topo.n),
		}
	default:
		return staticPolicy{}
	}
}

// staticPolicy is shortest-path forwarding from the precomputed
// candidate table: always the first strictly-closer neighbor, with no
// RNG draw.
type staticPolicy struct{}

func (staticPolicy) Name() string                                       { return PolicyStatic }
func (staticPolicy) Choose(_ *Fabric, _, _ int32, _ []int32) int        { return 0 }
func (staticPolicy) Feedback(_ *Fabric, _, _ int32, _ int32, _ float64) {}
func (staticPolicy) Reset()                                             {}

// probabilisticPolicy is load-aware local forwarding in the spirit of
// Distributed Probabilistic Congestion Control: each equal-progress
// next hop is drawn with probability proportional to 1/(1+backlog),
// where backlog is the neighbor's queued-plus-transmitting packet
// count. Congested relays are avoided without any signaling beyond the
// queue lengths the fabric already knows.
type probabilisticPolicy struct{}

func (probabilisticPolicy) Name() string { return PolicyProbabilistic }

func (probabilisticPolicy) Choose(f *Fabric, u, dst int32, cands []int32) int {
	if len(cands) == 1 {
		// No RNG draw for forced moves: keeps the random stream short
		// and identical across policies on degenerate topologies.
		return 0
	}
	total := 0.0
	for _, ai := range cands {
		total += 1 / float64(1+f.backlog(f.topo.nbrs[u][ai]))
	}
	r := f.rng.Float64() * total
	for i, ai := range cands {
		r -= 1 / float64(1+f.backlog(f.topo.nbrs[u][ai]))
		if r < 0 {
			return i
		}
	}
	return len(cands) - 1
}

func (probabilisticPolicy) Feedback(_ *Fabric, _, _ int32, _ int32, _ float64) {}
func (probabilisticPolicy) Reset()                                             {}

// qlearningPolicy is distributed adaptive routing after Boyan–Littman
// Q-routing: each node estimates Q(dst, neighbor) — the delay to dst
// through that neighbor — explores ε-greedily among equal-progress
// hops, and updates from the measured hop delay plus the neighbor's
// own best estimate.
type qlearningPolicy struct {
	topo       *Topology
	eps, alpha float64
	// q[u] is node u's table, indexed dst*maxDeg+ai; allocated lazily
	// the first time u forwards and seeded optimistically from the hop
	// distance so unexplored links start attractive.
	q [][]float64
}

func (p *qlearningPolicy) Name() string { return PolicyQLearning }

// table returns node u's Q-table, initializing it on first use to the
// congestion-free delay estimate (1+dist(v,dst)) hops of service time.
func (p *qlearningPolicy) table(f *Fabric, u int32) []float64 {
	if t := p.q[u]; t != nil {
		return t
	}
	t := make([]float64, p.topo.n*p.topo.maxDeg)
	hop := f.txLane.Delay() + f.propLane.Delay()
	for dst := 0; dst < p.topo.n; dst++ {
		for ai, v := range p.topo.nbrs[u] {
			t[dst*p.topo.maxDeg+ai] = float64(1+p.topo.Dist(int(v), dst)) * hop
		}
	}
	p.q[u] = t
	return t
}

func (p *qlearningPolicy) Choose(f *Fabric, u, dst int32, cands []int32) int {
	if len(cands) == 1 {
		return 0
	}
	if f.rng.Float64() < p.eps {
		return f.rng.Intn(len(cands))
	}
	t := p.table(f, u)
	best, bestQ := 0, t[int(dst)*p.topo.maxDeg+int(cands[0])]
	for i := 1; i < len(cands); i++ {
		if q := t[int(dst)*p.topo.maxDeg+int(cands[i])]; q < bestQ {
			best, bestQ = i, q
		}
	}
	return best
}

func (p *qlearningPolicy) Feedback(f *Fabric, u, dst int32, ai int32, hopDelay float64) {
	v := p.topo.nbrs[u][ai]
	remain := 0.0
	if v != dst {
		// The neighbor's own best estimate toward dst, over its
		// equal-progress candidates.
		vt := p.table(f, v)
		cands := p.topo.candidates(v, dst)
		remain = vt[int(dst)*p.topo.maxDeg+int(cands[0])]
		for _, b := range cands[1:] {
			if q := vt[int(dst)*p.topo.maxDeg+int(b)]; q < remain {
				remain = q
			}
		}
	}
	t := p.table(f, u)
	idx := int(dst)*p.topo.maxDeg + int(ai)
	t[idx] += p.alpha * (hopDelay + remain - t[idx])
}

func (p *qlearningPolicy) Reset() {
	for i := range p.q {
		p.q[i] = nil
	}
}
