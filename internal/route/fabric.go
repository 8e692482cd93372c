package route

import (
	"fmt"

	"satqos/internal/crosslink"
	"satqos/internal/des"
	"satqos/internal/obs"
	"satqos/internal/stats"
)

// Stats counts fabric activity. Protocol packets (handed in by a
// crosslink Network) and background cross-traffic share the queues and
// the counters; Background tallies the latter separately. The counters
// obey the conservation invariant
//
//	Injected == Delivered + DroppedQueue + DroppedLoss + DroppedFailSilent + InFlight
//
// at every instant (see CheckInvariant); at quiescence InFlight is zero.
type Stats struct {
	// Injected counts packets that entered the fabric: every Route call
	// plus every background arrival that fired.
	Injected int
	// Background is the subset of Injected owed to cross-traffic.
	Background int
	// Delivered counts packets that reached their destination node.
	Delivered int
	// DroppedQueue counts packets dropped at a full egress FIFO.
	DroppedQueue int
	// DroppedLoss counts packets lost to a per-hop loss draw.
	DroppedLoss int
	// DroppedFailSilent counts packets swallowed by a fail-silent node —
	// at injection, at a relay, or at the destination.
	DroppedFailSilent int
	// InFlight is the number of packets currently queued or in transit.
	InFlight int
	// HopsSum accumulates the ISL hop count of delivered packets;
	// MaxHops is the largest single-packet hop count (bounded by the
	// topology diameter — the no-forwarding-loop invariant).
	HopsSum int
	MaxHops int
	// QueueDelaySum accumulates the total queue wait (minutes) of
	// delivered packets.
	QueueDelaySum float64
}

// CheckInvariant verifies the packet-conservation identity. A violation
// is a bookkeeping bug in this package, not a runtime condition.
func (s Stats) CheckInvariant() error {
	if got := s.Delivered + s.DroppedQueue + s.DroppedLoss + s.DroppedFailSilent + s.InFlight; got != s.Injected {
		return fmt.Errorf("route: conservation violation: Injected=%d but Delivered+DroppedQueue+DroppedLoss+DroppedFailSilent+InFlight=%d (%+v)",
			s.Injected, got, s)
	}
	return nil
}

// packet is one unit of fabric traffic: a protocol message's routed
// journey (carrying its crosslink envelope handle) or a background
// packet (zero handle). Packets are pooled; the epoch fence makes an
// event that outlives a Reset recycle its packet without touching the
// fresh epoch's books.
type packet struct {
	f *Fabric
	h crosslink.RouteHandle
	// dst is the destination node; cur the node the packet is queued at
	// (or was injected at); via the next hop while in transit; txFrom
	// and txAI identify the transmitting node and its chosen neighbor
	// index for policy feedback.
	dst, cur, via int32
	txFrom, txAI  int32
	hops          int
	enq, qdelay   float64
	epoch         uint64
	background    bool
}

// Event labels (constant so the hot path never builds strings).
const (
	labelTx     = "route:tx"
	labelArrive = "route:arrive"
	labelLocal  = "route:local"
	labelBg     = "route:background"
)

// Fabric is a routed ISL network bound to a discrete-event simulation:
// the topology's per-node FIFO egress queues, one transmitter per node
// (transmission time 1/ISLRatePerMin), per-hop propagation delay, a
// forwarding Policy, and optional Poisson background cross-traffic.
//
// A Fabric implements crosslink.Router and may back several Networks at
// once — the episode engine attaches one fabric to both the ISL and the
// ground network, so protocol and downlink traffic share queues. All
// stochastic choices draw from the fabric's RNG in deterministic event
// order; a fabric is single-goroutine like the simulation it rides.
type Fabric struct {
	sim  *des.Simulation
	rng  *stats.RNG
	cfg  Config
	topo *Topology
	pol  Policy
	// txLane carries transmission completions (delay 1/ISLRatePerMin)
	// and propLane hop arrivals and same-node deliveries (delay
	// PropDelayMin): both delays are constant, so these events skip the
	// simulation's heap.
	txLane, propLane *des.Lane
	gateway          int32
	// ring holds every node's egress FIFO: node u's queue occupies
	// ring[u*slots:(u+1)*slots], qlen[u] packets long with its oldest at
	// offset qhead[u], wrapping around the end of its slots. Dequeue
	// moves no memory. slots starts at min(QueueCap, initialSlots) and
	// doubles, up to QueueCap, whenever a queue fills its slots, so a
	// generous QueueCap costs memory only for the depth queues reach.
	ring        []*packet
	qhead, qlen []int
	slots       int
	busy        []bool
	// silent counts fail-silent marks per node: both backing networks
	// mirror their transitions here, so a node is silent while any
	// overlapping mark is up.
	silent []int16
	stats  Stats
	// bgUntil ends the current background-arrival window (ArmBackground).
	bgUntil float64
	// epoch fences packet events across Reset, mirroring crosslink.
	epoch uint64
	free  []*packet
	qhist *obs.LocalHistogram
}

// initialSlots is the per-node ring size a fabric starts with (the
// Default queue capacity), when its QueueCap is at least that large.
const initialSlots = 16

// NewFabric builds a fabric for the configuration on the given
// simulation. The topology (with its all-pairs hop tables) is shared
// through the package cache; queues, policy state, and RNG are owned by
// this fabric — per shard, which is what keeps routed evaluation
// deterministic at any worker count.
func NewFabric(sim *des.Simulation, cfg Config, rng *stats.RNG) (*Fabric, error) {
	if sim == nil {
		return nil, fmt.Errorf("route: simulation is required")
	}
	if rng == nil {
		return nil, fmt.Errorf("route: RNG is required")
	}
	f := &Fabric{sim: sim, txLane: sim.NewLane(0), propLane: sim.NewLane(0)}
	if err := f.Rebind(cfg, rng); err != nil {
		return nil, err
	}
	return f, nil
}

// Rebind points the fabric at a new configuration and RNG, discarding
// all queue and policy state — the pooled-runner hook, mirroring
// crosslink.Reconfigure. The simulation must hold no pending fabric
// events (drain or Reset it first): they were timed under the old
// configuration's delays.
func (f *Fabric) Rebind(cfg Config, rng *stats.RNG) error {
	if rng == nil {
		return fmt.Errorf("route: RNG is required")
	}
	// Validate here, not just inside NewTopology: a cached topology would
	// otherwise let a config with bad non-structural knobs (zero capacity,
	// zero queue) slip through.
	if err := cfg.Validate(); err != nil {
		return err
	}
	topo, err := sharedTopology(cfg)
	if err != nil {
		return err
	}
	// Recycle queued packets under the current ring layout before the
	// new node count and queue capacity reshape it.
	f.clearQueues()
	f.rng = rng
	f.cfg = cfg
	f.topo = topo
	f.pol = newPolicy(cfg, topo)
	f.txLane.SetDelay(1 / cfg.ISLRatePerMin)
	f.propLane.SetDelay(cfg.PropDelayMin)
	f.gateway = int32(cfg.Gateway())
	n := topo.n
	f.slots = min(cfg.QueueCap, initialSlots)
	f.ring = resize(f.ring, n*f.slots)
	f.qhead = resize(f.qhead, n)
	f.qlen = resize(f.qlen, n)
	f.busy = resize(f.busy, n)
	f.silent = resize(f.silent, n)
	f.Reset()
	return nil
}

// resize returns s with length n, reusing its backing array when it is
// large enough.
func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// Reset clears the queues (recycling their packets), transmitter and
// fail-silence state, and counters, and fences off the previous
// epoch's in-flight events — the per-episode reset. Learned policy
// state deliberately survives: an adaptive policy keeps improving
// across a shard's episodes, and because episode shards are a pure
// function of episode index, so does determinism.
func (f *Fabric) Reset() {
	f.clearQueues()
	clear(f.busy)
	clear(f.silent)
	f.stats = Stats{}
	f.epoch++
}

// clearQueues empties every egress FIFO under the current ring layout,
// recycling the queued packets.
func (f *Fabric) clearQueues() {
	for u, n := range f.qlen {
		for j := 0; j < n; j++ {
			i := f.slot(u, j)
			f.recycle(f.ring[i])
			f.ring[i] = nil
		}
		f.qhead[u], f.qlen[u] = 0, 0
	}
}

// slot returns the ring index of the j-th oldest packet of node u's
// FIFO (or of the free slot after it, for j == qlen[u]).
func (f *Fabric) slot(u, j int) int {
	if j += f.qhead[u]; j >= f.slots {
		j -= f.slots
	}
	return u*f.slots + j
}

// growRing doubles every node's ring, up to QueueCap slots, moving each
// FIFO to the front of its new slots in order.
func (f *Fabric) growRing() {
	slots := min(2*f.slots, f.cfg.QueueCap)
	ring := make([]*packet, len(f.qlen)*slots)
	for u, n := range f.qlen {
		for j := 0; j < n; j++ {
			ring[u*slots+j] = f.ring[f.slot(u, j)]
		}
		f.qhead[u] = 0
	}
	f.ring, f.slots = ring, slots
}

// Topology returns the shared (read-only) topology.
func (f *Fabric) Topology() *Topology { return f.topo }

// Stats returns a snapshot of the fabric counters.
func (f *Fabric) Stats() Stats { return f.stats }

// SetQueueDelayHistogram installs a per-shard histogram observing each
// delivered packet's total queue wait (minutes). Nil disables it. Like
// the crosslink delay histogram, it survives Reset.
func (f *Fabric) SetQueueDelayHistogram(h *obs.LocalHistogram) { f.qhist = h }

// physNode maps a crosslink endpoint onto the grid: the ground station
// lives at the gateway satellite (the downlink is folded into arrival
// there), and satellite IDs spread over the nodes modulo the grid size
// — deterministic, and it scatters a covering set across planes so
// protocol traffic genuinely crosses the constellation.
func (f *Fabric) physNode(id crosslink.NodeID) int32 {
	if id == crosslink.GroundStation {
		return f.gateway
	}
	n := f.topo.n
	m := int(id) % n
	if m < 0 {
		m += n
	}
	return int32(m)
}

// backlog is the queued-plus-transmitting packet count at a node — the
// congestion signal the probabilistic policy weighs.
func (f *Fabric) backlog(v int32) int {
	b := f.qlen[v]
	if f.busy[v] {
		b++
	}
	return b
}

// NodeFailSilent implements crosslink.Router: transitions mirrored from
// a backing network raise or lower the node's silence count. Counted,
// not boolean, because two networks may mark the same satellite.
func (f *Fabric) NodeFailSilent(id crosslink.NodeID, silent bool) {
	node := f.physNode(id)
	if silent {
		f.silent[node]++
	} else if f.silent[node] > 0 {
		f.silent[node]--
	}
}

// newPacket draws a packet from the freelist or allocates one.
func (f *Fabric) newPacket() *packet {
	var p *packet
	if m := len(f.free); m > 0 {
		p = f.free[m-1]
		f.free[m-1] = nil
		f.free = f.free[:m-1]
	} else {
		p = &packet{}
	}
	p.f = f
	p.epoch = f.epoch
	p.hops = 0
	p.qdelay = 0
	p.background = false
	p.h = crosslink.RouteHandle{}
	return p
}

// recycle returns a packet to the freelist, dropping its envelope
// reference first.
func (f *Fabric) recycle(p *packet) {
	p.h = crosslink.RouteHandle{}
	f.free = append(f.free, p)
}

// Route implements crosslink.Router: inject one protocol message at its
// source node and forward it hop by hop toward its destination. The
// crosslink envelope is completed exactly once — on delivery or on the
// first drop.
func (f *Fabric) Route(h crosslink.RouteHandle, from, to crosslink.NodeID, kind string) {
	now := f.sim.Now()
	f.stats.Injected++
	f.stats.InFlight++
	p := f.newPacket()
	p.h = h
	p.dst = f.physNode(to)
	src := f.physNode(from)
	if src == p.dst {
		// Same node (e.g. the gateway alerting the ground): no ISL hop,
		// just the downlink propagation. Scheduled, not synchronous, so
		// handlers never re-enter Send.
		p.via = p.dst
		f.sim.ScheduleLane(f.propLane, labelLocal, localEvent, p)
		return
	}
	f.enqueue(p, src, now)
}

// ArmBackground starts this episode's background cross-traffic over
// [origin, until): a Poisson process at the configured load, each
// arrival's source and destination uniform over distinct nodes. Only the
// first exponential gap is drawn here; each arrival draws its own
// endpoints and the next gap when it fires, so at most one background
// arrival is pending at a time. Call once per episode after Reset.
func (f *Fabric) ArmBackground(origin, until float64) {
	load := f.cfg.TrafficLoadPerMin
	if load <= 0 || until <= origin || f.topo.n < 2 {
		return
	}
	f.bgUntil = until
	if at := origin + f.rng.Exp(load); at < until {
		f.sim.ScheduleCallAt(at, labelBg, injectEvent, f.newBackgroundPacket())
	}
}

// newBackgroundPacket draws a pooled packet for the next background
// arrival; its endpoints are drawn when it is injected.
func (f *Fabric) newBackgroundPacket() *packet {
	p := f.newPacket()
	p.background = true
	return p
}

// inject admits a background arrival at its uniformly drawn source and
// schedules the next arrival one exponential gap later, unless that
// falls past the window.
func (f *Fabric) inject(now float64, p *packet) {
	n := f.topo.n
	src := f.rng.Intn(n)
	dst := f.rng.Intn(n - 1)
	if dst >= src {
		dst++
	}
	p.dst = int32(dst)
	if gap := f.rng.Exp(f.cfg.TrafficLoadPerMin); now+gap < f.bgUntil {
		f.sim.ScheduleCall(gap, labelBg, injectEvent, f.newBackgroundPacket())
	}
	f.stats.Injected++
	f.stats.Background++
	f.stats.InFlight++
	f.enqueue(p, int32(src), now)
}

// enqueue places a packet on node's egress FIFO (dropping it if the
// node is fail-silent or the queue is full) and starts the transmitter
// when idle.
func (f *Fabric) enqueue(p *packet, node int32, now float64) {
	if f.silent[node] > 0 {
		f.drop(p, now, crosslink.DropFailSilent)
		return
	}
	u := int(node)
	if f.qlen[u] >= f.cfg.QueueCap {
		f.drop(p, now, crosslink.DropQueue)
		return
	}
	if f.qlen[u] == f.slots {
		f.growRing()
	}
	p.cur = node
	p.enq = now
	f.ring[f.slot(u, f.qlen[u])] = p
	f.qlen[u]++
	if !f.busy[node] {
		f.startTx(node, now)
	}
}

// startTx pops the head of node's queue, lets the policy pick the next
// hop among the strictly-closer neighbors, and schedules the
// transmission completion.
func (f *Fabric) startTx(node int32, now float64) {
	u := int(node)
	i := f.slot(u, 0)
	p := f.ring[i]
	f.ring[i] = nil
	if f.qhead[u]++; f.qhead[u] == f.slots {
		f.qhead[u] = 0
	}
	f.qlen[u]--
	p.qdelay += now - p.enq
	cands := f.topo.candidates(node, p.dst)
	ai := cands[f.pol.Choose(f, node, p.dst, cands)]
	p.txFrom = node
	p.txAI = ai
	p.via = f.topo.nbrs[node][ai]
	f.busy[node] = true
	f.sim.ScheduleLane(f.txLane, labelTx, txDoneEvent, p)
}

// txDone finishes a transmission: the packet either dies to a per-hop
// loss draw or propagates toward its next hop, and the transmitter
// serves the next queued packet. Protocol packets read the loss
// probability from their crosslink envelope at this instant, so
// scripted loss bursts apply per hop while they are in effect.
func (f *Fabric) txDone(now float64, p *packet) {
	node := p.txFrom
	lp := 0.0
	if !p.background {
		lp = p.h.LossProb()
	}
	if lp > 0 && f.rng.Float64() < lp {
		f.drop(p, now, crosslink.DropLoss)
	} else {
		f.sim.ScheduleLane(f.propLane, labelArrive, arriveEvent, p)
	}
	f.busy[node] = false
	if f.qlen[node] > 0 {
		f.startTx(node, now)
	}
}

// arrive lands a packet on its next hop: feed the measured hop delay
// back to the policy, then deliver, drop (fail-silent relay), or
// re-enqueue for the next hop.
func (f *Fabric) arrive(now float64, p *packet) {
	f.pol.Feedback(f, p.txFrom, p.dst, p.txAI, now-p.enq)
	p.hops++
	v := p.via
	if f.silent[v] > 0 {
		f.drop(p, now, crosslink.DropFailSilent)
		return
	}
	if v == p.dst {
		f.complete(now, p)
		return
	}
	f.enqueue(p, v, now)
}

// complete delivers a packet at its destination node.
func (f *Fabric) complete(now float64, p *packet) {
	f.stats.InFlight--
	f.stats.Delivered++
	f.stats.HopsSum += p.hops
	if p.hops > f.stats.MaxHops {
		f.stats.MaxHops = p.hops
	}
	f.stats.QueueDelaySum += p.qdelay
	f.qhist.Observe(p.qdelay)
	if !p.background {
		p.h.Complete(now, p.hops, 0)
	}
	f.recycle(p)
}

// drop accounts a packet to its drop cause (crosslink cause codes) and
// completes its envelope when it carries one.
func (f *Fabric) drop(p *packet, now float64, cause int) {
	f.stats.InFlight--
	switch cause {
	case crosslink.DropQueue:
		f.stats.DroppedQueue++
	case crosslink.DropLoss:
		f.stats.DroppedLoss++
	default:
		f.stats.DroppedFailSilent++
	}
	if !p.background {
		p.h.Complete(now, p.hops, cause)
	}
	f.recycle(p)
}

// Package-level des.ArgHandler targets (no per-packet closures). Each
// applies the epoch fence: an event that outlives a Reset recycles its
// packet and touches nothing else.
func txDoneEvent(now float64, arg any) {
	p := arg.(*packet)
	if p.epoch != p.f.epoch {
		p.f.recycle(p)
		return
	}
	p.f.txDone(now, p)
}

func arriveEvent(now float64, arg any) {
	p := arg.(*packet)
	if p.epoch != p.f.epoch {
		p.f.recycle(p)
		return
	}
	p.f.arrive(now, p)
}

func localEvent(now float64, arg any) {
	p := arg.(*packet)
	if p.epoch != p.f.epoch {
		p.f.recycle(p)
		return
	}
	p.f.complete(now, p)
}

func injectEvent(now float64, arg any) {
	p := arg.(*packet)
	f := p.f
	if p.epoch != f.epoch {
		f.recycle(p)
		return
	}
	f.inject(now, p)
}
