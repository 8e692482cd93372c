// Package crosslink models the inter-satellite communication links the
// OAQ protocol coordinates over: point-to-point messages between
// neighboring satellites (and down to the ground station) with bounded
// delivery delay δ, optional message loss, and fail-silent nodes.
//
// The paper's protocol analysis depends on exactly one link property —
// the maximum inter-satellite message-delivery delay δ, which appears in
// the TC-2 local threshold τ − (nδ + T_g) and in the wait threshold
// τ − (n−1)δ — so the model is deliberately simple: each message is
// delivered after a uniform delay in (0, δ], unless dropped or addressed
// to a fail-silent node.
//
// The loss probability can be overridden at runtime (SetLossProb), which
// is the hook the fault-injection engine (package fault) uses to script
// time-windowed loss bursts; Reset restores the configured base value.
//
// Message envelopes are always pooled, so the steady-state send path
// allocates nothing. Recycling never changes behaviour: an epoch fence
// keeps a dead Reset generation's envelope from delivering, and
// handlers receive Message by value.
package crosslink

import (
	"fmt"
	"math"

	"satqos/internal/des"
	"satqos/internal/obs"
	"satqos/internal/obs/trace"
	"satqos/internal/stats"
)

// NodeID identifies a network endpoint (a satellite or the ground
// station).
type NodeID int

// GroundStation is the conventional ID of the ground segment.
const GroundStation NodeID = -1

// Message is one crosslink datagram.
type Message struct {
	// From and To are the endpoints.
	From, To NodeID
	// Kind tags the protocol message type (e.g. "coordination-request").
	Kind string
	// Payload carries protocol data; the network does not inspect it.
	Payload any
	// SentAt is the simulation time the message entered the link.
	SentAt float64
}

// Handler consumes a delivered message at simulation time now.
type Handler func(now float64, msg Message)

// Stats counts network activity. The counters obey the accounting
// invariant
//
//	Sent == Delivered + DroppedLoss + DroppedFailSilent + DroppedQueue + InFlight
//
// at every instant (see CheckInvariant); at quiescence InFlight is zero
// and every emitted message is accounted for exactly once — whether it
// crossed the ideal delay-δ channel in one hop or a routed ISL fabric
// in many. Multi-hop transit never multiplies counts: a message is Sent
// once, stays a single InFlight unit across every hop, and lands in
// exactly one terminal counter when its RouteHandle completes.
type Stats struct {
	// Sent counts messages actually emitted into the link. Sends from a
	// fail-silent node are documented as "never emitted" and do NOT count
	// here — they appear in SuppressedFailSilent instead.
	Sent      int
	Delivered int
	// DroppedLoss counts messages lost to the link-loss process (on the
	// ideal channel: one draw per message; routed: any hop's draw).
	DroppedLoss int
	// DroppedFailSilent counts emitted messages that disappeared at the
	// receiving side: addressed to a node that was fail-silent at send
	// time, that became fail-silent while the message was in flight, or
	// whose handler was unregistered by delivery time. On a routed
	// fabric this also covers packets swallowed by a fail-silent relay.
	DroppedFailSilent int
	// DroppedQueue counts routed messages dropped at a full egress FIFO.
	// Always zero on the ideal channel, which has no queues.
	DroppedQueue int
	// SuppressedFailSilent counts Send calls from a fail-silent sender —
	// never emitted, so they appear in no other counter.
	SuppressedFailSilent int
	// InFlight is the number of emitted messages scheduled but not yet
	// delivered or dropped.
	InFlight int
}

// CheckInvariant verifies the accounting identity
// Sent == Delivered + DroppedLoss + DroppedFailSilent + DroppedQueue + InFlight.
// A violation is a bookkeeping bug in this package, not a runtime
// condition; tests call this after every scenario.
func (s Stats) CheckInvariant() error {
	if got := s.Delivered + s.DroppedLoss + s.DroppedFailSilent + s.DroppedQueue + s.InFlight; got != s.Sent {
		return fmt.Errorf("crosslink: accounting violation: Sent=%d but Delivered+DroppedLoss+DroppedFailSilent+DroppedQueue+InFlight=%d (%+v)",
			s.Sent, got, s)
	}
	return nil
}

// Network is a crosslink fabric bound to a discrete-event simulation.
//
// Node state is kept in dense slices indexed by NodeID+1 (so the ground
// station's -1 maps to slot 0): the episode engines register the same
// small contiguous ID range every episode, and indexed reset-in-place
// buffers make Register/FailSilent/Send plain array accesses with no
// hashing and no steady-state allocation. Reset clears only the window
// of slots written since the previous Reset, so an episode that touches
// a few nodes of a long slice pays for those few.
type Network struct {
	sim          *des.Simulation
	rng          *stats.RNG
	delta        float64
	lossProb     float64
	baseLossProb float64
	// handlers and failSilent are indexed by slot (NodeID+1) and grown on
	// demand; Reset clears their [lo, hi) window in place, the slots
	// written since the last Reset (empty when lo == hi).
	handlers   []Handler
	failSilent []bool
	lo, hi     int
	stats      Stats
	delayHist  *obs.LocalHistogram
	// epoch fences delivery events across Reset: a message emitted before
	// a Reset must neither deliver nor touch the fresh epoch's books.
	epoch uint64
	// free recycles finished delivery envelopes; kindLabels memoizes the
	// per-kind event label so the hot path never rebuilds the string.
	free       []*delivery
	kindLabels []kindLabelEntry
	// tracer, when non-nil, records message-lifetime spans and drop
	// events (see SetTracer).
	tracer *trace.Recorder
	// router, when non-nil, replaces the ideal delay-δ channel: emitted
	// messages are handed to it as routed packets (see SetRouter).
	router Router
}

// Router is the pluggable transport behind Send. The ideal delay-δ
// channel is the built-in default; a multi-hop ISL fabric (package
// route) implements this interface to carry messages hop by hop
// instead. The router owns the packet's journey and must call
// h.Complete exactly once per Route call — that is what keeps the
// Stats conservation invariant exact across any number of hops.
type Router interface {
	// Route carries one emitted message from node `from` toward node
	// `to`. The handle is the message's crosslink envelope; the router
	// finishes it with h.Complete (delivered or dropped with a cause).
	Route(h RouteHandle, from, to NodeID, kind string)
	// NodeFailSilent mirrors SetFailSilent transitions into the router
	// so in-network relays can start (or stop) swallowing packets.
	// Called only on actual state changes, once per transition.
	NodeFailSilent(id NodeID, silent bool)
}

// RouteHandle is the crosslink side of one routed message: the pooled
// delivery envelope plus the accounting hooks the router needs. The
// zero value is invalid; handles are minted by Send and must be
// completed exactly once.
type RouteHandle struct {
	n *Network
	d *delivery
}

// LossProb returns the loss probability currently in effect on the
// owning network. Routers read it at each transmission so scripted
// loss bursts (SetLossProb) apply per hop, not per message.
func (h RouteHandle) LossProb() float64 { return h.n.lossProb }

// Complete finishes the routed message: cause 0 delivers it to the
// destination's handler (late fail-silence still drops it), and the
// Drop* causes account it to the matching counter. The envelope is
// recycled first and the epoch fence applied exactly as on the ideal
// path, so a Reset between Send and Complete makes this a silent
// no-op that still returns the envelope to the freelist.
func (h RouteHandle) Complete(now float64, hops int, cause int) {
	n, d := h.n, h.d
	msg, live, span := d.msg, d.epoch == n.epoch, d.span
	d.msg = Message{} // drop the payload reference before recycling
	d.span = 0
	n.free = append(n.free, d)
	if !live {
		return
	}
	n.stats.InFlight--
	switch cause {
	case DropLoss:
		n.stats.DroppedLoss++
		if n.tracer != nil {
			n.tracer.EndArg(span, now, DropLoss)
		}
		return
	case DropFailSilent:
		n.stats.DroppedFailSilent++
		if n.tracer != nil {
			n.tracer.EndArg(span, now, DropFailSilent)
		}
		return
	case DropQueue:
		n.stats.DroppedQueue++
		if n.tracer != nil {
			n.tracer.EndArg(span, now, DropQueue)
		}
		return
	}
	// Fail-silence at the destination may have begun while the packet
	// was crossing the fabric.
	if n.FailSilent(msg.To) || n.handlerOf(msg.To) == nil {
		n.stats.DroppedFailSilent++
		if n.tracer != nil {
			n.tracer.EndArg(span, now, DropLateFailSilent)
		}
		return
	}
	n.stats.Delivered++
	n.delayHist.Observe(now - msg.SentAt)
	if n.tracer != nil {
		n.tracer.Link(span)
		n.tracer.EndArg(span, now, float64(hops))
	}
	fn := n.handlerOf(msg.To)
	fn(now, msg)
}

// Drop cause codes recorded as the Arg of KindDrop trace events.
const (
	// DropSuppressed: the sender was fail-silent; the message was never
	// emitted.
	DropSuppressed = 1
	// DropFailSilent: the receiver was fail-silent at send time.
	DropFailSilent = 2
	// DropLoss: the link-loss process consumed the message.
	DropLoss = 3
	// DropLateFailSilent: the receiver became fail-silent (or lost its
	// handler) while the message was in flight.
	DropLateFailSilent = 4
	// DropQueue: a routed message arrived at a full egress FIFO.
	DropQueue = 5
)

// delivery is one in-flight message envelope: the unit the message
// freelist recycles. Its epoch pins the Network generation the message
// was sent in, mirroring the epoch fence of the closure-based path.
type delivery struct {
	n     *Network
	msg   Message
	epoch uint64
	// span is the in-flight KindMessage span (zero when tracing is off);
	// the trace epoch fence makes a stale ID a no-op, mirroring the
	// delivery epoch fence above.
	span trace.SpanID
}

// deliverEvent is the package-level dispatch target for in-flight
// messages (des.ArgHandler form: no per-message closure).
func deliverEvent(now float64, arg any) {
	d := arg.(*delivery)
	d.n.deliver(now, d)
}

// SetDelayHistogram installs a per-shard histogram that observes each
// delivered message's transit delay (simulation minutes). A nil
// histogram disables the observation. The histogram outlives Reset —
// it spans a shard of episodes, not one episode.
func (n *Network) SetDelayHistogram(h *obs.LocalHistogram) { n.delayHist = h }

// SetTracer attaches (or with nil, detaches) a span recorder: each
// emitted message gets a KindMessage span covering its flight time
// (linked to the dispatch span that delivers it), and suppressed or
// dropped messages get KindDrop events carrying a Drop* cause code. The
// tracer survives Reset, like the delay histogram.
func (n *Network) SetTracer(r *trace.Recorder) { n.tracer = r }

// Config parameterizes a Network.
type Config struct {
	// MaxDelayMin is δ: the maximum message-delivery delay (minutes).
	MaxDelayMin float64
	// LossProb is the probability an individual message is lost in
	// transit (0 for the paper's analysis; 1 models a total outage).
	LossProb float64
}

// NewNetwork builds a network on the given simulation, configured by
// Reconfigure. The RNG drives delay jitter and losses.
func NewNetwork(sim *des.Simulation, cfg Config, rng *stats.RNG) (*Network, error) {
	n := &Network{sim: sim}
	if err := n.Reconfigure(cfg, rng); err != nil {
		return nil, err
	}
	return n, nil
}

// slot maps a NodeID to its dense index. IDs below the ground station's
// -1 would need a second offset rebase; no caller uses them, so they are
// rejected as a wiring bug.
func slot(id NodeID) int {
	if id < GroundStation {
		panic(fmt.Sprintf("crosslink: node ID %d below GroundStation (-1)", id))
	}
	return int(id) + 1
}

// growTo ensures the node-state slices cover slot i.
func (n *Network) growTo(i int) {
	for len(n.handlers) <= i {
		n.handlers = append(n.handlers, nil)
		n.failSilent = append(n.failSilent, false)
	}
}

// touch widens the window of slots Reset must clear to include slot i.
func (n *Network) touch(i int) {
	if n.lo == n.hi {
		n.lo, n.hi = i, i+1
		return
	}
	n.lo = min(n.lo, i)
	n.hi = max(n.hi, i+1)
}

// handlerOf returns the registered handler for id (nil when none).
func (n *Network) handlerOf(id NodeID) Handler {
	if i := slot(id); i < len(n.handlers) {
		return n.handlers[i]
	}
	return nil
}

// LossProb returns the loss probability currently in effect.
func (n *Network) LossProb() float64 { return n.lossProb }

// SetLossProb overrides the per-message loss probability from now on —
// the fault-injection hook for time-windowed loss bursts (1 models a
// total crosslink outage). Reset restores the configured base value.
// An out-of-range or NaN probability is a wiring bug and panics.
func (n *Network) SetLossProb(p float64) {
	if p < 0 || p > 1 || math.IsNaN(p) {
		panic(fmt.Sprintf("crosslink: SetLossProb(%g) outside [0, 1]", p))
	}
	n.lossProb = p
}

// Reconfigure rebinds the network to a new parameter set and RNG without
// discarding its storage — the hook that lets a pooled simulation stack
// (package oaq recycles whole episode runners across one-shot calls)
// serve configurations it was not built with. It is the network's only
// validation, and it implies a Reset: the previous epoch's in-flight
// messages are fenced off, and the new loss probability becomes the
// base that future Resets restore.
func (n *Network) Reconfigure(cfg Config, rng *stats.RNG) error {
	if n.sim == nil {
		return fmt.Errorf("crosslink: simulation is required")
	}
	if rng == nil {
		return fmt.Errorf("crosslink: RNG is required")
	}
	if cfg.MaxDelayMin <= 0 || math.IsNaN(cfg.MaxDelayMin) {
		return fmt.Errorf("crosslink: max delay δ = %g must be positive", cfg.MaxDelayMin)
	}
	if cfg.LossProb < 0 || cfg.LossProb > 1 || math.IsNaN(cfg.LossProb) {
		return fmt.Errorf("crosslink: loss probability %g outside [0, 1]", cfg.LossProb)
	}
	n.rng = rng
	n.delta = cfg.MaxDelayMin
	n.lossProb = cfg.LossProb
	n.baseLossProb = cfg.LossProb
	n.Reset()
	return nil
}

// Reset clears the handler registrations, fail-silence marks, and
// counters, restores the configured base loss probability, and fences
// off any still-scheduled deliveries of the previous epoch (they will
// neither deliver nor touch the fresh counters), keeping the slice
// storage so the network can host a fresh episode on the same (reset)
// simulation without reallocating. The delivery freelist survives Reset
// — it belongs to the network, not the epoch.
func (n *Network) Reset() {
	clear(n.handlers[n.lo:n.hi])
	clear(n.failSilent[n.lo:n.hi])
	n.lo, n.hi = 0, 0
	n.stats = Stats{}
	n.lossProb = n.baseLossProb
	n.epoch++
}

// Register installs the delivery handler for a node, replacing any
// previous one.
func (n *Network) Register(id NodeID, h Handler) error {
	if h == nil {
		return fmt.Errorf("crosslink: nil handler for node %d", id)
	}
	i := slot(id)
	n.growTo(i)
	n.touch(i)
	n.handlers[i] = h
	return nil
}

// SetRouter installs (or with nil, removes) the transport behind Send:
// non-nil routes every emitted message over the router's fabric instead
// of the ideal delay-δ channel. The router is orthogonal to Reset —
// resetting the network fences its in-flight envelopes but does not
// touch router state; callers that reset the network for a fresh
// episode reset their fabric alongside it.
func (n *Network) SetRouter(r Router) { n.router = r }

// SetFailSilent marks or unmarks a node as fail-silent: it neither sends
// nor processes messages, without any indication to its peers — the
// failure mode the backward-messaging variant of the protocol tolerates.
// Actual transitions are mirrored into the attached router, if any, so
// a fail-silent satellite also stops relaying other nodes' packets.
func (n *Network) SetFailSilent(id NodeID, silent bool) {
	i := slot(id)
	n.growTo(i)
	if n.failSilent[i] == silent {
		return
	}
	n.touch(i)
	n.failSilent[i] = silent
	if n.router != nil {
		n.router.NodeFailSilent(id, silent)
	}
}

// FailSilent reports the node's current failure state.
func (n *Network) FailSilent(id NodeID) bool {
	if i := slot(id); i < len(n.failSilent) {
		return n.failSilent[i]
	}
	return false
}

// Send queues a message for delivery after a uniform delay in (0, δ] —
// or, when a router is attached, hands it to the routed ISL fabric.
// Messages from fail-silent nodes are never emitted (counted as
// suppressed); messages to fail-silent nodes and messages hit by the
// loss process disappear silently (counted as dropped). Sending to an
// unregistered node is an error (a wiring bug, not a runtime
// condition).
func (n *Network) Send(from, to NodeID, kind string, payload any) error {
	if n.handlerOf(to) == nil && !n.FailSilent(to) {
		return fmt.Errorf("crosslink: send to unregistered node %d", to)
	}
	if n.FailSilent(from) {
		n.stats.SuppressedFailSilent++
		if n.tracer != nil {
			n.tracer.Event(trace.KindDrop, n.kindLabel(kind), int32(from), n.sim.Now(), DropSuppressed)
		}
		return nil
	}
	n.stats.Sent++
	if n.router != nil {
		// Routed path: loss, relay fail-silence, and destination
		// fail-silence all happen inside the fabric or at Complete —
		// a receiver that is fail-silent now may have recovered by the
		// time the packet crosses the constellation.
		n.stats.InFlight++
		d := n.newDelivery(from, to, kind, payload)
		n.router.Route(RouteHandle{n: n, d: d}, from, to, kind)
		return nil
	}
	if n.FailSilent(to) {
		n.stats.DroppedFailSilent++
		if n.tracer != nil {
			n.tracer.Event(trace.KindDrop, n.kindLabel(kind), int32(from), n.sim.Now(), DropFailSilent)
		}
		return nil
	}
	if n.lossProb > 0 && n.rng.Float64() < n.lossProb {
		n.stats.DroppedLoss++
		if n.tracer != nil {
			n.tracer.Event(trace.KindDrop, n.kindLabel(kind), int32(from), n.sim.Now(), DropLoss)
		}
		return nil
	}
	delay := n.delta * (1 - n.rng.Float64()) // in (0, δ]
	n.stats.InFlight++
	d := n.newDelivery(from, to, kind, payload)
	n.sim.ScheduleCall(delay, n.kindLabel(kind), deliverEvent, d)
	return nil
}

// newDelivery draws an envelope from the freelist (or allocates one)
// and stamps it with the message, the live epoch, and an in-flight
// message span when tracing.
func (n *Network) newDelivery(from, to NodeID, kind string, payload any) *delivery {
	var d *delivery
	if m := len(n.free); m > 0 {
		d = n.free[m-1]
		n.free[m-1] = nil
		n.free = n.free[:m-1]
	} else {
		d = &delivery{}
	}
	d.n = n
	d.msg = Message{From: from, To: to, Kind: kind, Payload: payload, SentAt: n.sim.Now()}
	d.epoch = n.epoch
	d.span = 0
	if n.tracer != nil {
		d.span = n.tracer.Async(trace.KindMessage, n.kindLabel(kind), int32(from), n.sim.Now())
	}
	return d
}

// kindLabelEntry is one memoized (message kind, event label) pair.
type kindLabelEntry struct{ kind, label string }

// kindLabel memoizes the diagnostic event label for a message kind. A
// protocol sends a handful of kinds (four per OAQ episode), so a linear
// scan of a short slice beats hashing, and the lookup is
// allocation-free.
func (n *Network) kindLabel(kind string) string {
	for i := range n.kindLabels {
		if n.kindLabels[i].kind == kind {
			return n.kindLabels[i].label
		}
	}
	l := "crosslink:" + kind
	n.kindLabels = append(n.kindLabels, kindLabelEntry{kind: kind, label: l})
	return l
}

// deliver completes (or drops) one in-flight message and recycles its
// envelope. A delivery whose epoch predates the last Reset belongs to a
// dead generation: it must neither reach a handler nor touch the fresh
// epoch's counters — but its envelope is still returned to the freelist
// (the envelope belongs to the network, not the epoch).
func (n *Network) deliver(now float64, d *delivery) {
	msg, live, span := d.msg, d.epoch == n.epoch, d.span
	d.msg = Message{} // drop the payload reference before recycling
	d.span = 0
	n.free = append(n.free, d)
	if !live {
		return
	}
	n.stats.InFlight--
	// Fail-silence may have begun after the send.
	if n.FailSilent(msg.To) || n.handlerOf(msg.To) == nil {
		n.stats.DroppedFailSilent++
		if n.tracer != nil {
			n.tracer.EndArg(span, now, DropLateFailSilent)
		}
		return
	}
	n.stats.Delivered++
	n.delayHist.Observe(now - msg.SentAt)
	if n.tracer != nil {
		// Tie the message span to the dispatch span delivering it, then
		// close it at the arrival instant.
		n.tracer.Link(span)
		n.tracer.End(span, now)
	}
	h := n.handlerOf(msg.To)
	h(now, msg)
}

// Stats returns a snapshot of the network counters.
func (n *Network) Stats() Stats { return n.stats }
