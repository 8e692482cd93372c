package oaq

import (
	"fmt"

	"satqos/internal/crosslink"
	"satqos/internal/obs"
	"satqos/internal/qos"
)

// shardMetrics is the single-goroutine metric accumulator of one shard:
// plain counters and local histograms, no atomics, no locks. A shard
// opens one when Params.Metrics is set; the engines merge them in shard
// order and publish the fold into the registry exactly once — so a
// metric snapshot of a deterministic evaluation is itself bit-identical
// at any worker count. When Params.Metrics is nil no shardMetrics exists
// and the per-event hooks reduce to a nil check. Episode outcomes
// (levels, terminations, alert latencies) are not counted here: publish
// reads them from the shard's tally.
type shardMetrics struct {
	traceKinds [TraceAlertReceived + 1]uint64

	desScheduled, desFired     uint64
	desFreeHits, desFreeMisses uint64
	desMaxDepth                int

	// Messages sent are the tally's msgSum (EpisodeResult.MessagesSent).
	linkDelivered                     uint64
	linkDroppedLoss, linkDroppedFails uint64
	linkDroppedQueue, linkSuppressed  uint64

	// Routed-fabric counters (zero when Params.Route is nil).
	routeInjected, routeBackground, routeDelivered         uint64
	routeDroppedQueue, routeDroppedLoss, routeDroppedFails uint64
	routeHops, routeMaxHops                                uint64

	// Protocol-hardening and fault-injection counters: request
	// retransmissions and acknowledgements (the RequestRetries option)
	// and scripted fault windows armed per episode.
	retransmits, acks         uint64
	faultWindows, faultBursts uint64

	// Every shard's histograms, here and in its tally, share the
	// package-level obs.MinuteBuckets, so the shard-order Merge is valid
	// by construction.
	linkDelay, queueDelay obs.LocalHistogram
}

func newShardMetrics() *shardMetrics {
	return &shardMetrics{
		linkDelay:  *obs.NewLocalHistogram(obs.MinuteBuckets),
		queueDelay: *obs.NewLocalHistogram(obs.MinuteBuckets),
	}
}

// recordEpisode flushes one finished episode into the accumulator: the
// kernel and network counters that the episode's Reset will zero before
// the next run.
func (m *shardMetrics) recordEpisode(e *episode) {
	ds := e.sim.Stats()
	m.desScheduled += ds.Scheduled
	m.desFired += ds.Fired
	m.desFreeHits += ds.FreelistHits
	m.desFreeMisses += ds.FreelistMisses
	if ds.MaxHeapDepth > m.desMaxDepth {
		m.desMaxDepth = ds.MaxHeapDepth
	}

	// Both fabrics are crosslink networks: net carries inter-satellite
	// traffic, ground the alert downlink.
	for _, st := range [2]crosslink.Stats{e.net.Stats(), e.ground.Stats()} {
		m.linkDelivered += uint64(st.Delivered)
		m.linkDroppedLoss += uint64(st.DroppedLoss)
		m.linkDroppedFails += uint64(st.DroppedFailSilent)
		m.linkDroppedQueue += uint64(st.DroppedQueue)
		m.linkSuppressed += uint64(st.SuppressedFailSilent)
	}

	if e.fab != nil {
		rs := e.fab.Stats()
		m.routeInjected += uint64(rs.Injected)
		m.routeBackground += uint64(rs.Background)
		m.routeDelivered += uint64(rs.Delivered)
		m.routeDroppedQueue += uint64(rs.DroppedQueue)
		m.routeDroppedLoss += uint64(rs.DroppedLoss)
		m.routeDroppedFails += uint64(rs.DroppedFailSilent)
		m.routeHops += uint64(rs.HopsSum)
		if mh := uint64(rs.MaxHops); mh > m.routeMaxHops {
			m.routeMaxHops = mh
		}
	}
}

// merge folds another shard's accumulator into m. Called in shard-index
// order by the evaluation engines.
func (m *shardMetrics) merge(o *shardMetrics) {
	if m == nil || o == nil {
		return
	}
	for i := range m.traceKinds {
		m.traceKinds[i] += o.traceKinds[i]
	}
	m.desScheduled += o.desScheduled
	m.desFired += o.desFired
	m.desFreeHits += o.desFreeHits
	m.desFreeMisses += o.desFreeMisses
	if o.desMaxDepth > m.desMaxDepth {
		m.desMaxDepth = o.desMaxDepth
	}
	m.linkDelivered += o.linkDelivered
	m.linkDroppedLoss += o.linkDroppedLoss
	m.linkDroppedFails += o.linkDroppedFails
	m.linkDroppedQueue += o.linkDroppedQueue
	m.linkSuppressed += o.linkSuppressed
	m.routeInjected += o.routeInjected
	m.routeBackground += o.routeBackground
	m.routeDelivered += o.routeDelivered
	m.routeDroppedQueue += o.routeDroppedQueue
	m.routeDroppedLoss += o.routeDroppedLoss
	m.routeDroppedFails += o.routeDroppedFails
	m.routeHops += o.routeHops
	if o.routeMaxHops > m.routeMaxHops {
		m.routeMaxHops = o.routeMaxHops
	}
	m.retransmits += o.retransmits
	m.acks += o.acks
	m.faultWindows += o.faultWindows
	m.faultBursts += o.faultBursts
	m.linkDelay.Merge(&o.linkDelay)
	m.queueDelay.Merge(&o.queueDelay)
}

// publish registers and adds every metric family into the registry: the
// episode outcomes and alert latencies from the shard's tally, the rest
// from its metrics accumulator. It is a no-op when the shard has no
// accumulator (Params.Metrics was nil). The full family set is
// registered even when counts are zero, so snapshots of equal workloads
// have equal metric sets. Publish is called once per evaluation, after the shard fold, so
// its cost is off the hot path.
func (s *shard) publish(r *obs.Registry) {
	m := s.m
	if m == nil || r == nil {
		return
	}
	episodes := 0
	for _, n := range s.t.levels {
		episodes += n
	}
	r.Counter("oaq_episodes_total", "Signal episodes simulated.").Add(uint64(episodes))
	for l, n := range s.t.levels {
		r.Counter(fmt.Sprintf("oaq_episode_level_total{level=%q}", qos.Level(l)),
			"Episode outcomes by achieved QoS level.").Add(uint64(n))
	}
	for t := int(TermNone); t <= int(TermRetriesExhausted); t++ {
		r.Counter(fmt.Sprintf("oaq_termination_total{cause=%q}", Termination(t)),
			"Coordination terminations by cause (TC-1/TC-2/TC-3, timeouts, chain cap).").Add(uint64(s.t.terminations[t]))
	}
	for k := int(TraceDetection); k <= int(TraceAlertReceived); k++ {
		r.Counter(fmt.Sprintf("oaq_trace_events_total{kind=%q}", TraceKind(k)),
			"Protocol events by trace kind.").Add(m.traceKinds[k])
	}
	r.Counter("oaq_coordination_rounds_total",
		"Coordination-chain expansions (requests sent to a next-visiting peer).").
		Add(m.traceKinds[TraceRequestSent])
	r.Counter("oaq_retransmissions_total",
		"Coordination-request retransmissions after an ack timeout (RequestRetries option).").Add(m.retransmits)
	r.Counter("oaq_request_acks_total",
		"Coordination-request acknowledgements sent by receivers (RequestRetries option).").Add(m.acks)
	r.Counter("fault_failsilent_windows_total",
		"Scripted fail-silent windows armed by the fault-injection scenario, summed over episodes.").Add(m.faultWindows)
	r.Counter("fault_loss_bursts_total",
		"Scripted crosslink loss bursts armed by the fault-injection scenario, summed over episodes.").Add(m.faultBursts)
	r.Histogram("oaq_alert_latency_minutes",
		"Alert send latency from initial detection, delivered episodes (simulation minutes).",
		obs.MinuteBuckets).AddLocal(&s.t.latency)

	r.Counter("des_events_scheduled_total", "Events scheduled on the simulation kernel.").Add(m.desScheduled)
	r.Counter("des_events_fired_total", "Events dispatched by the simulation kernel.").Add(m.desFired)
	r.Counter("des_freelist_hits_total", "Schedules served from the recycled-event pool.").Add(m.desFreeHits)
	r.Counter("des_freelist_misses_total", "Schedules that allocated a fresh event.").Add(m.desFreeMisses)
	r.Gauge("des_heap_depth_max", "Peak pending-event count of any episode.").SetMax(int64(m.desMaxDepth))

	r.Counter("crosslink_messages_sent_total", "Crosslink messages sent (requests, done notifications, alerts).").Add(uint64(s.t.msgSum))
	r.Counter("crosslink_hops_total", "Crosslink hops traversed (each delivered point-to-point message is one hop).").Add(m.linkDelivered)
	r.Counter("crosslink_dropped_loss_total", "Messages lost to the link-loss process.").Add(m.linkDroppedLoss)
	r.Counter("crosslink_dropped_failsilent_total", "Messages swallowed by fail-silent endpoints.").Add(m.linkDroppedFails)
	r.Counter("crosslink_dropped_queue_total", "Messages dropped at a full routed egress queue (zero on the ideal channel).").Add(m.linkDroppedQueue)
	r.Counter("crosslink_suppressed_failsilent_total", "Sends from fail-silent nodes, never emitted into the link.").Add(m.linkSuppressed)
	r.Histogram("crosslink_delivery_delay_minutes",
		"Inter-satellite message delivery delay (simulation minutes).",
		obs.MinuteBuckets).AddLocal(&m.linkDelay)

	// Routed-fabric families, registered even when routing is off so
	// snapshots of equal workloads have equal metric sets.
	r.Counter("route_packets_injected_total", "Packets injected into the routed ISL fabric (protocol + background).").Add(m.routeInjected)
	r.Counter("route_background_packets_total", "Background cross-traffic packets injected into the fabric.").Add(m.routeBackground)
	r.Counter("route_packets_delivered_total", "Fabric packets that reached their destination node.").Add(m.routeDelivered)
	r.Counter("route_dropped_queue_total", "Fabric packets dropped at a full egress FIFO.").Add(m.routeDroppedQueue)
	r.Counter("route_dropped_loss_total", "Fabric packets lost to a per-hop loss draw.").Add(m.routeDroppedLoss)
	r.Counter("route_dropped_failsilent_total", "Fabric packets swallowed by fail-silent nodes.").Add(m.routeDroppedFails)
	r.Counter("route_hops_total", "ISL hops traversed by delivered fabric packets.").Add(m.routeHops)
	r.Gauge("route_hops_max", "Largest single-packet hop count (bounded by the topology diameter).").SetMax(int64(m.routeMaxHops))
	r.Histogram("route_queue_delay_minutes",
		"Total queue wait of delivered fabric packets (simulation minutes).",
		obs.MinuteBuckets).AddLocal(&m.queueDelay)
}

// note counts one protocol event by kind, feeding
// oaq_trace_events_total{kind=…}. Called unconditionally at every event
// site, it costs a nil check when metrics are disabled and a plain array
// increment when enabled — never an allocation, never an atomic.
func (e *episode) note(kind TraceKind) {
	if e.obs != nil {
		e.obs.traceKinds[kind]++
	}
}

// setMetrics attaches a shard accumulator to the runner's episode state
// (nil detaches), including the crosslink delay histogram hook.
func (r *episodeRunner) setMetrics(m *shardMetrics) {
	r.ep.obs = m
	var link, queue *obs.LocalHistogram
	if m != nil {
		link, queue = &m.linkDelay, &m.queueDelay
	}
	r.ep.net.SetDelayHistogram(link)
	if r.ep.fab != nil {
		r.ep.fab.SetQueueDelayHistogram(queue)
	}
}

// TraceKind classifies protocol events; it is the kind label of the
// oaq_trace_events_total counter.
type TraceKind int

// Trace event kinds, in rough lifecycle order.
const (
	// TraceDetection: the signal was first observed (t0).
	TraceDetection TraceKind = iota + 1
	// TraceComputationDone: a geolocation computation completed.
	TraceComputationDone
	// TraceRequestSent: a coordination request left a satellite.
	TraceRequestSent
	// TraceRequestReceived: a coordination request arrived at a peer.
	TraceRequestReceived
	// TracePassArrival: a coordinating peer's footprint reached the
	// target.
	TracePassArrival
	// TraceSignalLost: TC-3 was observed — the footprint arrived after
	// the signal stopped.
	TraceSignalLost
	// TraceDoneSent: a "coordination done" notification was emitted.
	TraceDoneSent
	// TraceDoneReceived: a "coordination done" notification arrived.
	TraceDoneReceived
	// TraceTimeout: a wait timer or deadline guard fired.
	TraceTimeout
	// TraceAlertSent: an alert left for the ground station.
	TraceAlertSent
	// TraceAlertReceived: the ground station accepted an alert (on
	// time) or discarded it (late).
	TraceAlertReceived
)

// String implements fmt.Stringer.
func (k TraceKind) String() string {
	switch k {
	case TraceDetection:
		return "detection"
	case TraceComputationDone:
		return "computation-done"
	case TraceRequestSent:
		return "request-sent"
	case TraceRequestReceived:
		return "request-received"
	case TracePassArrival:
		return "pass-arrival"
	case TraceSignalLost:
		return "signal-lost"
	case TraceDoneSent:
		return "done-sent"
	case TraceDoneReceived:
		return "done-received"
	case TraceTimeout:
		return "timeout"
	case TraceAlertSent:
		return "alert-sent"
	case TraceAlertReceived:
		return "alert-received"
	default:
		return fmt.Sprintf("TraceKind(%d)", int(k))
	}
}
