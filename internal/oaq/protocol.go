package oaq

import (
	"fmt"
	"math"
	"sync"

	"satqos/internal/crosslink"
	"satqos/internal/des"
	"satqos/internal/fault"
	"satqos/internal/obs/trace"
	"satqos/internal/qos"
	"satqos/internal/route"
	"satqos/internal/stats"
)

// EpisodeResult reports one signal episode.
type EpisodeResult struct {
	// Level is the best QoS level of any alert sent by the deadline
	// (LevelMiss when the target escaped or nothing was delivered in
	// time).
	Level qos.Level
	// Detected reports whether any footprint saw the signal.
	Detected bool
	// Delivered reports whether an alert was sent by the deadline.
	Delivered bool
	// DetectionDelay is t0 − signal start (0 when covered at onset; NaN
	// when never detected).
	DetectionDelay float64
	// DeliveryLatency is the send time of the level-defining alert,
	// measured from t0 (NaN when nothing was delivered).
	DeliveryLatency float64
	// ChainLength is the number of satellite passes fused into the
	// delivered result.
	ChainLength int
	// MessagesSent counts all crosslink messages (requests, done
	// notifications, alerts).
	MessagesSent int
	// Termination is the cause that ended coordination.
	Termination Termination
}

// message payloads.
type requestPayload struct {
	t0        float64
	ordinal   int // receiver's ordinal n in the chain (1-based)
	passes    int // passes fused so far (inherited result quality)
	inherited qos.Level
}

type alertPayload struct {
	level  qos.Level
	passes int
	t0     float64
}

// Protocol message kinds.
const (
	kindRequest = "coordination-request"
	kindDone    = "coordination-done"
	kindAck     = "coordination-ack"
	kindAlert   = "alert"
)

// episode is the runtime state of one signal episode.
type episode struct {
	p   Params
	sim *des.Simulation
	// net carries inter-satellite traffic (δ-bounded, possibly lossy);
	// ground carries alert downlinks (δ-bounded, reliable — the paper's
	// loss concerns are about crosslinks, and the delivery guarantee is
	// stated for the alert having been *sent*).
	net    *crosslink.Network
	ground *crosslink.Network
	// fab, when non-nil, is the routed ISL fabric backing both networks
	// (Params.Route): messages cross the constellation hop by hop
	// through shared queues instead of the ideal channel.
	fab *route.Fabric
	// faults arms Params.Faults onto each episode from reused storage.
	faults fault.Injector
	rng    *stats.RNG
	// obs is the shard's metric accumulator (nil when metrics are
	// disabled; see metrics.go).
	obs *shardMetrics

	l1, tc          float64
	overlap         bool
	sigStart        float64
	sigEnd          float64
	t0              float64
	deadline        float64 // t0 + τ (absolute)
	bestLevel       qos.Level
	bestPasses      int
	bestSentAt      float64
	deliveredByTau  bool
	termination     Termination
	terminationSeen bool
	// failRollArmed gates the fail-silent lottery: the satellite that
	// detects the signal is always healthy (the paper's failure model
	// concerns the peers joining the coordination).
	failRollArmed bool
	// satByID indexes the episode's live satellites by pass index minus
	// satBase — an indexed reset-in-place buffer instead of a per-episode
	// map, so agent lookup is a plain array access. satBase is the lowest
	// pass index the episode can touch (the first covering footprint).
	satByID []*satellite
	satBase int
	// pool recycles satellite structs across the episodes of one runner;
	// poolUsed is how many are live in the current episode.
	pool     []*satellite
	poolUsed int
	// covBuf is the reusable backing array of coveringAt; detCov pins the
	// detection-time covering set for the detection event (covBuf itself
	// is overwritten by the next coveringAt call).
	covBuf []int
	detCov []int
	// rec is the span recorder (nil when tracing is off; every hook
	// checks). ord is the episode's global ordinal — the head-sampling
	// key and the exemplar ID — seeded per shard by the evaluators and
	// incremented after every run. rootSpan is the episode's root span.
	rec      *trace.Recorder
	ord      uint64
	rootSpan trace.SpanID
}

// satellite is one protocol participant. The struct is pooled across
// episodes (reset in place by resetFor), and all of its event handling
// goes through package-level des.ArgHandler adapters with the satellite
// itself as the argument — so a steady-state episode schedules events,
// sends messages, and dispatches protocol logic without allocating.
type satellite struct {
	ep          *episode
	id          int // pass index: footprint covers [id·L1, id·L1 + Tc)
	node        crosslink.NodeID
	ordinal     int
	passes      int
	level       qos.Level
	sentAlert   bool
	forwarded   bool // responsibility passed to the next peer
	doneFrom    bool // "coordination done" received from upstream
	inherited   alertPayload
	hasRequest  bool
	requestFrom crosslink.NodeID
	// ackedForward records that the forwarded coordination request was
	// acknowledged (retransmission option only).
	ackedForward bool
	// reqOut and alertOut are the satellite's outgoing payloads, sent by
	// pointer so the crosslink layer never boxes a value into its
	// Payload interface. Each is written at most once per episode before
	// any send that references it (retransmissions resend the identical
	// reqOut), and the network's epoch fence keeps stale in-flight
	// pointers from crossing a Reset.
	reqOut   requestPayload
	alertOut alertPayload
	// retryTo and retryAttempt carry the bounded-retransmission state
	// between ack-timeout events (at most one forwarded request per
	// satellite, so a single slot suffices).
	retryTo      crosslink.NodeID
	retryAttempt int
	// jointPasses parameterizes the pending joint-computation event.
	jointPasses int
	// compSpan, awaitSpan, and waitSpan are the satellite's open trace
	// spans (computation in progress, ack round-trip, backward
	// coordination-done wait); zero when tracing is off. resetFor clears
	// them with the rest of the struct, and the recorder's epoch fence
	// neutralizes any ID that leaks across an episode boundary.
	compSpan  trace.SpanID
	awaitSpan trace.SpanID
	waitSpan  trace.SpanID
	// handler is the satellite's crosslink receive closure, created once
	// when the struct is first allocated and preserved across resets (a
	// fresh bound-method value would allocate every episode).
	handler crosslink.Handler
}

// resetFor reinitializes a pooled satellite for a fresh episode, keeping
// the allocated receive handler (which captures only the stable struct
// pointer).
func (s *satellite) resetFor(e *episode, id int) {
	h := s.handler
	*s = satellite{ep: e, id: id, node: crosslink.NodeID(id)}
	s.handler = h
}

func (s *satellite) passStart() float64 { return float64(s.id) * s.ep.l1 }

// coveringAt returns the pass indices whose footprints cover the target
// at time t (at most two in the overlapping regime). The returned slice
// aliases a per-episode buffer that the next call overwrites.
func (e *episode) coveringAt(t float64) []int {
	lo := int(math.Ceil((t - e.tc) / e.l1))
	hi := int(math.Floor(t / e.l1))
	out := e.covBuf[:0]
	for j := lo; j <= hi; j++ {
		start := float64(j) * e.l1
		if start <= t && t < start+e.tc {
			out = append(out, j)
		}
	}
	e.covBuf = out
	return out
}

func (e *episode) signalActiveAt(t float64) bool {
	return t >= e.sigStart && t < e.sigEnd
}

// satSlot returns the satByID index for a pass id, growing the buffer on
// demand (steady-state episodes stay within the grown capacity).
func (e *episode) satSlot(id int) int {
	idx := id - e.satBase
	if idx < 0 {
		panic(fmt.Sprintf("oaq: pass index %d below episode base %d", id, e.satBase))
	}
	for len(e.satByID) <= idx {
		e.satByID = append(e.satByID, nil)
	}
	return idx
}

// sat lazily instantiates and registers a satellite agent, drawing the
// struct from the runner's pool when one is free.
func (e *episode) sat(id int) *satellite {
	idx := e.satSlot(id)
	if s := e.satByID[idx]; s != nil {
		return s
	}
	var s *satellite
	if e.poolUsed < len(e.pool) {
		s = e.pool[e.poolUsed]
		s.resetFor(e, id)
	} else {
		s = &satellite{ep: e, id: id, node: crosslink.NodeID(id)}
		s.handler = s.onMessage
		e.pool = append(e.pool, s)
	}
	e.poolUsed++
	e.satByID[idx] = s
	if err := e.net.Register(s.node, s.handler); err != nil {
		// Registration cannot fail for a non-nil handler.
		panic(fmt.Sprintf("oaq: register satellite %d: %v", id, err))
	}
	if e.failRollArmed && e.p.FailSilentProb > 0 && e.rng.Float64() < e.p.FailSilentProb {
		e.net.SetFailSilent(s.node, true)
		e.ground.SetFailSilent(s.node, true)
	}
	return s
}

// recordAlert is the ground station's receive path. Only the send time
// matters for the deadline (footnote 2: the alert must be *sent* by τ).
func (e *episode) recordAlert(msg crosslink.Message) {
	pay, ok := msg.Payload.(*alertPayload)
	if !ok {
		return
	}
	e.note(TraceAlertReceived)
	if msg.SentAt > e.deadline+1e-12 {
		if e.rec != nil {
			e.rec.Event(trace.KindEvent, "alert-late", trace.SatGround, e.sim.Now(), msg.SentAt-e.t0)
		}
		return // late alert: does not count toward the QoS level
	}
	if e.rec != nil {
		e.rec.Event(trace.KindEvent, "alert-accepted", trace.SatGround, e.sim.Now(), msg.SentAt-e.t0)
	}
	e.deliveredByTau = true
	if pay.level > e.bestLevel || (pay.level == e.bestLevel && pay.passes > e.bestPasses) {
		e.bestLevel = pay.level
		e.bestPasses = pay.passes
		e.bestSentAt = msg.SentAt
	}
}

func (e *episode) noteTermination(t Termination) {
	if !e.terminationSeen {
		e.termination = t
		e.terminationSeen = true
	}
}

// sendAlert emits the satellite's alert to the ground.
func (s *satellite) sendAlert(level qos.Level, passes int) {
	if s.sentAlert {
		return
	}
	s.sentAlert = true
	s.ep.note(TraceAlertSent)
	s.alertOut = alertPayload{level: level, passes: passes, t0: s.ep.t0}
	_ = s.ep.ground.Send(s.node, crosslink.GroundStation, kindAlert, &s.alertOut)
}

// sendDone notifies the upstream requester, which propagates it further
// down the chain (backward-messaging variant only).
func (s *satellite) sendDone() {
	if !s.ep.p.BackwardMessaging || !s.hasRequest {
		return
	}
	s.ep.note(TraceDoneSent)
	_ = s.ep.net.Send(s.node, s.requestFrom, kindDone, nil)
}

// onMessage dispatches crosslink traffic.
func (s *satellite) onMessage(now float64, msg crosslink.Message) {
	switch msg.Kind {
	case kindRequest:
		pay, ok := msg.Payload.(*requestPayload)
		if !ok {
			return
		}
		if s.ep.p.RequestRetries > 0 {
			// Acknowledge every copy — the previous ack may itself have
			// been lost — but process only the first: a retransmission of
			// an already-accepted request must not restart the attempt.
			if s.ep.obs != nil {
				s.ep.obs.acks++
			}
			_ = s.ep.net.Send(s.node, msg.From, kindAck, nil)
			if s.hasRequest {
				return
			}
		}
		s.hasRequest = true
		s.requestFrom = msg.From
		s.ordinal = pay.ordinal
		s.inherited = alertPayload{level: pay.inherited, passes: pay.passes, t0: pay.t0}
		s.ep.note(TraceRequestReceived)
		s.scheduleAttempt(now)
		if !s.ep.p.BackwardMessaging {
			// Terminal-responsibility guard: whoever holds the freshest
			// result must get *something* to the ground by the deadline.
			// Queueing on a routed fabric can deliver a request after the
			// deadline (the ideal channel's δ bound no longer holds), in
			// which case the guard fires immediately.
			s.ep.sim.ScheduleCallAt(math.Max(now, s.ep.deadline), "no-backward-guard", noBackwardGuardEvent, s)
		}
	case kindAck:
		s.ackedForward = true
		if s.ep.rec != nil {
			s.ep.rec.EndArg(s.awaitSpan, now, float64(s.retryAttempt))
		}
	case kindDone:
		s.doneFrom = true
		if s.ep.rec != nil {
			s.ep.rec.End(s.waitSpan, now)
		}
		s.ep.note(TraceDoneReceived)
		// Propagate downstream (Figure 3(c)-(d)).
		s.sendDone()
	}
}

// scheduleAttempt arms the satellite's pass over the target: when its
// footprint arrives it either iterates the computation (signal still
// up) or observes TC-3.
func (s *satellite) scheduleAttempt(now float64) {
	at := math.Max(now, s.passStart())
	s.ep.sim.ScheduleCallAt(at, "pass-attempt", passAttemptEvent, s)
}

// passAttemptEvent fires when a coordinated satellite's footprint
// arrives over the target.
func passAttemptEvent(t float64, arg any) {
	s := arg.(*satellite)
	if s.ep.net.FailSilent(s.node) {
		return
	}
	s.ep.note(TracePassArrival)
	if s.ep.signalActiveAt(t) {
		h := s.ep.p.ComputeTime.Sample(s.ep.rng)
		if s.ep.rec != nil {
			s.compSpan = s.ep.rec.Async(trace.KindCompute, "iterative-computation", int32(s.id), t)
		}
		s.ep.sim.ScheduleCall(h, "iterative-computation", iterativeComputationEvent, s)
		return
	}
	// TC-3: the signal stopped before this footprint arrived.
	if s.ep.rec != nil {
		s.ep.rec.Event(trace.KindEvent, "signal-lost", int32(s.id), t, 0)
	}
	s.ep.note(TraceSignalLost)
	if !s.ep.p.BackwardMessaging {
		s.ep.noteTermination(TermSignalLost)
		s.sendAlert(s.inherited.level, s.inherited.passes)
		s.sendDone()
	}
	// Under backward messaging the upstream wait timeout delivers.
}

// iterativeComputationEvent completes one sequential-localization
// iteration and re-evaluates the termination conditions.
func iterativeComputationEvent(done float64, arg any) {
	s := arg.(*satellite)
	if s.ep.net.FailSilent(s.node) {
		return
	}
	s.passes = s.inherited.passes + 1
	s.level = qos.LevelSequentialDual
	if s.ep.rec != nil {
		s.ep.rec.EndArg(s.compSpan, done, float64(s.passes))
	}
	s.ep.note(TraceComputationDone)
	s.evaluate(done)
}

// noBackwardGuardEvent is the terminal-responsibility guard of the
// no-backward-messaging variant: at the deadline, a satellite that
// still holds the freshest result and never handed it off must deliver
// what it inherited. It is a variable so a test can observe the guards
// that fire after the deadline, which a bounded span ring cannot hold
// on a congested fabric.
var noBackwardGuardEvent = func(_ float64, arg any) {
	s := arg.(*satellite)
	if !s.sentAlert && !s.forwarded && !s.ep.net.FailSilent(s.node) {
		s.sendAlert(s.inherited.level, s.inherited.passes)
	}
}

// terminate ends the satellite's coordination: record the cause, send
// the alert, and propagate "coordination done".
func (s *satellite) terminate(cause Termination) {
	s.ep.noteTermination(cause)
	s.sendAlert(s.level, s.passes)
	s.sendDone()
}

// evaluate applies the termination conditions after a completed
// computation and either terminates (alert + done) or expands the chain
// (coordination request to the next-visiting peer, §3.2).
func (s *satellite) evaluate(now float64) {
	e := s.ep
	// TC-1: estimated error below threshold.
	if e.p.ErrorThresholdKm > 0 && DefaultErrorModel(s.passes) <= e.p.ErrorThresholdKm {
		s.terminate(TermErrorThreshold)
		return
	}
	// Configured chain cap.
	if e.p.MaxChain > 0 && s.ordinal >= e.p.MaxChain {
		s.terminate(TermChainCap)
		return
	}
	// TC-2: getTime() − t0 > τ − (nδ + T_g).
	if now-e.t0 > e.p.TauMin-(float64(s.ordinal)*e.p.DeltaMin+e.p.TgMin) {
		s.terminate(TermDeadline)
		return
	}
	// Opportunity remains: request the peer expected to visit next. A
	// membership-aware satellite skips peers its view has excluded (the
	// §5 integration), at the cost of a later pass arrival.
	next := e.sat(s.id + 1)
	if e.p.MembershipAware {
		for hop := 1; hop <= 4 && e.net.FailSilent(next.node); hop++ {
			if e.rec != nil {
				e.rec.Event(trace.KindEvent, "membership-skip", int32(s.id), now, float64(next.id))
			}
			next = e.sat(s.id + 1 + hop)
		}
	}
	s.forwarded = true
	e.note(TraceRequestSent)
	s.reqOut = requestPayload{
		t0:        e.t0,
		ordinal:   s.ordinal + 1,
		passes:    s.passes,
		inherited: s.level,
	}
	_ = e.net.Send(s.node, next.node, kindRequest, &s.reqOut)
	if e.p.RequestRetries > 0 {
		s.armAckTimeout(next.node, 0)
	}
	if e.p.BackwardMessaging {
		// Wait for "coordination done" until τ − (n−1)δ; otherwise treat
		// the peer as unable to deliver (TC-3 after the request, or
		// fail-silence) and send our own result (Figure 4).
		waitUntil := e.t0 + e.p.TauMin - float64(s.ordinal-1)*e.p.DeltaMin
		if waitUntil < now {
			waitUntil = now
		}
		if e.rec != nil {
			s.waitSpan = e.rec.Async(trace.KindAwait, "await-done", int32(s.id), now)
		}
		e.sim.ScheduleCallAt(waitUntil, "wait-timeout", waitTimeoutEvent, s)
	}
}

// waitTimeoutEvent fires at τ − (n−1)δ for a satellite that forwarded
// the chain under backward messaging and is still waiting on
// "coordination done".
func waitTimeoutEvent(t float64, arg any) {
	s := arg.(*satellite)
	e := s.ep
	if s.doneFrom || s.sentAlert || e.net.FailSilent(s.node) {
		return
	}
	e.note(TraceTimeout)
	if e.rec != nil {
		e.rec.EndArg(s.waitSpan, t, 1)
	}
	e.noteTermination(TermTimeout)
	s.sendAlert(s.level, s.passes)
	s.sendDone()
}

// armAckTimeout arms the bounded-retransmission option for a forwarded
// coordination request: if no acknowledgement arrives within a 2δ
// round trip, the request is retransmitted — but only while a
// successful handoff could still complete one computation before the
// deadline (t + 2δ + T_g ≤ t0 + τ), which keeps the TC-2 threshold
// math intact. When the retry budget or the window is exhausted the
// satellite abandons the forward and delivers its own result
// (TermRetriesExhausted) at or before the deadline instead of
// stalling on an unreachable peer.
func (s *satellite) armAckTimeout(to crosslink.NodeID, attempt int) {
	e := s.ep
	s.retryTo = to
	s.retryAttempt = attempt
	if e.rec != nil && attempt == 0 {
		// One await-ack span covers the whole retry sequence; retransmits
		// appear as events inside it.
		s.awaitSpan = e.rec.Async(trace.KindAwait, "await-ack", int32(s.id), e.sim.Now())
	}
	// The clamp to "now" is defensive: TC-2 fires strictly before the
	// deadline, so today every forward (and every retransmit, via the
	// window check) arms with time to spare — but routed queueing already
	// voided one δ-bound assumption here, and a past-time schedule
	// panics the kernel.
	at := math.Max(e.sim.Now(), math.Min(e.sim.Now()+2*e.p.DeltaMin, e.deadline))
	e.sim.ScheduleCallAt(at, "ack-timeout", ackTimeoutEvent, s)
}

// ackTimeoutEvent resends the (single) outstanding coordination request
// held in s.reqOut, or abandons the forward when the retry budget or
// the deadline window is exhausted.
func ackTimeoutEvent(t float64, arg any) {
	s := arg.(*satellite)
	e := s.ep
	if s.ackedForward || s.sentAlert || e.net.FailSilent(s.node) {
		return
	}
	if s.retryAttempt < e.p.RequestRetries && t+2*e.p.DeltaMin+e.p.TgMin <= e.deadline {
		if e.obs != nil {
			e.obs.retransmits++
		}
		if e.rec != nil {
			e.rec.Event(trace.KindEvent, "retransmit", int32(s.id), t, float64(s.retryAttempt+1))
		}
		_ = e.net.Send(s.node, s.retryTo, kindRequest, &s.reqOut)
		s.armAckTimeout(s.retryTo, s.retryAttempt+1)
		return
	}
	if e.rec != nil {
		e.rec.EndArg(s.awaitSpan, t, float64(s.retryAttempt))
	}
	e.noteTermination(TermRetriesExhausted)
	s.forwarded = false
	s.sendAlert(s.level, s.passes)
	s.sendDone()
}

// episodeRunner amortizes the fixed cost of episode simulation — the
// event queue, the two crosslink networks, the satellite agents — across
// many episodes drawn from one RNG. It is the unit of work of the
// sharded Monte-Carlo engine: one runner per shard, never shared between
// goroutines.
type episodeRunner struct {
	ep episode
	// groundHandler is the ground station's receive closure, created
	// once and re-registered after each Reset.
	groundHandler crosslink.Handler
	// fab is the runner's routed fabric, built on the first routed
	// parameters and kept while the runner is rebound to unrouted ones
	// (ep.fab is nil then): every fabric registers two lanes on the
	// simulation for good, so building a new one per routed rebind
	// would grow the lane set the event loop scans.
	fab *route.Fabric
}

// newEpisodeRunner builds the parameter-free parts of a runner — the
// simulation and the ground station's receive closure — and binds it to
// p and rng through rebind. The runner draws every random variate from
// rng; to replay a specific substream per episode, Reseed the rng
// between run calls (the paired evaluator does).
func newEpisodeRunner(p Params, rng *stats.RNG) (*episodeRunner, error) {
	r := &episodeRunner{}
	e := &r.ep
	e.sim = &des.Simulation{}
	r.groundHandler = func(now float64, msg crosslink.Message) {
		e.recordAlert(msg)
	}
	if err := r.rebind(p, rng); err != nil {
		return nil, err
	}
	return r, nil
}

// run simulates one signal episode, reusing the runner's simulation
// state. Consecutive runs consume the runner's RNG exactly as repeated
// RunEpisode calls on the same RNG would, so the two are
// outcome-for-outcome identical.
func (r *episodeRunner) run() EpisodeResult {
	e := &r.ep
	e.sim.Reset()
	e.net.Reset()
	e.ground.Reset()
	if e.fab != nil {
		e.fab.Reset()
	}
	// Unhook the previous episode's satellites from the index (each pool
	// entry knows its own slot, so this is O(live satellites), not
	// O(buffer)).
	for _, s := range e.pool[:e.poolUsed] {
		e.satByID[s.id-e.satBase] = nil
	}
	e.poolUsed = 0
	e.t0 = 0
	e.deadline = 0
	e.bestLevel = qos.LevelMiss
	e.bestPasses = 0
	e.bestSentAt = 0
	e.deliveredByTau = false
	e.termination = TermNone
	e.terminationSeen = false
	e.failRollArmed = false
	if err := e.ground.Register(crosslink.GroundStation, r.groundHandler); err != nil {
		panic(fmt.Sprintf("oaq: register ground station: %v", err))
	}

	// Signal placement: uniform phase within one footprint period (the
	// PASTA argument of §4.2.2), offset well inside the pass schedule so
	// chain indices stay positive.
	e.sigStart = 64*e.l1 + e.rng.Float64()*e.l1
	e.sigEnd = e.sigStart + e.p.SignalDuration.Sample(e.rng)
	if e.rec != nil {
		e.startTrace()
	}

	// Detection.
	covering := e.coveringAt(e.sigStart)
	var detectionDelay float64
	switch {
	case len(covering) > 0:
		e.t0 = e.sigStart
	default:
		nextPass := math.Ceil(e.sigStart/e.l1) * e.l1
		if nextPass >= e.sigEnd {
			// The target escaped surveillance: level 0.
			res := EpisodeResult{
				Level:           qos.LevelMiss,
				DetectionDelay:  math.NaN(),
				DeliveryLatency: math.NaN(),
				Termination:     TermNone,
			}
			if e.obs != nil {
				e.obs.recordEpisode(e)
			}
			if e.rec != nil {
				e.rec.Event(trace.KindEvent, "target-escaped", trace.SatKernel, e.sigEnd, 0)
				e.finishTrace(&res, e.sigEnd)
			}
			e.ord++
			return res
		}
		e.t0 = nextPass
		detectionDelay = e.t0 - e.sigStart
		covering = e.coveringAt(e.t0)
		if e.rec != nil {
			// The signal was live before any footprint arrived: record the
			// detection wait explicitly.
			dw := e.rec.Async(trace.KindAwait, "detect-wait", trace.SatKernel, e.sigStart)
			e.rec.EndArg(dw, e.t0, detectionDelay)
		}
	}
	e.deadline = e.t0 + e.p.TauMin
	// Pin the detection covering set (covBuf is transient) and anchor the
	// satellite index at the first footprint the episode can touch.
	e.satBase = covering[0]
	e.detCov = append(e.detCov[:0], covering...)

	// Scripted faults are armed before the detection event: an onset at
	// scenario time zero is in effect when detection fires (FIFO at equal
	// times), and the agenda's jitter draws sit at a fixed point in the
	// episode's RNG stream regardless of event order.
	if !e.p.Faults.Empty() {
		c := e.faults.Arm(e.p.Faults, fault.Target{
			Sim:      e.sim,
			Origin:   e.t0,
			RNG:      e.rng,
			Detector: crosslink.NodeID(covering[len(covering)-1]),
			Links:    e.net,
			Ground:   e.ground,
		})
		if e.obs != nil {
			e.obs.faultWindows += uint64(c.FailSilentWindows)
			e.obs.faultBursts += uint64(c.LossBursts)
		}
	}

	// Background cross-traffic contends with the protocol for the ISL
	// queues from detection until the post-deadline drain. Only its
	// first inter-arrival gap is drawn here, at a fixed point in the
	// episode's RNG stream after the fault agenda; each later arrival
	// draws its endpoints and the next gap when it fires.
	if e.fab != nil {
		e.fab.ArmBackground(e.t0, e.deadline+e.tc)
	}

	// First-response logic at t0.
	e.sim.ScheduleCallAt(e.t0, "detection", detectionEvent, e)

	// Run to quiescence past the deadline plus a full revisit (late pass
	// attempts are filtered by the ground's deadline check anyway).
	e.sim.Run(e.deadline + 4*e.l1 + e.tc + 1)

	res := EpisodeResult{
		Level:           e.bestLevel,
		Detected:        true,
		Delivered:       e.deliveredByTau,
		DetectionDelay:  detectionDelay,
		ChainLength:     e.bestPasses,
		MessagesSent:    e.net.Stats().Sent + e.ground.Stats().Sent,
		Termination:     e.termination,
		DeliveryLatency: math.NaN(),
	}
	if e.deliveredByTau {
		res.DeliveryLatency = e.bestSentAt - e.t0
	} else {
		res.Level = qos.LevelMiss
	}
	if e.obs != nil {
		e.obs.recordEpisode(e)
	}
	if e.rec != nil {
		e.finishTrace(&res, e.sim.Now())
	}
	e.ord++
	return res
}

// rebind binds the runner to new parameters and a new RNG, keeping
// every allocation — the event queue, the crosslink networks and their
// freelists, the routed fabric, the satellite pool, the scan buffers. It
// is the only code that validates Params and derives the runner's
// parameter state, so a rebound runner is outcome-for-outcome identical
// to a freshly built one (neither path consumes the RNG).
func (r *episodeRunner) rebind(p Params, rng *stats.RNG) error {
	if err := p.Validate(); err != nil {
		return err
	}
	if rng == nil {
		return fmt.Errorf("oaq: RNG is required")
	}
	tr, err := p.Geom.Tr(p.K)
	if err != nil {
		return err
	}
	overlap, err := p.Geom.Overlapping(p.K)
	if err != nil {
		return err
	}
	e := &r.ep
	// Drop the previous episode's leftovers past its run horizon before
	// the fabric retimes its lanes (run resets the simulation anyway).
	e.sim.Reset()
	linkCfg := crosslink.Config{MaxDelayMin: p.DeltaMin, LossProb: p.MessageLossProb}
	groundCfg := crosslink.Config{MaxDelayMin: p.DeltaMin}
	if e.net == nil {
		// The first bind builds the networks.
		if e.net, err = crosslink.NewNetwork(e.sim, linkCfg, rng); err != nil {
			return err
		}
		if e.ground, err = crosslink.NewNetwork(e.sim, groundCfg, rng); err != nil {
			return err
		}
	} else {
		if err := e.net.Reconfigure(linkCfg, rng); err != nil {
			return err
		}
		if err := e.ground.Reconfigure(groundCfg, rng); err != nil {
			return err
		}
	}
	switch {
	case p.Route == nil:
		// Detach the fabric but keep it for the next routed rebind.
		e.fab = nil
		e.net.SetRouter(nil)
		e.ground.SetRouter(nil)
	case r.fab != nil:
		if err := r.fab.Rebind(*p.Route, rng); err != nil {
			return err
		}
	default:
		fab, err := route.NewFabric(e.sim, *p.Route, rng)
		if err != nil {
			return err
		}
		r.fab = fab
	}
	if p.Route != nil {
		// One fabric backs both networks: protocol crosslinks and alert
		// downlinks share the ISL queues.
		e.fab = r.fab
		e.net.SetRouter(r.fab)
		e.ground.SetRouter(r.fab)
	}
	e.p = p
	e.rng = rng
	e.l1 = tr
	e.tc = p.Geom.TcMin
	e.overlap = overlap
	return nil
}

// runnerPool parks episode runners between uses, so only the first
// evaluation on a quiet process pays the construction of the
// simulation stack. openShard and shard.close are its only users; a
// runner is never in the pool while running, so the single-goroutine
// discipline of episodeRunner is preserved.
var runnerPool sync.Pool

// RunEpisode simulates one signal episode under the given parameters and
// returns its outcome.
func RunEpisode(p Params, rng *stats.RNG) (EpisodeResult, error) {
	s, err := openShard(p, rng, 0)
	if err != nil {
		return EpisodeResult{}, err
	}
	res := s.run()
	s.close()
	s.publish(p.Metrics)
	return res, nil
}

// Runner is the exported reusable episode simulator: it amortizes the
// fixed cost of the event queue, the crosslink networks, and the
// satellite pool across many episodes on one goroutine. Consecutive Run
// calls consume the RNG exactly as repeated RunEpisode calls on the same
// RNG would, so the two are outcome-for-outcome identical — but a
// steady-state Run performs no heap allocations (the property
// BenchmarkProtocolEpisode gates). A Runner is not safe for concurrent
// use; create one per goroutine.
type Runner struct {
	s *shard
}

// NewRunner validates the parameters and builds the reusable simulation
// state.
func NewRunner(p Params, rng *stats.RNG) (*Runner, error) {
	s, err := openShard(p, rng, 0)
	if err != nil {
		return nil, err
	}
	return &Runner{s: s}, nil
}

// Run simulates the next signal episode, drawing from the Runner's RNG.
func (r *Runner) Run() EpisodeResult { return r.s.run() }

// RouteStats returns the routed fabric's counters for the most recent
// episode (the fabric resets per episode), or the zero Stats when the
// parameters did not enable routing.
func (r *Runner) RouteStats() route.Stats {
	if r.s.r.ep.fab == nil {
		return route.Stats{}
	}
	return r.s.r.ep.fab.Stats()
}

// RouteDiameter returns the routed topology's graph diameter (the hop
// bound of the no-forwarding-loop invariant), or 0 when routing is off.
func (r *Runner) RouteDiameter() int {
	if r.s.r.ep.fab == nil {
		return 0
	}
	return r.s.r.ep.fab.Topology().Diameter()
}

// PublishMetrics flushes the episodes accumulated so far into the
// Params' metrics registry (a no-op when metrics are disabled). Call it
// once, after the last Run: the flush adds the running totals, so
// repeated calls double-count.
func (r *Runner) PublishMetrics() { r.s.publish(r.s.r.ep.p.Metrics) }

// FlushTraces moves the traces retained so far into the tracing config's
// Collector (a no-op when tracing is off). Call it after the last Run —
// or periodically; flushed traces are cleared from the runner.
func (r *Runner) FlushTraces() { r.s.rec.Flush() }

// detectionEvent is the t0 event; the covering set is pinned in
// e.detCov by run.
func detectionEvent(_ float64, arg any) {
	arg.(*episode).onDetection()
}

// onDetection implements the scheme-dependent first response of the
// satellite(s) covering the target at t0 (pinned in e.detCov).
func (e *episode) onDetection() {
	covering := e.detCov
	defer func() { e.failRollArmed = true }()
	e.note(TraceDetection)
	if len(covering) >= 2 {
		// Simultaneous multiple coverage at detection: one joint
		// computation yields the level-3 result, no coordination needed
		// (§3.1). The latest-arriving footprint's satellite reports.
		lead := e.sat(covering[len(covering)-1])
		lead.ordinal = 1
		e.jointComputation(lead, 2)
		e.armPreliminaryGuard(lead)
		return
	}

	s1 := e.sat(covering[0])
	s1.ordinal = 1
	s1.passes = 1
	s1.level = qos.LevelSingle
	h1 := e.p.ComputeTime.Sample(e.rng)

	switch {
	case e.p.Scheme == qos.SchemeBAQ:
		// Deliver after the initial computation, no waiting.
		if e.rec != nil {
			s1.compSpan = e.rec.Async(trace.KindCompute, "initial-computation", int32(s1.id), e.t0)
		}
		e.sim.ScheduleCall(h1, "initial-computation", initialComputationBAQEvent, s1)
		e.armPreliminaryGuard(s1)

	case e.overlap:
		// OAQ, overlapping regime: withhold the preliminary result and
		// wait for the overlapped footprints (§3.1).
		if e.rec != nil {
			s1.compSpan = e.rec.Async(trace.KindCompute, "initial-computation", int32(s1.id), e.t0)
		}
		e.sim.ScheduleCall(h1, "initial-computation", initialComputationWithheldEvent, s1)
		tBeta := float64(s1.id+1) * e.l1
		if tBeta <= e.deadline {
			if e.rec != nil {
				s1.awaitSpan = e.rec.Async(trace.KindAwait, "await-overlap", int32(s1.id), e.t0)
			}
			e.sim.ScheduleCallAt(tBeta, "overlap-arrival", overlapArrivalEvent, s1)
		}
		e.armPreliminaryGuard(s1)

	default:
		// OAQ, underlapping regime: iterative sequential localization
		// along the coordination chain (§3.2). S1 holds terminal
		// responsibility until it forwards a request: if its own
		// computation overruns the deadline, the guard releases the
		// preliminary (partial) result on time. After a forward, the
		// wait timer (backward messaging) or the peer's terminal guard
		// (no-backward) takes over.
		if e.rec != nil {
			s1.compSpan = e.rec.Async(trace.KindCompute, "initial-computation", int32(s1.id), e.t0)
		}
		e.sim.ScheduleCall(h1, "initial-computation", initialComputationEvaluateEvent, s1)
		e.armPreliminaryGuard(s1)
	}
}

// initialComputationBAQEvent: the BAQ baseline delivers the initial
// result immediately, no coordination.
func initialComputationBAQEvent(t float64, arg any) {
	s1 := arg.(*satellite)
	if s1.ep.rec != nil {
		s1.ep.rec.EndArg(s1.compSpan, t, 1)
	}
	s1.ep.note(TraceComputationDone)
	s1.sendAlert(qos.LevelSingle, 1)
}

// initialComputationWithheldEvent: the overlap regime completes the
// initial computation but withholds the result pending the overlapped
// footprint's arrival.
func initialComputationWithheldEvent(t float64, arg any) {
	s1 := arg.(*satellite)
	if s1.ep.rec != nil {
		s1.ep.rec.EndArg(s1.compSpan, t, 1)
	}
	s1.ep.note(TraceComputationDone)
}

// initialComputationEvaluateEvent: the underlap regime evaluates the
// termination conditions after the initial computation.
func initialComputationEvaluateEvent(now float64, arg any) {
	s1 := arg.(*satellite)
	if s1.ep.rec != nil {
		s1.ep.rec.EndArg(s1.compSpan, now, 1)
	}
	s1.ep.note(TraceComputationDone)
	s1.evaluate(now)
}

// overlapArrivalEvent fires when the overlapped footprint reaches the
// target in the overlapping regime.
func overlapArrivalEvent(now float64, arg any) {
	s1 := arg.(*satellite)
	e := s1.ep
	e.note(TracePassArrival)
	if e.rec != nil {
		e.rec.End(s1.awaitSpan, now)
	}
	if e.signalActiveAt(now) {
		e.jointComputation(s1, 2)
		return
	}
	// The signal stopped before simultaneous coverage: no further
	// opportunity; release the preliminary result.
	if e.rec != nil {
		e.rec.Event(trace.KindEvent, "signal-lost", int32(s1.id+1), now, 0)
	}
	e.note(TraceSignalLost)
	e.noteTermination(TermSignalLost)
	s1.sendAlert(qos.LevelSingle, 1)
}

// jointComputation runs the simultaneous-coverage computation and sends
// the level-3 alert on completion.
func (e *episode) jointComputation(s *satellite, passes int) {
	h := e.p.ComputeTime.Sample(e.rng)
	s.jointPasses = passes
	if e.rec != nil {
		s.compSpan = e.rec.Async(trace.KindCompute, "joint-computation", int32(s.id), e.sim.Now())
	}
	e.sim.ScheduleCall(h, "joint-computation", jointComputationEvent, s)
}

func jointComputationEvent(t float64, arg any) {
	s := arg.(*satellite)
	e := s.ep
	s.passes = s.jointPasses
	s.level = qos.LevelSimultaneousDual
	if e.rec != nil {
		e.rec.EndArg(s.compSpan, t, float64(s.jointPasses))
	}
	e.note(TraceComputationDone)
	s.sendAlert(qos.LevelSimultaneousDual, s.jointPasses)
}

// armPreliminaryGuard guarantees the preliminary (level-1) result goes
// out by the deadline if nothing better has been sent — the
// "guaranteeing that in the worst case, with high probability the
// preliminary geolocation result will be delivered in a timely fashion"
// property of §3.3.
func (e *episode) armPreliminaryGuard(s *satellite) {
	e.sim.ScheduleCallAt(e.deadline, "preliminary-guard", preliminaryGuardEvent, s)
}

func preliminaryGuardEvent(t float64, arg any) {
	s := arg.(*satellite)
	e := s.ep
	if !s.sentAlert && !s.forwarded && !e.net.FailSilent(s.node) {
		e.note(TraceTimeout)
		if e.rec != nil {
			e.rec.Event(trace.KindEvent, "preliminary-guard", int32(s.id), t, 0)
		}
		e.noteTermination(TermDeadline)
		s.sendAlert(qos.LevelSingle, 1)
	}
}
