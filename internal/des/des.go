// Package des is a deterministic discrete-event simulation kernel.
//
// It drives the OAQ coordination episodes (crosslink messages, routed
// ISL hops, scripted faults, geolocation iterations) and the membership
// protocol's heartbeat rounds; the constellation degradation process is
// simulated by package san instead. Events scheduled at equal times fire in
// schedule order (FIFO), which makes runs reproducible bit-for-bit for a
// fixed seed.
//
// Pending events live in a binary min-heap, plus any number of
// fixed-delay lanes (see Lane): FIFO rings for events that all fire the
// same delay after they are scheduled, which need no sifting. Every
// event carries one (time, seq) key from a single sequence counter, and
// the kernel always fires the least key among the heap head and the lane
// heads, so routing an event through a lane never changes the firing
// order.
//
// Every event has one form: an ArgHandler and the argument it gets back
// at dispatch, scheduled by ScheduleCall, ScheduleCallAt or ScheduleLane
// (Agenda and Ticker build on them). Scheduling returns no handle and an
// event cannot be canceled; a heap event's storage goes back to a
// freelist when it fires or on Reset.
package des

import (
	"fmt"
	"math"

	"satqos/internal/obs/trace"
)

// ArgHandler is invoked when an event fires: now is the simulation time
// of the event and arg the argument given at scheduling. A plain
// (usually package-level) function with a pointer argument needs no
// per-event closure, so hot loops that schedule many short-lived events
// can stay free of heap allocations.
type ArgHandler func(now float64, arg any)

// event is one pending heap occurrence.
type event struct {
	time  float64
	fn    ArgHandler
	arg   any
	label string
}

// Simulation is a single-threaded event-driven simulator. The zero value
// is a simulation positioned at time 0 with no events; it is ready to
// use.
type Simulation struct {
	now   float64
	queue eventQueue
	// lanePending counts the events held by all lanes; while it is zero
	// the run loop takes the heap-only path.
	lanePending int
	seq         uint64
	fired       uint64
	free        []*event // recycled heap events
	// tracer, when non-nil, records a dispatch span around every fired
	// event (see SetTracer). The kernel pays one nil check when tracing
	// is off.
	tracer *trace.Recorder
	// Kernel counters (see Stats); plain fields, since the simulation is
	// single-threaded by contract.
	freeHits   uint64
	freeMisses uint64
	maxDepth   int
	// lanes are the fixed-delay lanes registered by NewLane.
	lanes []*Lane
}

// Stats is a snapshot of the kernel's counters since the last Reset.
// Scheduled counts scheduled events (heap and lane), Fired dispatched
// events; FreelistHits and FreelistMisses split the heap events among
// them by whether the event storage came from the recycled pool (lane
// events never become an *event); MaxHeapDepth is the peak
// pending-event count, heap and lanes together.
type Stats struct {
	Scheduled      uint64
	Fired          uint64
	FreelistHits   uint64
	FreelistMisses uint64
	MaxHeapDepth   int
}

// Stats returns the kernel counters accumulated since the last Reset.
func (s *Simulation) Stats() Stats {
	return Stats{
		Scheduled:      s.seq,
		Fired:          s.fired,
		FreelistHits:   s.freeHits,
		FreelistMisses: s.freeMisses,
		MaxHeapDepth:   s.maxDepth,
	}
}

// Reset returns the simulation to time zero with an empty event queue
// and empty lanes, keeping their backing storage and the recycled-event
// pool so a caller can run many short simulations back to back without
// reallocating. Pending heap events are recycled.
func (s *Simulation) Reset() {
	for _, q := range s.queue {
		s.recycle(q.ev)
	}
	clear(s.queue)
	s.queue = s.queue[:0]
	for _, l := range s.lanes {
		l.clear()
	}
	s.lanePending = 0
	s.now = 0
	s.seq = 0
	s.fired = 0
	s.freeHits = 0
	s.freeMisses = 0
	s.maxDepth = 0
}

// recycle returns a fired or reset event to the freelist that
// ScheduleCall draws from.
func (s *Simulation) recycle(e *event) {
	e.fn = nil
	e.arg = nil
	s.free = append(s.free, e)
}

// ClearEventFreelist discards the recycled-event pool (keeping its
// backing array). The episode engine calls it whenever it draws a
// pooled runner: the freelist hit/miss counters are published metrics,
// and they must be a function of the work alone — not of how warm a
// pool the runner happened to inherit — for snapshots to stay
// bit-identical at any worker count.
func (s *Simulation) ClearEventFreelist() {
	clear(s.free)
	s.free = s.free[:0]
}

// SetTracer attaches (or with nil, detaches) a span recorder: every
// dispatched event is wrapped in a KindDispatch span labeled with the
// event's scheduling label, so protocol spans created inside the handler
// nest under it. The tracer survives Reset, mirroring the freelist.
func (s *Simulation) SetTracer(r *trace.Recorder) { s.tracer = r }

// Now returns the current simulation time.
func (s *Simulation) Now() float64 { return s.now }

// Pending returns the number of scheduled events, heap and lanes
// together.
func (s *Simulation) Pending() int { return len(s.queue) + s.lanePending }

// ScheduleCall registers fn to run after delay units of simulation time,
// passing arg back at dispatch. The label is for diagnostics. Scheduling
// into the past is a programming error and panics; simultaneous events
// run in scheduling order. The event's storage is recycled once it fires
// (or on Reset), so when fn is a package-level function and arg a
// pointer, hot simulation loops (the OAQ episode engine) schedule
// without steady-state allocations.
func (s *Simulation) ScheduleCall(delay float64, label string, fn ArgHandler, arg any) {
	if fn == nil {
		panic("des: ScheduleCall with nil handler")
	}
	if delay < 0 || math.IsNaN(delay) {
		panic(fmt.Sprintf("des: ScheduleCall(%q) with negative or NaN delay %g", label, delay))
	}
	s.seq++
	var e *event
	if n := len(s.free); n > 0 {
		e = s.free[n-1]
		s.free[n-1] = nil
		s.free = s.free[:n-1]
		s.freeHits++
	} else {
		e = &event{}
		s.freeMisses++
	}
	e.time = s.now + delay
	e.fn = fn
	e.arg = arg
	e.label = label
	s.queue.push(e, s.seq)
	if d := len(s.queue) + s.lanePending; d > s.maxDepth {
		s.maxDepth = d
	}
}

// ScheduleCallAt is ScheduleCall at absolute simulation time t >= Now.
func (s *Simulation) ScheduleCallAt(t float64, label string, fn ArgHandler, arg any) {
	if t < s.now {
		panic(fmt.Sprintf("des: ScheduleCallAt(%q) at %g before now %g", label, t, s.now))
	}
	s.ScheduleCall(t-s.now, label, fn, arg)
}

// Step fires the next pending event, advancing the clock, and reports
// whether an event was fired.
func (s *Simulation) Step() bool {
	if s.lanePending > 0 {
		if l := s.nextLane(); l != nil {
			s.fireLane(l)
			return true
		}
	}
	if len(s.queue) == 0 {
		return false
	}
	s.fireHeap()
	return true
}

// Run fires events until the queue drains or the clock would pass
// horizon (events strictly after horizon remain pending), then leaves
// the clock at the horizon so that successive Run calls observe
// contiguous time. It returns the number of events fired during this
// call.
func (s *Simulation) Run(horizon float64) uint64 {
	if horizon < s.now {
		panic(fmt.Sprintf("des: Run horizon %g before now %g", horizon, s.now))
	}
	start := s.fired
	// Do not fire events beyond the horizon; the least head among the
	// heap and the lanes is the next event to fire.
	for {
		if s.lanePending > 0 {
			if l := s.nextLane(); l != nil {
				if l.buf[l.head].time > horizon {
					break
				}
				s.fireLane(l)
				continue
			}
		}
		if len(s.queue) == 0 || s.queue[0].time > horizon {
			break
		}
		s.fireHeap()
	}
	if s.now < horizon {
		s.now = horizon
	}
	return s.fired - start
}

// fireHeap pops and dispatches the heap head. The heap must be
// non-empty.
func (s *Simulation) fireHeap() {
	e := s.queue.pop()
	s.now = e.time
	s.fired++
	if s.tracer != nil {
		sp := s.tracer.Begin(trace.KindDispatch, e.label, trace.SatKernel, s.now)
		e.fn(s.now, e.arg)
		s.tracer.End(sp, s.now)
	} else {
		e.fn(s.now, e.arg)
	}
	// Recycled after the handler so a handler scheduling new events
	// cannot be handed its own in-flight event.
	s.recycle(e)
}

// nextLane returns the lane whose head is the next event to fire, or nil
// when the heap head orders first. At least one lane must hold an event.
func (s *Simulation) nextLane() *Lane {
	var best *laneEntry
	var bestLane *Lane
	for _, l := range s.lanes {
		if l.n == 0 {
			continue
		}
		if h := &l.buf[l.head]; best == nil || keyBefore(h.time, h.seq, best.time, best.seq) {
			best, bestLane = h, l
		}
	}
	if len(s.queue) > 0 && keyBefore(s.queue[0].time, s.queue[0].seq, best.time, best.seq) {
		return nil
	}
	return bestLane
}

// keyBefore is the (time, seq) order of queueEntry.before, spelled out
// for comparing lane heads with each other and with the heap head.
func keyBefore(t1 float64, s1 uint64, t2 float64, s2 uint64) bool {
	if t1 != t2 {
		return t1 < t2
	}
	return s1 < s2
}

// fireLane pops and dispatches the head of l. The entry is cleared
// before its handler runs, so the handler may schedule onto l again.
func (s *Simulation) fireLane(l *Lane) {
	x := &l.buf[l.head]
	fn, arg, label := x.fn, x.arg, x.label
	s.now = x.time
	*x = laneEntry{}
	l.head = (l.head + 1) & (len(l.buf) - 1)
	l.n--
	s.lanePending--
	s.fired++
	if s.tracer != nil {
		sp := s.tracer.Begin(trace.KindDispatch, label, trace.SatKernel, s.now)
		fn(s.now, arg)
		s.tracer.End(sp, s.now)
	} else {
		fn(s.now, arg)
	}
}

// eventQueue is a binary min-heap of pending events ordered by
// (time, seq). Each entry carries its ordering key inline, so sifting
// compares slice elements and never dereferences an *event. A fired
// event is popped before its handler runs, so the head is always the
// next heap event to fire.
type eventQueue []queueEntry

// queueEntry is one heap slot: the event's ordering key and the event.
type queueEntry struct {
	time float64
	seq  uint64
	ev   *event
}

// before reports whether a orders strictly ahead of b. (time, seq) is a
// strict total order — seq is unique per Reset — so the firing sequence
// does not depend on the heap's internal layout.
func (a *queueEntry) before(b *queueEntry) bool {
	if a.time != b.time {
		return a.time < b.time
	}
	return a.seq < b.seq
}

// push inserts e with scheduling sequence number seq, sifting it toward
// the root.
func (q *eventQueue) push(e *event, seq uint64) {
	*q = append(*q, queueEntry{time: e.time, seq: seq, ev: e})
	h := *q
	i := len(h) - 1
	x := h[i]
	for i > 0 {
		p := (i - 1) / 2
		if !x.before(&h[p]) {
			break
		}
		h[i] = h[p]
		i = p
	}
	h[i] = x
}

// pop removes and returns the head event, sifting the last entry down
// from the root. The queue must be non-empty.
func (q *eventQueue) pop() *event {
	h := *q
	n := len(h) - 1
	e := h[0].ev
	x := h[n]
	h[n] = queueEntry{}
	h = h[:n]
	*q = h
	if n == 0 {
		return e
	}
	i := 0
	for {
		c := 2*i + 1
		if c >= n {
			break
		}
		if r := c + 1; r < n && h[r].before(&h[c]) {
			c = r
		}
		if !h[c].before(&x) {
			break
		}
		h[i] = h[c]
		i = c
	}
	h[i] = x
	return e
}

// Ticker fires fn(now, arg) every period units of time, starting after
// the first period, for as long as the simulation runs (a Reset drops
// it). Each tick is a ScheduleCall event that re-arms the next one after
// fn returns. Membership's heartbeat rounds use it.
func (s *Simulation) Ticker(period float64, label string, fn ArgHandler, arg any) {
	if period <= 0 || math.IsNaN(period) {
		panic(fmt.Sprintf("des: Ticker(%q) with non-positive period %g", label, period))
	}
	s.ScheduleCall(period, label, tickEvent, &ticker{sim: s, period: period, label: label, fn: fn, arg: arg})
}

// ticker is the argument of a Ticker's events.
type ticker struct {
	sim    *Simulation
	period float64
	label  string
	fn     ArgHandler
	arg    any
}

func tickEvent(now float64, arg any) {
	t := arg.(*ticker)
	t.fn(now, t.arg)
	t.sim.ScheduleCall(t.period, t.label, tickEvent, t)
}
