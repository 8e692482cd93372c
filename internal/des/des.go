// Package des is a deterministic discrete-event simulation kernel.
//
// It drives the two simulations in this repository: the long-horizon
// constellation degradation process (failures, spare deployments) and
// the short-horizon OAQ coordination episodes (crosslink messages,
// geolocation iterations). Events scheduled at equal times fire in
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
// The scheduling form decides recycling: ScheduleCall events (Agenda
// entries too) return to a freelist when they fire or on Reset, so
// their handles are valid only while pending; Schedule closure events
// are never recycled, so their handles may be canceled at any time.
package des

import (
	"fmt"
	"math"

	"satqos/internal/obs/trace"
)

// Handler is invoked when an event fires. now is the simulation time of
// the event.
type Handler func(now float64)

// ArgHandler is the allocation-free handler form used by ScheduleCall:
// a plain (usually package-level) function receiving the scheduling-time
// argument back at dispatch. Because neither the function value nor the
// argument requires a per-event closure, hot loops that schedule many
// short-lived events can stay free of heap allocations.
type ArgHandler func(now float64, arg any)

// Event is a scheduled occurrence. Events are created by
// Simulation.Schedule and may be canceled before they fire.
type Event struct {
	time     float64
	index    int // heap index, -1 once removed
	canceled bool
	handler  Handler
	argFn    ArgHandler
	arg      any
	label    string
}

// Time returns the simulation time at which the event is scheduled.
func (e *Event) Time() float64 { return e.time }

// Label returns the diagnostic label given at scheduling time.
func (e *Event) Label() string { return e.label }

// Canceled reports whether Cancel was called on the event.
func (e *Event) Canceled() bool { return e.canceled }

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
	halted      bool
	free        []*Event // recycled ScheduleCall events
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
// events never become an *Event); MaxHeapDepth is the peak
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
// reallocating. Pending ScheduleCall events are recycled. Any *Event
// previously returned by Schedule or ScheduleCall is invalid after a
// Reset.
func (s *Simulation) Reset() {
	for _, q := range s.queue {
		q.ev.index = -1
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
	s.halted = false
	s.freeHits = 0
	s.freeMisses = 0
	s.maxDepth = 0
}

// recycle returns a fired or reset ScheduleCall event to the freelist
// that both scheduling forms draw from. Closure events are never
// recycled, so a Schedule handle stays safe to Cancel after its event
// fired (Ticker's stop function relies on that).
func (s *Simulation) recycle(e *Event) {
	if e.argFn == nil {
		return
	}
	e.argFn = nil
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

// Fired returns the number of events executed so far.
func (s *Simulation) Fired() uint64 { return s.fired }

// Pending returns the number of scheduled, non-canceled events, heap and
// lanes together.
func (s *Simulation) Pending() int { return len(s.queue) + s.lanePending }

// Schedule registers handler to run after delay units of simulation time.
// The label is for diagnostics. Scheduling into the past is a programming
// error and panics; simultaneous events run in scheduling order. The
// returned event is never recycled, so canceling it is safe even after
// it fired.
func (s *Simulation) Schedule(delay float64, label string, handler Handler) *Event {
	if handler == nil {
		panic("des: Schedule with nil handler")
	}
	return s.schedule(delay, label, handler, nil, nil)
}

// ScheduleCall registers fn to run after delay units of simulation time,
// passing arg back at dispatch. It is the allocation-free counterpart of
// Schedule: when fn is a package-level function and arg is a pointer, no
// per-event closure is heap-allocated, and the event's storage is
// recycled once it fires (or on Reset), which keeps hot simulation loops
// (the OAQ episode engine) free of steady-state allocations.
//
// The returned handle is valid only until the event fires: afterwards
// it may already stand for an unrelated event, so Cancel it only while
// it is pending.
func (s *Simulation) ScheduleCall(delay float64, label string, fn ArgHandler, arg any) *Event {
	if fn == nil {
		panic("des: ScheduleCall with nil handler")
	}
	return s.schedule(delay, label, nil, fn, arg)
}

// ScheduleCallAt is ScheduleCall at absolute simulation time t >= Now.
func (s *Simulation) ScheduleCallAt(t float64, label string, fn ArgHandler, arg any) *Event {
	if t < s.now {
		panic(fmt.Sprintf("des: ScheduleCallAt(%q) at %g before now %g", label, t, s.now))
	}
	return s.ScheduleCall(t-s.now, label, fn, arg)
}

// schedule is the common scheduling core behind Schedule and
// ScheduleCall; exactly one of handler and argFn is non-nil.
func (s *Simulation) schedule(delay float64, label string, handler Handler, argFn ArgHandler, arg any) *Event {
	if delay < 0 || math.IsNaN(delay) {
		panic(fmt.Sprintf("des: Schedule(%q) with negative or NaN delay %g", label, delay))
	}
	s.seq++
	var e *Event
	if n := len(s.free); n > 0 {
		// Refilled field by field below rather than by copying a whole
		// Event literal; push sets index.
		e = s.free[n-1]
		s.free[n-1] = nil
		s.free = s.free[:n-1]
		e.canceled = false
		s.freeHits++
	} else {
		e = &Event{}
		s.freeMisses++
	}
	e.time = s.now + delay
	e.handler = handler
	e.argFn = argFn
	e.arg = arg
	e.label = label
	s.queue.push(e, s.seq)
	if d := len(s.queue) + s.lanePending; d > s.maxDepth {
		s.maxDepth = d
	}
	return e
}

// ScheduleAt registers handler to run at absolute simulation time t >= Now.
func (s *Simulation) ScheduleAt(t float64, label string, handler Handler) *Event {
	if t < s.now {
		panic(fmt.Sprintf("des: ScheduleAt(%q) at %g before now %g", label, t, s.now))
	}
	return s.Schedule(t-s.now, label, handler)
}

// Cancel removes the event from the pending set; a canceled event never
// fires. Canceling an already-fired or already-canceled event is a no-op.
func (s *Simulation) Cancel(e *Event) {
	if e == nil {
		return
	}
	if !e.canceled && e.index >= 0 {
		s.queue.remove(e.index)
	}
	e.canceled = true
}

// Halt stops the run loop after the current event completes. It is the
// mechanism by which an event handler ends a Run early.
func (s *Simulation) Halt() { s.halted = true }

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

// Run fires events until the queue drains, Halt is called, or the clock
// would pass horizon (events strictly after horizon remain pending). It
// returns the number of events fired during this call.
func (s *Simulation) Run(horizon float64) uint64 {
	if horizon < s.now {
		panic(fmt.Sprintf("des: Run horizon %g before now %g", horizon, s.now))
	}
	s.halted = false
	start := s.fired
	// Do not fire events beyond the horizon; neither the queue nor a
	// lane holds canceled events, so the least head is the next event to
	// fire.
	for !s.halted {
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
	// A run always leaves the clock at the horizon (unless halted early)
	// so that successive Run calls observe contiguous time.
	if !s.halted && s.now < horizon {
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
		if e.handler != nil {
			e.handler(s.now)
		} else {
			e.argFn(s.now, e.arg)
		}
		s.tracer.End(sp, s.now)
	} else if e.handler != nil {
		e.handler(s.now)
	} else {
		e.argFn(s.now, e.arg)
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
// compares slice elements and never dereferences an *Event; the only
// event access is the store that keeps Event.index equal to the
// event's slot, which Cancel relies on to remove eagerly.
//
// Invariant: every queued event is live. Cancel removes its event at
// once, and a fired event is popped before its handler runs, so the
// queue never holds a canceled or fired event and its head is always
// the next event to fire.
type eventQueue []queueEntry

// queueEntry is one heap slot: the event's ordering key and the event.
type queueEntry struct {
	time float64
	seq  uint64
	ev   *Event
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

// push inserts e with scheduling sequence number seq.
func (q *eventQueue) push(e *Event, seq uint64) {
	*q = append(*q, queueEntry{time: e.time, seq: seq, ev: e})
	q.up(len(*q) - 1)
}

// pop removes and returns the head event. The queue must be non-empty.
func (q *eventQueue) pop() *Event {
	return q.remove(0)
}

// remove deletes the event at slot i and returns it with index -1.
func (q *eventQueue) remove(i int) *Event {
	h := *q
	n := len(h) - 1
	e := h[i].ev
	h[i] = h[n]
	h[n] = queueEntry{}
	*q = h[:n]
	if i < n && !q.down(i) {
		q.up(i)
	}
	e.index = -1
	return e
}

// up sifts the entry at slot i toward the root.
func (q eventQueue) up(i int) {
	x := q[i]
	for i > 0 {
		p := (i - 1) / 2
		if !x.before(&q[p]) {
			break
		}
		q[i] = q[p]
		q[i].ev.index = i
		i = p
	}
	q[i] = x
	x.ev.index = i
}

// down sifts the entry at slot i0 toward the leaves and reports whether
// it moved.
func (q eventQueue) down(i0 int) bool {
	n := len(q)
	x := q[i0]
	i := i0
	for {
		c := 2*i + 1
		if c >= n {
			break
		}
		if r := c + 1; r < n && q[r].before(&q[c]) {
			c = r
		}
		if !q[c].before(&x) {
			break
		}
		q[i] = q[c]
		q[i].ev.index = i
		i = c
	}
	q[i] = x
	x.ev.index = i
	return i > i0
}

// Ticker schedules handler every period units of time, starting after the
// first period, until the returned stop function is called. It is used
// for the scheduled ground-spare deployment policy (period φ).
func (s *Simulation) Ticker(period float64, label string, handler Handler) (stop func()) {
	if period <= 0 || math.IsNaN(period) {
		panic(fmt.Sprintf("des: Ticker(%q) with non-positive period %g", label, period))
	}
	stopped := false
	var pending *Event
	var tick Handler
	tick = func(now float64) {
		if stopped {
			return
		}
		handler(now)
		if !stopped {
			pending = s.Schedule(period, label, tick)
		}
	}
	pending = s.Schedule(period, label, tick)
	return func() {
		stopped = true
		s.Cancel(pending)
	}
}
