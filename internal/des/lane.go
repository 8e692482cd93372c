package des

import (
	"fmt"
	"math"
)

// Lane is a FIFO of events that all fire a fixed delay after they are
// scheduled — a link's transmission time, a hop's propagation delay.
// Because the clock never decreases and float addition is monotone, a
// lane's fire times never decrease in schedule order, and its sequence
// numbers increase, so the lane's head is its least (time, seq) key and
// the lane needs no heap. The simulation fires the least key among the
// heap head and every lane head, so an event fires at the same point in
// the sequence whether it was scheduled on a lane or on the heap with
// the lane's delay.
//
// Lane events never become an *event, so they bypass the freelist;
// Reset empties every lane.
type Lane struct {
	sim   *Simulation
	delay float64
	// buf is a ring of power-of-two length holding n events from head.
	buf  []laneEntry
	head int
	n    int
}

// laneEntry is one pending lane event.
type laneEntry struct {
	time  float64
	seq   uint64
	fn    ArgHandler
	arg   any
	label string
}

// NewLane registers a fixed-delay lane on the simulation. Lanes live as
// long as the simulation; a caller creates its lanes once and retargets
// them with SetDelay.
func (s *Simulation) NewLane(delay float64) *Lane {
	checkLaneDelay(delay)
	l := &Lane{sim: s, delay: delay}
	s.lanes = append(s.lanes, l)
	return l
}

// Delay returns the lane's fixed delay.
func (l *Lane) Delay() float64 { return l.delay }

// SetDelay changes the lane's delay. The lane must be empty: a pending
// event scheduled under the old delay could otherwise fire after one
// scheduled later under a shorter new delay, breaking the lane's FIFO
// order.
func (l *Lane) SetDelay(delay float64) {
	checkLaneDelay(delay)
	if l.n > 0 {
		panic(fmt.Sprintf("des: SetDelay on a lane holding %d events", l.n))
	}
	l.delay = delay
}

func checkLaneDelay(delay float64) {
	if delay < 0 || math.IsNaN(delay) || math.IsInf(delay, 0) {
		panic(fmt.Sprintf("des: lane delay %g must be finite and non-negative", delay))
	}
}

// ScheduleLane registers fn to run l.Delay() units of simulation time
// from now, passing arg back at dispatch. It is ScheduleCall for a
// fixed-delay lane: the event fires exactly where ScheduleCall with the
// lane's delay would have fired it, but costs O(1) instead of a heap
// sift, and allocates nothing once the lane's ring has grown.
func (s *Simulation) ScheduleLane(l *Lane, label string, fn ArgHandler, arg any) {
	if fn == nil {
		panic("des: ScheduleLane with nil handler")
	}
	if l.sim != s {
		panic("des: ScheduleLane on another simulation's lane")
	}
	if l.n == len(l.buf) {
		l.grow()
	}
	s.seq++
	x := &l.buf[(l.head+l.n)&(len(l.buf)-1)]
	x.time = s.now + l.delay
	x.seq = s.seq
	x.fn = fn
	x.arg = arg
	x.label = label
	l.n++
	s.lanePending++
	if d := len(s.queue) + s.lanePending; d > s.maxDepth {
		s.maxDepth = d
	}
}

// grow doubles the ring, unrolling it so the head sits at slot 0.
func (l *Lane) grow() {
	buf := make([]laneEntry, max(16, 2*len(l.buf)))
	k := copy(buf, l.buf[l.head:])
	copy(buf[k:], l.buf[:l.head])
	l.buf = buf
	l.head = 0
}

// clear drops every pending event, releasing handler and argument
// references.
func (l *Lane) clear() {
	for ; l.n > 0; l.n-- {
		l.buf[l.head] = laneEntry{}
		l.head = (l.head + 1) & (len(l.buf) - 1)
	}
	l.head = 0
}
