package oaq

import (
	"testing"

	"satqos/internal/qos"
	"satqos/internal/route"
	"satqos/internal/stats"
)

// congestedRouteParams is a deliberately overloaded fabric: 3 pkt/min
// links (the golden routed fabric's rate) under 60 pkt/min of background
// load queue coordination requests long enough that some arrive after
// the episode deadline — the regime that used to panic the
// terminal-responsibility guard with a past-time schedule. At 6 pkt/min
// such arrivals are rare enough (about one in 400 episodes) that a
// single seed may see none.
func congestedRouteParams(policy string) Params {
	rc := route.Default(policy, 10)
	rc.ISLRatePerMin = 3
	rc.TrafficLoadPerMin = 60
	p := ReferenceParams(10, qos.SchemeOAQ)
	p.Route = &rc
	return p
}

// TestCongestedRoutedRequestPastDeadline is a regression test for the
// past-deadline scheduling bug class: on an ideal delay-δ channel every
// protocol message arrives within δ, so the no-backward guard armed on
// request arrival could schedule at the absolute deadline unchecked.
// Routed queueing breaks that bound — a request can arrive after τ has
// expired — and the guard must clamp to "now" instead of panicking the
// kernel. Unclamped, such an episode panicked under every policy. The
// test is not vacuous: a guard dispatched strictly after the deadline
// is one that took the clamp, and at least one of the 400 episodes must
// produce it. The guard is wrapped to count those dispatches; a
// congested episode records thousands of kernel dispatches, far more
// than a span ring holds.
func TestCongestedRoutedRequestPastDeadline(t *testing.T) {
	guard := noBackwardGuardEvent
	t.Cleanup(func() { noBackwardGuardEvent = guard })
	clamped := 0
	noBackwardGuardEvent = func(now float64, arg any) {
		if now > arg.(*satellite).ep.deadline {
			clamped++
		}
		guard(now, arg)
	}
	for _, policy := range route.PolicyNames() {
		t.Run(policy, func(t *testing.T) {
			r, err := NewRunner(congestedRouteParams(policy), stats.NewRNG(1, 0))
			if err != nil {
				t.Fatal(err)
			}
			clamped = 0
			for ep := 0; ep < 400; ep++ {
				r.Run()
				if err := r.RouteStats().CheckInvariant(); err != nil {
					t.Fatalf("episode %d: %v", ep, err)
				}
			}
			if clamped == 0 {
				t.Fatal("no coordination request arrived after the deadline in 400 congested episodes: the clamp went unexercised")
			}
		})
	}
}

// TestCongestedRoutedRetriesPastDeadline drives the same overload with
// retransmissions enabled, covering the ack-timeout arm (its clamp is
// defensive — TC-2 keeps forwards strictly before the deadline — but
// the congested retry path must stay panic-free regardless).
func TestCongestedRoutedRetriesPastDeadline(t *testing.T) {
	p := congestedRouteParams(route.PolicyStatic)
	p.RequestRetries = 2
	r, err := NewRunner(p, stats.NewRNG(1, 0))
	if err != nil {
		t.Fatal(err)
	}
	for ep := 0; ep < 400; ep++ {
		r.Run()
	}
}
