package oaq

import (
	"testing"

	"satqos/internal/qos"
	"satqos/internal/route"
	"satqos/internal/stats"
)

// TestRebindKeepsOneFabric: a pooled runner rebound back and forth
// between routed and unrouted parameters keeps the one fabric it built
// first (a new fabric would register two more lanes on the runner's
// simulation every round), detaches it while unrouted, and its routed
// episodes still match a freshly built runner's outcome for outcome.
func TestRebindKeepsOneFabric(t *testing.T) {
	rc := route.Default(route.PolicyQLearning, 10)
	rc.ISLRatePerMin = 3
	rc.TrafficLoadPerMin = 180
	routed := ReferenceParams(10, qos.SchemeOAQ)
	routed.Route = &rc
	routed.RequestRetries = 2
	plain := ReferenceParams(10, qos.SchemeOAQ)

	r, err := newEpisodeRunner(routed, stats.NewRNG(3, 0))
	if err != nil {
		t.Fatal(err)
	}
	fab := r.fab
	if fab == nil || r.ep.fab != fab {
		t.Fatal("routed runner built without an attached fabric")
	}
	for round := 1; round <= 10; round++ {
		p := plain
		if round%2 == 0 {
			p = routed
		}
		rng := stats.NewRNG(3, uint64(round))
		if err := r.rebind(p, rng); err != nil {
			t.Fatal(err)
		}
		if r.fab != fab {
			t.Fatalf("round %d: runner replaced its fabric", round)
		}
		if (r.ep.fab != nil) != (p.Route != nil) {
			t.Fatalf("round %d: fabric attached=%t with Route set=%t", round, r.ep.fab != nil, p.Route != nil)
		}
		fresh, err := newEpisodeRunner(p, stats.NewRNG(3, uint64(round)))
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 20; i++ {
			got, want := r.run(), fresh.run()
			if !episodeResultsEqual(got, want) {
				t.Fatalf("round %d episode %d: rebound %+v, fresh %+v", round, i, got, want)
			}
			if p.Route != nil && r.ep.fab.Stats() != fresh.ep.fab.Stats() {
				t.Fatalf("round %d episode %d: fabric stats %+v, fresh %+v",
					round, i, r.ep.fab.Stats(), fresh.ep.fab.Stats())
			}
		}
	}
}
