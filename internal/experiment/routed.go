package experiment

import (
	"fmt"

	"satqos/internal/fault"
	"satqos/internal/oaq"
	"satqos/internal/qos"
	"satqos/internal/route"
)

// RoutedLoadSweep races the OAQ protocol over a multi-hop routed ISL
// fabric and measures how background cross-traffic erodes the QoS
// spectrum: P(Y >= y) and the normalized mean alert latency as a
// function of the injected traffic load (packets/min), for one routing
// policy. The fabric's queueing, finite link capacity, and per-hop
// loss turn congestion into late or lost alerts, which the deadline
// check converts into lower delivery levels. An optional fault
// scenario (fail-silent windows, loss bursts — applied per hop on the
// routed fabric) is layered on every point.
//
// The latency series is reported as mean-latency/τ so it shares the
// [0, 1] probability scale of the P(Y>=y) curves (and the Wilson-CI
// comparison the golden corpus applies to Monte-Carlo series).
//
// Every point evaluates the same seeded workload (common random
// numbers), and the points run concurrently (Workers wide).
func RoutedLoadSweep(loads []float64, rc route.Config, scenario *fault.Scenario, k, retries, episodes int, seed uint64) (*Sweep, error) {
	if len(loads) == 0 {
		loads = []float64{0, 60, 180}
	}
	if k <= 0 {
		k = 10
	}
	if episodes <= 0 {
		episodes = 20000
	}
	sweep := &Sweep{
		Title: fmt.Sprintf("Routed ISL fabric (%s): P(Y>=y) and latency vs background traffic load (k=%d, retries=%d, %d episodes per point)",
			rc.Policy, k, retries, episodes),
		XLabel: "traffic-load-per-min",
		X:      loads,
		Notes: []string{
			fmt.Sprintf("routing policy %q on a %dx%d grid, ISL rate %g pkt/min, queue cap %d",
				rc.Policy, rc.Planes, rc.PerPlane, rc.ISLRatePerMin, rc.QueueCap),
			"latency series is mean alert latency divided by the deadline τ",
			"common random numbers across points: every load replays the same seeded workload",
		},
	}
	if !scenario.Empty() {
		sweep.Notes = append(sweep.Notes,
			fmt.Sprintf("fault scenario %q layered on every point (%d fail-silent windows, %d loss bursts)",
				scenario.Name, len(scenario.FailSilent), len(scenario.LossBursts)))
	}
	names := []string{"OAQ y>=1", "OAQ y>=2", "OAQ y>=3", "mean-latency/tau"}
	return mapSeries(sweep, names, func(i int, pt point) ([]float64, error) {
		cfg := rc
		cfg.TrafficLoadPerMin = loads[i]
		p := oaq.ReferenceParams(k, qos.SchemeOAQ)
		p.Route = &cfg
		p.Faults = scenario
		p.RequestRetries = retries
		ev, err := pt.simulate(p, fmt.Sprintf("routed-load/%s-l%g", cfg.Policy, loads[i]), episodes, seed)
		if err != nil {
			return nil, fmt.Errorf("experiment: RoutedLoadSweep at load=%g: %w", loads[i], err)
		}
		latency := 0.0
		if ev.MeanDeliveryLatency == ev.MeanDeliveryLatency { // not NaN
			latency = ev.MeanDeliveryLatency / p.TauMin
		}
		return []float64{
			ev.PMF.CCDF(qos.LevelSingle),
			ev.PMF.CCDF(qos.LevelSequentialDual),
			ev.PMF.CCDF(qos.LevelSimultaneousDual),
			latency,
		}, nil
	})
}
