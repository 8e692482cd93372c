package main

import (
	"fmt"
	"math"
	"path/filepath"
	"time"

	"satqos/internal/capacity"
	"satqos/internal/experiment"
	"satqos/internal/fault"
	"satqos/internal/mission"
	"satqos/internal/oaq"
	"satqos/internal/obs"
	"satqos/internal/qos"
	"satqos/internal/route"
	"satqos/internal/validate"
)

// Batch job sizes. One cycle runs every job once; the routed sweep
// dominates it, so its per-point budget sets the cycle length.
const (
	simVsAnalyticEpisodes = 20000
	routedEpisodes        = 60
	missionRatePerMin     = 0.05
	missionHorizonMin     = 3 * 24 * 60
	// Gates of the jobs that have no golden snapshot: the package
	// tests' protocol-vs-analytic tolerance and StochGeomCheck's
	// documented 1% relative mean error.
	simVsAnalyticTol = 0.025
	stochGeomTol     = 0.01
)

// Batch job names, in cycle order.
const (
	jobFigures  = "figures"
	jobRouted   = "routed"
	jobCoverage = "coverage-check"
	jobMission  = "mission"
)

var batchJobs = []string{jobFigures, jobRouted, jobCoverage, jobMission}

// routedLoads is the traffic-load axis of the routed job (the routed
// golden snapshots' axis).
var routedLoads = []float64{0, 60, 180}

// routedConfig is the fabric of the routed golden snapshots: a 7×10
// Walker-star grid with links throttled to 3 pkt/min; the Q-learning
// snapshot also carries a degraded-mode fault scenario.
func routedConfig(policy string) (route.Config, *fault.Scenario) {
	rc := route.Default(policy, 10)
	rc.ISLRatePerMin = 3
	if policy != route.PolicyQLearning {
		return rc, nil
	}
	return rc, &fault.Scenario{
		Name:       "routed-degraded",
		FailSilent: []fault.FailSilentWindow{{Sat: 3, StartMin: 1, EndMin: 6}},
		LossBursts: []fault.LossBurst{{StartMin: 0, EndMin: 4, Prob: 0.3}},
	}
}

// batch runs the offline reproduction jobs. Each job's metric families
// accumulate in its own registry (experiment.Metrics is pointed at it
// while the job runs).
type batch struct {
	goldens map[string]*validate.Golden
	diam    map[string]int // routed topology diameter per policy
	regs    map[string]*obs.Registry
	times   map[string][]float64 // job wall times, seconds
	runs    int                  // mission runs
	// Memo-cache hits and misses of the cold figures jobs (the caches
	// are cleared at the start of each one).
	capHits, capMisses, gHits, gMisses uint64
}

// newBatch loads the golden snapshots the jobs are checked against
// from root, the repository checkout.
func newBatch(root string) (*batch, error) {
	experiment.Workers = clients
	b := &batch{
		goldens: make(map[string]*validate.Golden),
		diam:    make(map[string]int),
	}
	b.reset()
	names := []string{"fig7", "fig8", "fig9"}
	for _, p := range route.PolicyNames() {
		names = append(names, "routed-"+p)
		rc, _ := routedConfig(p)
		topo, err := route.NewTopology(rc)
		if err != nil {
			return nil, err
		}
		b.diam[p] = topo.Diameter()
	}
	for _, n := range names {
		g, err := validate.LoadGolden(filepath.Join(root, validate.GoldenDir, n+".json"))
		if err != nil {
			return nil, err
		}
		b.goldens[n] = g
	}
	return b, nil
}

// reset forgets the registries and timings of earlier cycles.
func (b *batch) reset() {
	b.regs = make(map[string]*obs.Registry)
	b.times = make(map[string][]float64)
	b.runs = 0
	b.capHits, b.capMisses, b.gHits, b.gMisses = 0, 0, 0, 0
	for _, j := range batchJobs {
		b.regs[j] = obs.NewRegistry()
	}
}

// cycle runs every job once with seeds derived from (seed, c) and
// returns the jobs' check failures.
func (b *batch) cycle(seed uint64, c int, tr *tracer, phase string, parent int64) []error {
	jobSeed := splitmix64(seed^splitmix64(uint64(c)+1)) | 1
	var errs []error
	for _, job := range batchJobs {
		experiment.Metrics = b.regs[job]
		sp := tr.start("batch."+job, phase, parent, 0)
		t0 := time.Now()
		err := b.run(job, jobSeed, tr, phase, sp.id())
		b.times[job] = append(b.times[job], time.Since(t0).Seconds())
		sp.end()
		if err != nil {
			errs = append(errs, fmt.Errorf("%s: %w", job, err))
		}
	}
	experiment.Metrics = nil
	return errs
}

func (b *batch) run(job string, seed uint64, tr *tracer, phase string, parent int64) error {
	call := func(name string, fn func() error) error {
		sp := tr.start(name, phase, parent, 0)
		err := fn()
		sp.end()
		return err
	}
	switch job {
	case jobFigures:
		// Every solve is cold: the capacity and G-table memo caches are
		// process-global and would otherwise answer later cycles.
		capacity.ResetAnalyticCache()
		qos.ResetGTableCache()
		figs := []struct {
			name string
			gen  func() (*experiment.Sweep, error)
		}{
			{"fig7", func() (*experiment.Sweep, error) { return experiment.Figure7(nil, 12, 30000) }},
			{"fig8", func() (*experiment.Sweep, error) { return experiment.Figure8(nil) }},
			{"fig9", func() (*experiment.Sweep, error) { return experiment.Figure9(nil) }},
		}
		for _, f := range figs {
			var s *experiment.Sweep
			if err := call("experiment.Figure"+f.name[3:], func() (err error) { s, err = f.gen(); return err }); err != nil {
				return err
			}
			if err := validate.CompareGolden(validate.GoldenFromSweep(f.name, validate.KindAnalytic, 0, s), b.goldens[f.name]); err != nil {
				return err
			}
		}
		var worst float64
		if err := call("experiment.SimVsAnalytic", func() (err error) {
			_, worst, err = experiment.SimVsAnalytic(nil, simVsAnalyticEpisodes, seed)
			return err
		}); err != nil {
			return err
		}
		h, m := capacity.AnalyticCacheStats()
		b.capHits, b.capMisses = b.capHits+h, b.capMisses+m
		h, m = qos.GTableCacheStats()
		b.gHits, b.gMisses = b.gHits+h, b.gMisses+m
		if worst > simVsAnalyticTol {
			return fmt.Errorf("protocol vs analytic discrepancy %v exceeds %v", worst, simVsAnalyticTol)
		}
	case jobRouted:
		for _, p := range route.PolicyNames() {
			if err := b.routed(p, seed, call); err != nil {
				return fmt.Errorf("%s: %w", p, err)
			}
		}
	case jobCoverage:
		var worst float64
		if err := call("experiment.StochGeomCheck", func() (err error) {
			_, worst, err = experiment.StochGeomCheck()
			return err
		}); err != nil {
			return err
		}
		if worst > stochGeomTol {
			return fmt.Errorf("stochgeom relative mean error %v exceeds %v", worst, stochGeomTol)
		}
	case jobMission:
		cfg := mission.DefaultConfig()
		cfg.SignalRatePerMin = missionRatePerMin
		cfg.Seed = seed
		cfg.Workers = clients
		cfg.Metrics = b.regs[jobMission]
		var rep *mission.Report
		if err := call("mission.Run", func() (err error) { rep, err = mission.Run(cfg, missionHorizonMin); return err }); err != nil {
			return err
		}
		b.runs++
		if rep.Episodes == 0 || len(rep.Outcomes) != rep.Episodes {
			return fmt.Errorf("%d episodes with %d outcomes", rep.Episodes, len(rep.Outcomes))
		}
		if err := validate.CheckPMF(rep.PMF); err != nil {
			return err
		}
		if rep.DetectedFraction < 0 || rep.DetectedFraction > 1 {
			return fmt.Errorf("detected fraction %v outside [0, 1]", rep.DetectedFraction)
		}
	default:
		return fmt.Errorf("unknown job %q", job)
	}
	return nil
}

// routed runs one policy's load sweep, checks its shape against the
// policy's golden snapshot and its probabilities, and checks packet
// conservation and the hop bound on the fabric counters the sweep
// published. The values are not compared with the snapshot's: the
// episodes of a routed sweep share background traffic (and, under
// Q-learning, the learned state), so their outcomes are correlated and
// independent-binomial intervals at this budget flag sound sweeps.
func (b *batch) routed(policy string, seed uint64, call func(string, func() error) error) error {
	rc, scenario := routedConfig(policy)
	reg := obs.NewRegistry()
	experiment.Metrics = reg
	defer func() {
		b.regs[jobRouted].Merge(reg)
		experiment.Metrics = b.regs[jobRouted]
	}()
	var s *experiment.Sweep
	if err := call("experiment.RoutedLoadSweep", func() (err error) {
		s, err = experiment.RoutedLoadSweep(routedLoads, rc, scenario, 10, 2, routedEpisodes, seed)
		return err
	}); err != nil {
		return err
	}
	want := b.goldens["routed-"+policy]
	if len(s.Series) != len(want.Series) {
		return fmt.Errorf("%d series, the snapshot has %d", len(s.Series), len(want.Series))
	}
	for i, ser := range s.Series {
		if ser.Name != want.Series[i].Name {
			return fmt.Errorf("series %d is %q, the snapshot's %q", i, ser.Name, want.Series[i].Name)
		}
		for j, v := range ser.Values {
			if math.IsNaN(v) || v < 0 || v > 1 {
				return fmt.Errorf("series %q at load %g: %v outside [0, 1]", ser.Name, s.X[j], v)
			}
		}
	}
	v := values(reg.Snapshot(), nil)
	st := route.Stats{
		Injected:          int(v["route_packets_injected_total"]),
		Background:        int(v["route_background_packets_total"]),
		Delivered:         int(v["route_packets_delivered_total"]),
		DroppedQueue:      int(v["route_dropped_queue_total"]),
		DroppedLoss:       int(v["route_dropped_loss_total"]),
		DroppedFailSilent: int(v["route_dropped_failsilent_total"]),
		HopsSum:           int(v["route_hops_total"]),
		MaxHops:           int(v["route_hops_max"]),
	}
	// Episodes end with packets still queued; the counters do not
	// export them, so in-flight is the remainder, which must not be
	// negative.
	st.InFlight = st.Injected - st.Delivered - st.DroppedQueue - st.DroppedLoss - st.DroppedFailSilent
	if st.Injected == 0 {
		return fmt.Errorf("no packets injected")
	}
	return validate.CheckRoute(st, b.diam[policy])
}

// routedEpisodeMS replays one point of each policy's sweep (the middle
// load) through oaq.EvaluateParallel on one worker and returns the
// wall time per routed episode in milliseconds.
func routedEpisodeMS(policy string, seed uint64, tr *tracer, phase string) (float64, error) {
	rc, scenario := routedConfig(policy)
	rc.TrafficLoadPerMin = routedLoads[1]
	p := oaq.ReferenceParams(10, qos.SchemeOAQ)
	p.Route = &rc
	p.Faults = scenario
	p.RequestRetries = 2
	sp := tr.start("oaq.EvaluateParallel/route-"+policy, phase, 0, 0)
	t0 := time.Now()
	_, err := oaq.EvaluateParallel(p, routedEpisodes, seed, 1)
	d := time.Since(t0)
	sp.end()
	return d.Seconds() * 1e3 / routedEpisodes, err
}
