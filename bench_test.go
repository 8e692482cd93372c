// Benchmark harness: one testing.B benchmark per table and figure of the
// paper's evaluation (§4.3), plus the validation experiments this
// repository adds. Each benchmark regenerates the corresponding artifact
// end-to-end, so `go test -bench=. -benchmem` both measures the cost of
// the reproduction pipeline and re-derives every reported number.
//
// The numeric outputs themselves are asserted in the package test suites
// (internal/experiment, internal/qos, internal/capacity, internal/oaq);
// here each benchmark additionally performs a cheap sanity check so that
// a silently broken pipeline cannot "win" the benchmark.
package satqos_test

import (
	"fmt"
	"math"
	"slices"
	"sync/atomic"
	"testing"

	"satqos"
	"satqos/internal/capacity"
	"satqos/internal/constellation"
	"satqos/internal/experiment"
	"satqos/internal/mission"
	"satqos/internal/oaq"
	"satqos/internal/orbit"
	"satqos/internal/qos"
	"satqos/internal/route"
	"satqos/internal/stats"
	"satqos/internal/stochgeom"
	"satqos/internal/validate"
)

// BenchmarkTable1 regenerates Table 1 (QoS levels vs geometric
// properties).
func BenchmarkTable1(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tab := experiment.Table1()
		if len(tab.Rows) != 2 {
			b.Fatal("Table 1 shape broken")
		}
	}
}

// BenchmarkFigure7 regenerates Figure 7: P(K = k) vs λ for k = 9..14
// (η = 10, φ = 30000 h).
func BenchmarkFigure7(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s, err := experiment.Figure7(nil, 10, 30000)
		if err != nil {
			b.Fatal(err)
		}
		if p10 := s.Get("P(K=10)"); p10 == nil || p10[len(p10)-1] < 0.5 {
			b.Fatal("Figure 7 shape broken")
		}
	}
}

// BenchmarkFigure8 regenerates Figure 8: P(Y = 3) vs λ, OAQ vs BAQ,
// µ ∈ {0.2, 0.5} (τ = 5, η = 12).
func BenchmarkFigure8(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s, err := experiment.Figure8(nil)
		if err != nil {
			b.Fatal(err)
		}
		if len(s.Series) != 4 {
			b.Fatal("Figure 8 shape broken")
		}
	}
}

// BenchmarkFigure9 regenerates Figure 9: P(Y >= y) vs λ for
// y ∈ {1, 2, 3}, OAQ vs BAQ (τ = 5, µ = 0.2, η = 10).
func BenchmarkFigure9(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s, err := experiment.Figure9(nil)
		if err != nil {
			b.Fatal(err)
		}
		oaq2 := s.Get("OAQ y>=2")
		if oaq2 == nil || math.Abs(oaq2[0]-0.75) > 0.05 {
			b.Fatal("Figure 9 endpoint broken")
		}
	}
}

// BenchmarkSection43Spot regenerates the §4.3 constituent-measure spot
// table, whose OAQ/BAQ values at k = 12 the paper quotes (0.44 / 0.20).
func BenchmarkSection43Spot(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tab, err := experiment.Section43Spot()
		if err != nil {
			b.Fatal(err)
		}
		if len(tab.Rows) != 12 {
			b.Fatal("spot table shape broken")
		}
	}
}

// BenchmarkTauSweep regenerates the §4.3 "QoS measure as a function of
// τ" experiment.
func BenchmarkTauSweep(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s, err := experiment.TauSweep(nil, 5e-5)
		if err != nil {
			b.Fatal(err)
		}
		if len(s.Series) == 0 {
			b.Fatal("tau sweep broken")
		}
	}
}

// BenchmarkDurationSweep regenerates the §4.3 "QoS measure as a function
// of the mean signal duration" experiment.
func BenchmarkDurationSweep(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s, err := experiment.DurationSweep(nil, 5e-5)
		if err != nil {
			b.Fatal(err)
		}
		if len(s.Series) == 0 {
			b.Fatal("duration sweep broken")
		}
	}
}

// BenchmarkSimVsAnalytic runs the protocol-vs-model validation: one
// Monte-Carlo batch of protocol episodes per capacity and scheme,
// compared cell-by-cell against the closed-form conditional PMF.
func BenchmarkSimVsAnalytic(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_, worst, err := experiment.SimVsAnalytic([]int{10, 12}, 4000, uint64(i)+1)
		if err != nil {
			b.Fatal(err)
		}
		if worst > 0.06 {
			b.Fatalf("protocol drifted from the model: %v", worst)
		}
	}
}

// BenchmarkGeometry runs the geometry-engine validation against the
// paper's constants (θ = 90, Tc = 9, Tr[k] = θ/k).
func BenchmarkGeometry(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := experiment.GeometryCheck(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCapacityAnalytic times capacity.Analytic over Figure 7's λ
// grid (η = 10, φ = 30000 h), one op being the whole 10-point grid:
// cold solves with the memo reset each iteration, against memo hits.
func BenchmarkCapacityAnalytic(b *testing.B) {
	lambdas := experiment.DefaultLambdas()
	solveGrid := func(b *testing.B) {
		for _, lambda := range lambdas {
			d, err := capacity.ReferenceParams(10, lambda, 30000).Analytic()
			if err != nil {
				b.Fatal(err)
			}
			if d.P(10) <= 0 {
				b.Fatalf("P(10) = %v at λ=%g", d.P(10), lambda)
			}
		}
	}
	b.Run("cold", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			capacity.ResetAnalyticCache()
			solveGrid(b)
		}
	})
	b.Run("hit", func(b *testing.B) {
		capacity.ResetAnalyticCache()
		solveGrid(b)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			solveGrid(b)
		}
	})
	capacity.ResetAnalyticCache()
}

// BenchmarkCapacityRoutes cross-checks the three P(k) computation routes
// at one parameter point (analytic vs SAN; the DES route is exercised in
// the capacity package's tests).
func BenchmarkCapacityRoutes(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_, worst, err := experiment.CapacityRouteCheck(10, 5e-5, 30000, 0, 1)
		if err != nil {
			b.Fatal(err)
		}
		if worst > 1e-5 {
			b.Fatalf("capacity routes disagree: %v", worst)
		}
	}
}

// BenchmarkPicoScaling runs the pico-constellation scaling study (the
// paper's §2 claim that OAQ helps more as populations grow).
func BenchmarkPicoScaling(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s, err := experiment.PicoScaling(nil, nil, 5, 0.5, 30)
		if err != nil {
			b.Fatal(err)
		}
		if len(s.Series) != 8 {
			b.Fatal("scaling shape broken")
		}
	}
}

// BenchmarkAblationBackward runs the backward-vs-no-backward messaging
// ablation (the §3.2 design choice).
func BenchmarkAblationBackward(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := experiment.AblationBackwardMessaging([]float64{0, 1}, 2000, uint64(i)+1); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationConstants runs the δ/T_g drift ablation (the
// negligible-protocol-constants modeling assumption).
func BenchmarkAblationConstants(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := experiment.AblationProtocolConstants([]float64{0.01, 0.5}, 2000, uint64(i)+1); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationTC1 runs the TC-1 threshold ablation (quality vs
// crosslink cost).
func BenchmarkAblationTC1(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := experiment.AblationTC1([]float64{0, 16}, 2000, uint64(i)+1); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMission runs the 3-D end-to-end mission (constellation +
// sensing + estimation + opportunity scheduling).
func BenchmarkMission(b *testing.B) {
	cfg := mission.DefaultConfig()
	cfg.SignalRatePerMin = 0.1
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		cfg.Seed = uint64(i) + 1
		rep, err := mission.Run(cfg, 120)
		if err != nil {
			b.Fatal(err)
		}
		if rep.Episodes > 0 && rep.DetectedFraction < 0.9 {
			b.Fatal("mission detection broken")
		}
	}
}

// BenchmarkProtocolEpisode measures the steady-state cost of one full
// OAQ episode on a degraded (underlapping) plane — detection, chain
// coordination, message passing, and termination — on a warmed-up
// reusable Runner. The allocs/op column is gated by ci.sh: the episode
// hot path is required to be allocation-free.
func BenchmarkProtocolEpisode(b *testing.B) {
	p := oaq.ReferenceParams(10, qos.SchemeOAQ)
	r, err := oaq.NewRunner(p, stats.NewRNG(1, 0))
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < 300; i++ { // warmup: grow the event/envelope/satellite pools
		r.Run()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := r.Run()
		if res.Detected && res.Delivered && res.Level == qos.LevelMiss {
			b.Fatal("delivered episode scored as miss")
		}
	}
}

// BenchmarkProtocolEpisodeCold measures the one-shot RunEpisode path.
// Since the runner pool landed, a "cold" call recycles a parked
// simulation stack through rebind instead of rebuilding it, so the
// per-call overhead over BenchmarkProtocolEpisode is a handful of
// allocations (metrics plumbing), not the ~50-allocation construction.
// TestProtocolEpisodeColdAllocs gates the budget.
func BenchmarkProtocolEpisodeCold(b *testing.B) {
	p := oaq.ReferenceParams(10, qos.SchemeOAQ)
	rng := stats.NewRNG(1, 0)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := oaq.RunEpisode(p, rng); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkProtocolEpisodeRouted measures one full OAQ episode with
// protocol messages carried over the multi-hop ISL fabric instead of
// the ideal delay-δ channel, per forwarding policy, including the
// episode's background cross-traffic. Two operating points per policy:
// the default fabric at 20 pkt/min links and load 20, where queues stay
// short, and the congested golden point (3 pkt/min links, load 180,
// retries 2, and for qlearning the routed-degraded fault scenario),
// where the fabric saturates and the pending-event set is deepest.
// Packets, delivery envelopes, events and lane rings all come from
// pools, so after warmup the routed path reads 0 allocs/op under every
// policy, and ci.sh gates it at that budget alongside the ideal
// channel. A pool grows only when an episode's in-flight peak exceeds
// every earlier one; that is why B/op can read a few bytes while
// allocs/op stays 0.
func BenchmarkProtocolEpisodeRouted(b *testing.B) {
	for _, policy := range route.PolicyNames() {
		b.Run(policy, func(b *testing.B) {
			rc := route.Default(policy, 10)
			rc.TrafficLoadPerMin = 20
			p := oaq.ReferenceParams(10, qos.SchemeOAQ)
			p.Route = &rc
			benchRoutedEpisode(b, p)
		})
	}
	for _, policy := range route.PolicyNames() {
		b.Run(policy+"-congested", func(b *testing.B) {
			rc := route.Default(policy, 10)
			rc.ISLRatePerMin = 3
			rc.TrafficLoadPerMin = 180
			p := oaq.ReferenceParams(10, qos.SchemeOAQ)
			p.Route = &rc
			p.RequestRetries = 2
			if policy == route.PolicyQLearning {
				p.Faults = validate.RoutedGoldenScenario()
			}
			benchRoutedEpisode(b, p)
		})
	}
}

// benchRoutedEpisode times steady-state routed episodes on a warmed-up
// Runner and checks packet conservation afterwards.
func benchRoutedEpisode(b *testing.B, p oaq.Params) {
	r, err := oaq.NewRunner(p, stats.NewRNG(1, 0))
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < 300; i++ { // warmup: pools + learned routing state
		r.Run()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := r.Run()
		if res.Detected && res.Delivered && res.Level == qos.LevelMiss {
			b.Fatal("delivered episode scored as miss")
		}
	}
	b.StopTimer()
	if err := r.RouteStats().CheckInvariant(); err != nil {
		b.Fatal(err)
	}
}

// TestProtocolEpisodeColdAllocs gates the one-shot episode's allocation
// budget: with the runner pool, a RunEpisode call on a warmed process
// must stay an order of magnitude under the old ~51-alloc construction
// cost. The budget is above zero because sync.Pool may be drained by a
// GC between calls (forcing one real construction) and the episode's
// own pools grow on demand.
func TestProtocolEpisodeColdAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under the race detector; the warm-pool budget holds only in plain builds")
	}
	p := oaq.ReferenceParams(10, qos.SchemeOAQ)
	rng := stats.NewRNG(1, 0)
	for i := 0; i < 300; i++ { // warm the pooled runner's internal pools
		if _, err := oaq.RunEpisode(p, rng); err != nil {
			t.Fatal(err)
		}
	}
	allocs := testing.AllocsPerRun(200, func() {
		if _, err := oaq.RunEpisode(p, rng); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 5 {
		t.Errorf("one-shot RunEpisode costs %.1f allocs/op on a warm pool, budget 5", allocs)
	}
}

// coverageScanPresets are the Walker designs BenchmarkCoverageScan
// sweeps, smallest to largest.
var coverageScanPresets = []string{
	constellation.PresetIridiumNEXT,
	constellation.PresetKepler,
	constellation.PresetOneWeb,
	constellation.PresetStarlink,
}

// BenchmarkCoverageScan measures the structure-of-arrays fast coverage
// scan across the Walker presets: one full covering-set query (the
// mission engine's per-step operation) against a mid-latitude target,
// with the time advancing every iteration so the per-plane recurrence
// anchors are recomputed like in a real scan. The /ring16 variants count
// a ring of 16 longitudes at the same latitude in one CoverageCounts
// call, the coverage grids' per-row operation. The allocs/op column is
// gated to zero by ci.sh. The /brute variants run the per-orbit
// reference path for the speedup comparison recorded in BENCH_PR6.json.
func BenchmarkCoverageScan(b *testing.B) {
	target := orbit.LatLon{Lat: 30 * math.Pi / 180, Lon: 0.4}
	for _, name := range coverageScanPresets {
		cfg, err := constellation.PresetConfig(name)
		if err != nil {
			b.Fatal(err)
		}
		c, err := constellation.New(cfg)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(name, func(b *testing.B) {
			s := constellation.NewScanner(c)
			dst := make([]constellation.SatRef, 0, cfg.Planes*cfg.ActivePerPlane)
			dst = s.AppendCovering(dst, target, 0)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				dst = s.AppendCovering(dst[:0], target, float64(i)*0.05)
			}
			if len(dst) > cfg.Planes*cfg.ActivePerPlane {
				b.Fatal("covering set larger than the fleet")
			}
		})
		b.Run(name+"/ring16", func(b *testing.B) {
			s := constellation.NewScanner(c)
			lons := make([]float64, 16)
			for j := range lons {
				lons[j] = 2 * math.Pi * float64(j) / float64(len(lons))
			}
			counts := make([]int, len(lons))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s.CoverageCounts(counts, target.Lat, lons, float64(i)*0.05)
			}
			if slices.Max(counts) > cfg.Planes*cfg.ActivePerPlane {
				b.Fatal("a target covered by more satellites than the fleet")
			}
		})
		b.Run(name+"/brute", func(b *testing.B) {
			views := make([]constellation.SatView, 0, c.ActiveSatellites())
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				views = c.AppendCoveringSatellites(views[:0], target, float64(i)*0.05)
			}
			if len(views) != c.ActiveSatellites() {
				b.Fatal("brute scan lost satellites")
			}
		})
	}
}

// BenchmarkStochGeom measures the stochastic-geometry backend's
// Starlink-preset P(K = k) point query — one cap integral plus one
// log-space binomial term, O(1) in time steps and fleet positions —
// against /scan-estimate, the empirical answer the exact engine gives
// for the same quantity: the fast SoA scanner swept over the
// cross-validation harness's sampling grid (16 longitudes x 256 times,
// the grid experiment.StochGeomCheck estimates P(K = k) on), one
// CoverageCounts ring per time. The
// acceptance target is the analytic query at >= 100x the scan
// estimate; the first committed numbers live in BENCH_PR10.json. The
// allocs/op column of /pvisible is gated to zero by ci.sh.
// /evaluate/<preset> times the full visible-count law at 30°.
func BenchmarkStochGeom(b *testing.B) {
	d, err := stochgeom.FromPreset(constellation.PresetStarlink)
	if err != nil {
		b.Fatal(err)
	}
	latDeg := 53.0
	lat := latDeg * math.Pi / 180
	b.Run("pvisible", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			p, err := d.PVisible(16, lat)
			if err != nil {
				b.Fatal(err)
			}
			if p <= 0 || p >= 1 {
				b.Fatal("degenerate point probability")
			}
		}
	})
	// Evaluate allocates the PMF, so these stay out of the allocation
	// gate.
	for _, name := range constellation.PresetNames() {
		pd, err := stochgeom.FromPreset(name)
		if err != nil {
			b.Fatal(err)
		}
		b.Run("evaluate/"+name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := pd.Evaluate(30 * math.Pi / 180); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
	b.Run("scan-estimate", func(b *testing.B) {
		cfg, err := constellation.PresetConfig(constellation.PresetStarlink)
		if err != nil {
			b.Fatal(err)
		}
		c, err := constellation.New(cfg)
		if err != nil {
			b.Fatal(err)
		}
		s := constellation.NewScanner(c)
		const steps = 256
		lons := make([]float64, 16)
		for li := range lons {
			lons[li] = 2 * math.Pi * float64(li) / float64(len(lons))
		}
		counts := make([]int, len(lons))
		horizon := 7 * cfg.PeriodMin
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			hits := 0
			for step := 0; step < steps; step++ {
				s.CoverageCounts(counts, lat, lons, horizon*float64(step)/steps)
				for _, n := range counts {
					if n == 16 {
						hits++
					}
				}
			}
			if hits < 0 {
				b.Fatal("impossible")
			}
		}
	})
}

// BenchmarkSharedScanner measures concurrent covering-set queries on
// one shared scanner: every benchmark goroutine reads the same starlink
// Scanner through its immutable snapshot. The allocs/op column is gated
// to zero by ci.sh — the snapshot indirection must not reintroduce
// allocation on the query path.
func BenchmarkSharedScanner(b *testing.B) {
	cfg, err := constellation.PresetConfig(constellation.PresetStarlink)
	if err != nil {
		b.Fatal(err)
	}
	c, err := constellation.New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	s := constellation.NewScanner(c)
	target := orbit.LatLon{Lat: 30 * math.Pi / 180, Lon: 0.4}
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		dst := make([]constellation.SatRef, 0, cfg.Planes*cfg.ActivePerPlane)
		i := 0
		for pb.Next() {
			dst = s.AppendCovering(dst[:0], target, float64(i)*0.05)
			if len(dst) > cfg.Planes*cfg.ActivePerPlane {
				b.Fatal("covering set larger than the fleet")
			}
			i++
		}
	})
}

// BenchmarkFigure9ColdCache regenerates Figure 9 with the memoized
// capacity cache emptied every iteration, measuring the uncached solve
// cost (the plain BenchmarkFigure9 measures the steady state, where all
// ten distributions come from the cache).
func BenchmarkFigure9ColdCache(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		capacity.ResetAnalyticCache()
		if _, err := experiment.Figure9(nil); err != nil {
			b.Fatal(err)
		}
	}
	b.Cleanup(capacity.ResetAnalyticCache)
}

// benchWorkers sweeps the worker count of a sweep driver, resetting the
// capacity cache per iteration so the measurements compare engine
// configurations rather than cache states.
func benchWorkers(b *testing.B, workers []int, run func() error) {
	b.Helper()
	old := experiment.Workers
	b.Cleanup(func() { experiment.Workers = old; capacity.ResetAnalyticCache() })
	for _, w := range workers {
		b.Run(fmt.Sprintf("workers=%d", w), func(b *testing.B) {
			experiment.Workers = w
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				capacity.ResetAnalyticCache()
				if err := run(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkFigure9Workers sweeps the worker-pool size of the Figure 9
// driver (each λ point is one unit of work).
func BenchmarkFigure9Workers(b *testing.B) {
	benchWorkers(b, []int{1, 2, 4}, func() error {
		_, err := experiment.Figure9(nil)
		return err
	})
}

// BenchmarkSimVsAnalyticWorkers sweeps the worker-pool size of the
// protocol-vs-model validation (each (k, scheme) cell is one unit).
func BenchmarkSimVsAnalyticWorkers(b *testing.B) {
	benchWorkers(b, []int{1, 2, 4}, func() error {
		_, _, err := experiment.SimVsAnalytic([]int{10, 12}, 4000, 1)
		return err
	})
}

// BenchmarkEvaluateParallel sweeps the worker count of the sharded
// protocol Monte-Carlo engine itself (4096 episodes = 4 shards).
func BenchmarkEvaluateParallel(b *testing.B) {
	p := oaq.ReferenceParams(10, qos.SchemeOAQ)
	for _, w := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("workers=%d", w), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := oaq.EvaluateParallel(p, 4096, 1, w); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkEvaluatePairedParallel sweeps the worker count of the paired
// common-random-numbers engine (4096 episodes = 4 shards, OAQ vs BAQ at
// k = 10); each shard draws both of its runners from the runner pool.
func BenchmarkEvaluatePairedParallel(b *testing.B) {
	pa := oaq.ReferenceParams(10, qos.SchemeOAQ)
	pb := oaq.ReferenceParams(10, qos.SchemeBAQ)
	for _, w := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("workers=%d", w), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := oaq.EvaluatePairedParallel(pa, pb, 4096, 1, w); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkProtocolEpisodeParallel measures episode throughput with one
// protocol evaluator per benchmark goroutine (b.RunParallel), each on
// its own RNG substream.
func BenchmarkProtocolEpisodeParallel(b *testing.B) {
	p := oaq.ReferenceParams(10, qos.SchemeOAQ)
	var stream atomic.Uint64
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		r, err := oaq.NewRunner(p, stats.NewRNG(1, stream.Add(1)))
		if err != nil {
			b.Fatal(err)
		}
		for pb.Next() {
			r.Run()
		}
	})
}

// BenchmarkQoSMeasureEndToEnd measures the full Eq. (3) pipeline through
// the public facade: plane capacity + conditional model + composition.
func BenchmarkQoSMeasureEndToEnd(b *testing.B) {
	model, err := satqos.NewAnalyticModel(satqos.ReferenceGeometry(), 5, 0.2, 30)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		dist, err := satqos.PlaneCapacity(10, 5e-5, 30000)
		if err != nil {
			b.Fatal(err)
		}
		v, err := model.Measure(satqos.SchemeOAQ, dist, satqos.LevelSequentialDual)
		if err != nil {
			b.Fatal(err)
		}
		if v <= 0 || v >= 1 {
			b.Fatal("measure out of range")
		}
	}
}
