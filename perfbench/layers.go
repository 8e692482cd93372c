package main

import (
	"runtime"
	"time"

	"satqos/internal/capacity"
	"satqos/internal/constellation"
	"satqos/internal/obs"
	"satqos/internal/orbit"
	"satqos/internal/qos"
	"satqos/internal/route"
)

// metricSpec names one reported metric and its unit.
type metricSpec struct{ name, unit string }

// endToEnd are the metrics of the untraced run, on every workload. On
// the served workloads an operation is one answer; on batch-reproduce
// it is one cycle of the four jobs.
var endToEnd = []metricSpec{
	{"setup_s", "s"},
	{"throughput_rps", "1/s"},
	{"latency_p50_ms", "ms"},
	{"latency_p99_ms", "ms"},
	{"rss_peak_mb", "MB"},
}

// perLayer are the metrics of the traced run, on every workload.
var perLayer = []metricSpec{
	{"qosd.handler_ms_p50", "ms"},
	{"qosd.transport_ms_p50", "ms"},
	{"qosd.self_us", "us"},
	{"qosd.cache_hit_ratio", "ratio"},
	{"qosd.shed", "count"},
	{"qosd.degraded", "count"},
	{"qos.conditional_pmf_us", "us"},
	{"qos.compose_us", "us"},
	{"qos.gtable_hit_ratio", "ratio"},
	{"capacity.analytic_us", "us"},
	{"capacity.cache_hit_ratio", "ratio"},
	{"stochgeom.evaluate_us", "us"},
	{"constellation.coverage_count_us", "us"},
	{"constellation.scanner_build_ms", "ms"},
	{"oaq.evaluate_ms", "ms"},
	{"oaq.episode_us", "us"},
	{"oaq.episodes_per_s", "1/s"},
	{"oaq.retransmissions_per_episode", "count"},
	{"parallel.busy_s", "s"},
	{"parallel.queue_wait_s", "s"},
	{"parallel.utilization", "ratio"},
	{"des.events_per_episode", "count"},
	{"des.freelist_hit_ratio", "ratio"},
	{"des.heap_depth_max", "count"},
	{"crosslink.messages_per_episode", "count"},
	{"crosslink.drop_ratio", "ratio"},
	{"route.episode_ms.static", "ms"},
	{"route.episode_ms.probabilistic", "ms"},
	{"route.episode_ms.qlearning", "ms"},
	{"route.packets_per_episode", "count"},
	{"route.hops_per_packet", "count"},
	{"route.delivered_ratio", "ratio"},
	{"experiment.sweep_point_ms", "ms"},
	{"mission.run_s", "s"},
	{"mission.episodes", "count"},
	{"mission.detected_ratio", "ratio"},
	{"obs.merge_us", "us"},
	{"trace.overhead_frac", "ratio"},
	{"host.steal_frac", "ratio"},
	{"figures_s", "s"},
	{"routed_sweep_s", "s"},
	{"coverage_check_s", "s"},
	{"mission_s", "s"},
	{"failed_frac", "ratio"},
	{"latency_samples", "count"},
}

// layerValues holds the per-layer metrics one phase measured. A metric
// is present only when the phase exercised the layer.
type layerValues map[string]float64

// fill copies the metrics of o that l lacks: the workload's own phase
// is filled first, then the short phases of the other workloads cover
// the layers it does not reach.
func (l layerValues) fill(o layerValues) {
	for k, v := range o {
		if _, ok := l[k]; !ok {
			l[k] = v
		}
	}
}

func (l layerValues) ratio(name string, num, den float64) {
	if den > 0 {
		l[name] = num / den
	}
}

func (l layerValues) median(name string, xs []float64, scale float64) {
	if len(xs) > 0 {
		l[name] = quantile(xs, 0.5) * scale
	}
}

// engineSnap is the process-global instrumentation a phase is measured
// against: the parallel engine's task histograms and the memo caches.
type engineSnap struct {
	tasks, busy, wait  float64
	capHits, capMisses uint64
	gHits, gMisses     uint64
	at                 time.Time
}

func takeEngineSnap() engineSnap {
	d := obs.Default().Snapshot()
	s := engineSnap{at: time.Now()}
	s.tasks, s.busy = histSum(d, "parallel_task_busy_seconds")
	_, s.wait = histSum(d, "parallel_task_queue_wait_seconds")
	s.capHits, s.capMisses = capacity.AnalyticCacheStats()
	s.gHits, s.gMisses = qos.GTableCacheStats()
	return s
}

// parallelLayer derives the parallel engine's metrics between two
// snapshots: mean busy and queue-wait time per task, and busy time over
// the wall time × GOMAXPROCS available. Tasks nest (a sweep point that
// runs Monte-Carlo shards is a task containing tasks), so on
// batch-reproduce utilization counts nested busy time at each level.
func (l layerValues) parallelLayer(before, after engineSnap) {
	tasks := after.tasks - before.tasks
	busy := after.busy - before.busy
	l.ratio("parallel.busy_s", busy, tasks)
	l.ratio("parallel.queue_wait_s", after.wait-before.wait, tasks)
	if tasks > 0 {
		wall := after.at.Sub(before.at).Seconds()
		l["parallel.utilization"] = busy / (wall * float64(runtime.GOMAXPROCS(0)))
	}
}

// engineLayers derives the per-episode protocol metrics from the oaq,
// des and crosslink families.
func (l layerValues) engineLayers(v map[string]float64, wall time.Duration) {
	episodes := v["oaq_episodes_total"]
	if episodes == 0 {
		return
	}
	l["oaq.episodes_per_s"] = episodes / wall.Seconds()
	l["oaq.retransmissions_per_episode"] = v["oaq_retransmissions_total"] / episodes
	l["des.events_per_episode"] = v["des_events_fired_total"] / episodes
	hits, misses := v["des_freelist_hits_total"], v["des_freelist_misses_total"]
	l.ratio("des.freelist_hit_ratio", hits, hits+misses)
	l["des.heap_depth_max"] = v["des_heap_depth_max"]
	sent := v["crosslink_messages_sent_total"]
	l["crosslink.messages_per_episode"] = sent / episodes
	dropped := v["crosslink_dropped_loss_total"] + v["crosslink_dropped_failsilent_total"] + v["crosslink_dropped_queue_total"]
	l.ratio("crosslink.drop_ratio", dropped, sent)
}

// cacheLayers derives the memo-cache hit ratios between two snapshots.
func (l layerValues) cacheLayers(capHits, capMisses, gHits, gMisses uint64) {
	l.ratio("capacity.cache_hit_ratio", float64(capHits), float64(capHits+capMisses))
	l.ratio("qos.gtable_hit_ratio", float64(gHits), float64(gHits+gMisses))
}

// replayLayers maps replayed public-function spans to their metrics.
var replayLayers = []struct {
	span, metric string
	scale        float64 // seconds → metric unit
}{
	{"qos.ConditionalPMF", "qos.conditional_pmf_us", 1e6},
	{"qos.Compose", "qos.compose_us", 1e6},
	{"capacity.Analytic", "capacity.analytic_us", 1e6},
	{"stochgeom.Evaluate", "stochgeom.evaluate_us", 1e6},
	{"constellation.CoverageCount", "constellation.coverage_count_us", 1e6},
	{"oaq.EvaluateParallelCtx", "oaq.evaluate_ms", 1e3},
	{"obs.Merge", "obs.merge_us", 1e6},
}

// serveLayers derives a served phase's per-layer metrics from its spans
// (client, handler wrapper, replayed backend calls), the server
// registry's increments over the timed phase (reg) and the engine
// snapshots around it.
func serveLayers(res *phaseResult, spans []span, reg map[string]float64, before, after engineSnap) layerValues {
	l := layerValues{}
	clientsByID := map[int64]*span{}
	handlerOf := map[int64]*span{}
	replayed := map[int64]time.Duration{}
	byName := map[string][]float64{}
	for i := range spans {
		s := &spans[i]
		switch s.Name {
		case "client":
			clientsByID[s.ID] = s
		case "qosd.handler":
			handlerOf[s.Parent] = s
		default:
			if s.Link != 0 {
				replayed[s.Link] += s.dur()
			}
			byName[s.Name] = append(byName[s.Name], s.dur().Seconds())
		}
	}
	var handler, transport, self []float64
	for id, c := range clientsByID {
		h, ok := handlerOf[id]
		if !ok {
			continue
		}
		handler = append(handler, h.dur().Seconds())
		transport = append(transport, (c.dur() - h.dur()).Seconds())
		if r, ok := replayed[id]; ok && !c.Cached {
			self = append(self, (h.dur() - r).Seconds())
		}
	}
	l.median("qosd.handler_ms_p50", handler, 1e3)
	l.median("qosd.transport_ms_p50", transport, 1e3)
	l.median("qosd.self_us", self, 1e6)
	for _, rl := range replayLayers {
		l.median(rl.metric, byName[rl.span], rl.scale)
	}
	hits, misses := reg["satqosd_cache_hits_total"], reg["satqosd_cache_misses_total"]
	l.ratio("qosd.cache_hit_ratio", hits, hits+misses)
	l["qosd.shed"] = reg["satqosd_shed_total"]
	l["qosd.degraded"] = reg["satqosd_degraded_total"]
	l.engineLayers(reg, res.elapsed)
	l.ratio("oaq.episode_us", (after.busy-before.busy)*1e6, reg["oaq_episodes_total"])
	l.parallelLayer(before, after)
	l.cacheLayers(after.capHits-before.capHits, after.capMisses-before.capMisses,
		after.gHits-before.gHits, after.gMisses-before.gMisses)
	return l
}

// batchLayers derives a batch phase's per-layer metrics from the job
// registries and timings.
func batchLayers(b *batch, wall time.Duration, before, after engineSnap) layerValues {
	l := layerValues{}
	for metric, job := range map[string]string{
		"figures_s": jobFigures, "routed_sweep_s": jobRouted,
		"coverage_check_s": jobCoverage, "mission_s": jobMission,
	} {
		l.median(metric, b.times[job], 1)
	}
	sim := obs.NewRegistry()
	sim.Merge(b.regs[jobFigures])
	sim.Merge(b.regs[jobRouted])
	l.engineLayers(values(sim.Snapshot(), nil), wall)

	var points, pointSum float64
	for _, job := range batchJobs {
		n, s := histSum(b.regs[job].Snapshot(), "experiment_sweep_point_seconds")
		points, pointSum = points+n, pointSum+s
	}
	l.ratio("experiment.sweep_point_ms", pointSum*1e3, points)

	rs := values(b.regs[jobRouted].Snapshot(), nil)
	injected, delivered := rs["route_packets_injected_total"], rs["route_packets_delivered_total"]
	l.ratio("route.packets_per_episode", injected, rs["oaq_episodes_total"])
	l.ratio("route.hops_per_packet", rs["route_hops_total"], delivered)
	l.ratio("route.delivered_ratio", delivered, injected)

	ms := b.regs[jobMission].Snapshot()
	runs, runSum := histSum(ms, "mission_run_seconds")
	l.ratio("mission.run_s", runSum, runs)
	mv := values(ms, nil)
	episodes := mv["mission_episodes_total"]
	l.ratio("mission.episodes", episodes, float64(b.runs))
	l.ratio("mission.detected_ratio", mv["mission_detected_total"], episodes)

	l.parallelLayer(before, after)
	l.cacheLayers(b.capHits, b.capMisses, b.gHits, b.gMisses)
	return l
}

// routeEpisodeLayers replays one point of each routed sweep on one
// worker for the per-policy routed episode cost.
func routeEpisodeLayers(seed uint64, tr *tracer, phase string) (layerValues, error) {
	l := layerValues{}
	for _, p := range route.PolicyNames() {
		ms, err := routedEpisodeMS(p, seed, tr, phase)
		if err != nil {
			return nil, err
		}
		l["route.episode_ms."+p] = ms
	}
	return l, nil
}

// scannerBuildMS times building every preset's constellation and
// shared scanner plus its first coverage query, which is what a server
// pays per preset before its first /v1/coverage answer.
func scannerBuildMS(tr *tracer, phase string) (float64, error) {
	sp := tr.start("constellation.NewSharedScanner", phase, 0, 0)
	t0 := time.Now()
	for _, p := range constellation.PresetNames() {
		cfg, err := constellation.PresetConfig(p)
		if err != nil {
			return 0, err
		}
		c, err := constellation.New(cfg)
		if err != nil {
			return 0, err
		}
		constellation.NewSharedScanner(c).CoverageCount(orbit.LatLon{Lat: 0.5}, 0)
	}
	d := time.Since(t0)
	sp.end()
	return d.Seconds() * 1e3, nil
}
