// Package mission is the end-to-end, three-dimensional integration of
// the repository: Poisson RF-emitter workloads placed on the real globe,
// detected by the footprints of the actual 98-satellite reference
// constellation, measured by the Doppler sensor model, localized by the
// sequential weighted-least-squares estimator, and scheduled by the
// OAQ/BAQ opportunity logic under the alert deadline.
//
// Where package oaq validates the protocol against the paper's
// plane-local analytic model (a worst-case target on one plane's
// center line), this package runs the whole system: a signal anywhere
// on the earth may be covered by satellites of several planes at once,
// so the measured QoS here is an upper bound on the single-plane
// worst case — and, unlike the analytic model, it reports *realized*
// geolocation accuracy per QoS level, demonstrating that the level
// ordering corresponds to real accuracy gains.
package mission

import (
	"fmt"
	"math"
	"sync"

	"satqos/internal/constellation"
	"satqos/internal/fault"
	"satqos/internal/geoloc"
	"satqos/internal/obs"
	"satqos/internal/obs/trace"
	"satqos/internal/orbit"
	"satqos/internal/parallel"
	"satqos/internal/qos"
	"satqos/internal/signal"
	"satqos/internal/stats"
)

// Config parameterizes a mission run.
type Config struct {
	// Constellation is the fleet design (DefaultConfig for the paper's).
	Constellation constellation.Config
	// Scheme selects OAQ or BAQ opportunity handling.
	Scheme qos.Scheme
	// TauMin is the alert deadline τ from initial detection.
	TauMin float64
	// SignalRatePerMin is the Poisson arrival rate of emitters.
	SignalRatePerMin float64
	// SignalDuration is the emission-length distribution.
	SignalDuration stats.Distribution
	// Position samples emitter locations (the paper's area of interest
	// is around 30° latitude).
	Position signal.PositionSampler
	// CarrierHz and NoiseHz parameterize the Doppler sensor.
	CarrierHz, NoiseHz float64
	// SamplesPerPass is the number of frequency measurements per
	// footprint pass (default 9).
	SamplesPerPass int
	// InitialGuessKm is the radius of the coarse detection cell from
	// which the estimator starts (default 40 km).
	InitialGuessKm float64
	// Seed drives all randomness.
	Seed uint64
	// Workers bounds the concurrency of the episode batch. Zero or
	// negative selects parallel.DefaultWorkers(); 1 runs sequentially.
	// The workload is generated on substream 0 and episode i draws from
	// substream i+1, so the report is bit-identical at any setting.
	Workers int
	// Metrics, when non-nil, receives the run's metric families:
	// episode/detection/level counters (published from the sequential
	// aggregation, so they are worker-count independent) and the run's
	// wall-clock duration.
	Metrics *obs.Registry
	// Trace, when non-nil, enables span tracing of the episode batch:
	// each signal episode records coarse phase spans (detection scan,
	// initial fix, opportunity scan) under a root span, keyed by the
	// signal's workload index. Retention (head sampling plus the anomaly
	// policy) is a pure function of that ordinal and the episode outcome,
	// so the collected trace set is bit-identical at any Workers setting.
	// The flight-recorder latency bound applies to the detection delay —
	// the mission has no crosslink fabric, so there is no delivery
	// latency to bound.
	Trace *trace.Config
	// Faults, when non-nil, applies the scenario's fail-silent windows to
	// the geometric scan: a silenced satellite neither detects the signal
	// nor contributes an opportunity pass. Scenario time zero is the
	// signal's onset, and ordinals follow first-coverage order within each
	// episode (Sat 1 is the first satellite whose footprint reaches the
	// emitter — silencing it suppresses that satellite's detection
	// entirely). The mission has no crosslink fabric, so loss bursts do
	// not apply here; jitter is likewise ignored (the scan uses the
	// nominal windows) to keep episodes free of extra RNG draws.
	Faults *fault.Scenario
}

// DefaultConfig returns a mission over the reference constellation with
// the paper's §4.3 QoS parameters and a 30°-latitude band of emitters.
func DefaultConfig() Config {
	return Config{
		Constellation:    constellation.DefaultConfig(),
		Scheme:           qos.SchemeOAQ,
		TauMin:           5,
		SignalRatePerMin: 0.02,
		SignalDuration:   stats.Exponential{Rate: 0.2},
		Position:         signal.LatitudeBand{MinLatDeg: 25, MaxLatDeg: 35},
		CarrierHz:        450e6,
		NoiseHz:          1,
		SamplesPerPass:   9,
		InitialGuessKm:   40,
		Seed:             1,
	}
}

// Validate checks the configuration.
func (c Config) Validate() error {
	if err := c.Constellation.Validate(); err != nil {
		return err
	}
	switch {
	case !c.Scheme.Valid():
		return fmt.Errorf("mission: unknown scheme %d", int(c.Scheme))
	case c.TauMin <= 0 || math.IsNaN(c.TauMin) || math.IsInf(c.TauMin, 0):
		return fmt.Errorf("mission: deadline τ = %g must be positive and finite", c.TauMin)
	case c.SignalRatePerMin <= 0 || math.IsNaN(c.SignalRatePerMin) || math.IsInf(c.SignalRatePerMin, 0):
		return fmt.Errorf("mission: signal rate %g must be positive and finite", c.SignalRatePerMin)
	case c.SignalDuration == nil:
		return fmt.Errorf("mission: signal-duration distribution is required")
	case c.Position == nil:
		return fmt.Errorf("mission: position sampler is required")
	case !(c.CarrierHz > 0) || math.IsInf(c.CarrierHz, 0) || !(c.NoiseHz > 0) || math.IsInf(c.NoiseHz, 0):
		return fmt.Errorf("mission: sensor parameters must be positive and finite")
	case c.SamplesPerPass < 2:
		return fmt.Errorf("mission: need at least 2 samples per pass, got %d", c.SamplesPerPass)
	case c.InitialGuessKm < 0 || math.IsNaN(c.InitialGuessKm) || math.IsInf(c.InitialGuessKm, 0):
		return fmt.Errorf("mission: initial-guess radius %g must be finite and non-negative", c.InitialGuessKm)
	}
	if c.Faults != nil {
		if err := c.Faults.Validate(); err != nil {
			return err
		}
	}
	if c.Trace != nil {
		if err := c.Trace.Validate(); err != nil {
			return err
		}
	}
	return nil
}

// EpisodeOutcome reports one signal's fate.
type EpisodeOutcome struct {
	// Signal is the emitter event.
	Signal signal.Signal
	// Level is the achieved QoS level.
	Level qos.Level
	// Detected reports whether any footprint saw the signal.
	Detected bool
	// DetectionDelay is detection time minus signal start (NaN if
	// undetected).
	DetectionDelay float64
	// PassesFused counts satellite passes contributing measurements.
	PassesFused int
	// RealizedErrorKm is the great-circle distance from the final
	// estimate to the truth (NaN without an estimate).
	RealizedErrorKm float64
	// EstimatedErrorKm is the estimator's own 1σ (NaN without an
	// estimate).
	EstimatedErrorKm float64
}

// Report aggregates a mission run.
type Report struct {
	// Episodes is the number of signals generated.
	Episodes int
	// PMF is the empirical level distribution.
	PMF qos.PMF
	// DetectedFraction is the share of signals seen by any footprint.
	DetectedFraction float64
	// MeanRealizedErrorKm and MeanEstimatedErrorKm average the accuracy
	// per level over episodes that produced an estimate.
	MeanRealizedErrorKm  map[qos.Level]float64
	MeanEstimatedErrorKm map[qos.Level]float64
	// Outcomes lists every episode for downstream analysis.
	Outcomes []EpisodeOutcome
}

// coverScanStep is the time resolution of footprint-arrival scanning.
// It is a small fraction of the coverage time Tc, so an arrival cannot
// be missed.
const coverScanStep = 0.05

// Run executes the mission for the given horizon (minutes).
func Run(cfg Config, horizonMin float64) (*Report, error) {
	return run(cfg, horizonMin, false)
}

// run is Run with the scan-path selector exposed: brute forces the
// per-orbit reference scan in place of the fast scanner (the white-box
// equivalence test runs both and compares whole reports).
func run(cfg Config, horizonMin float64, brute bool) (*Report, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if horizonMin <= 0 || math.IsNaN(horizonMin) || math.IsInf(horizonMin, 0) {
		return nil, fmt.Errorf("mission: horizon %g must be positive and finite", horizonMin)
	}
	runTimer := obs.StartTimer(cfg.Metrics.Histogram("mission_run_seconds",
		"Wall-clock duration of one mission run.", obs.DurationBuckets))
	cons, err := constellation.New(cfg.Constellation)
	if err != nil {
		return nil, err
	}
	wl, err := signal.NewWorkload(cfg.SignalRatePerMin, cfg.SignalDuration, cfg.Position)
	if err != nil {
		return nil, err
	}
	signals, err := wl.Generate(horizonMin, stats.NewRNG(cfg.Seed, 0))
	if err != nil {
		return nil, err
	}

	rep := &Report{
		Episodes:             len(signals),
		MeanRealizedErrorKm:  make(map[qos.Level]float64),
		MeanEstimatedErrorKm: make(map[qos.Level]float64),
	}
	// Each episode owns the substream (Seed, i+1) — substream 0 belongs
	// to the workload — so episodes are independent and the batch can fan
	// out across workers without changing any outcome. The constellation
	// is only read (coverage queries), never mutated, during the batch.
	m := &runner{cfg: cfg, cons: cons, scan: constellation.NewScanner(cons), brute: brute}
	outcomes, err := parallel.MapSlice(cfg.Workers, len(signals), func(i int) (EpisodeOutcome, error) {
		return m.episode(uint64(i), signals[i], stats.NewRNG(cfg.Seed, uint64(i)+1)), nil
	})
	if err != nil {
		return nil, err
	}

	// Aggregation stays sequential in episode order, so the float sums
	// fold identically at any worker count.
	counts := make(map[qos.Level]int)
	detected := 0
	for _, out := range outcomes {
		rep.Outcomes = append(rep.Outcomes, out)
		rep.PMF[out.Level] += 1 / float64(len(signals))
		if out.Detected {
			detected++
		}
		if !math.IsNaN(out.RealizedErrorKm) {
			rep.MeanRealizedErrorKm[out.Level] += out.RealizedErrorKm
			rep.MeanEstimatedErrorKm[out.Level] += out.EstimatedErrorKm
			counts[out.Level]++
		}
	}
	if len(signals) > 0 {
		rep.DetectedFraction = float64(detected) / float64(len(signals))
	}
	for level, n := range counts {
		rep.MeanRealizedErrorKm[level] /= float64(n)
		rep.MeanEstimatedErrorKm[level] /= float64(n)
	}
	cfg.publishMetrics(rep, detected)
	runTimer.ObserveDuration()
	return rep, nil
}

// publishMetrics flushes the run's aggregate counters into the
// configured registry. Counts come from the sequential episode-order
// aggregation, so they are identical at any Workers setting.
func (c Config) publishMetrics(rep *Report, detected int) {
	r := c.Metrics
	if r == nil {
		return
	}
	r.Counter("mission_episodes_total", "Signals generated by the mission workload.").
		Add(uint64(rep.Episodes))
	r.Counter("mission_detected_total", "Signals seen by at least one footprint.").
		Add(uint64(detected))
	levels := make(map[qos.Level]uint64)
	for _, out := range rep.Outcomes {
		levels[out.Level]++
	}
	for l := qos.Level(0); l < qos.NumLevels; l++ {
		r.Counter(fmt.Sprintf("mission_episode_level_total{level=%q}", l),
			"Mission episode outcomes by achieved QoS level.").Add(levels[l])
	}
}

type runner struct {
	cfg  Config
	cons *constellation.Constellation
	// scan is the fast coverage scanner over cons, shared by every
	// worker of the batch (its queries are safe for concurrent use).
	scan *constellation.Scanner
	// scratch pools per-episode scan buffers. The runner is shared by
	// every worker of the batch, so the buffers go through a sync.Pool:
	// one Get/Put per episode, reused allocation-free within it.
	scratch sync.Pool
	// brute forces the per-orbit reference scan instead of the SoA fast
	// scanner. Test hook: TestFastScanMatchesBruteMission holds the two
	// paths to identical reports.
	brute bool
}

// satKey identifies a satellite across queries.
type satKey struct{ plane, index int }

// episodeScratch holds one episode's coverage-scan state: the fast
// scanner's covering-ref buffer, the covering set (overwritten by every
// scan step), the pinned detection-time covering set, the
// fresh-opportunity set, and the fault-ordinal assignment. views backs
// the brute-force reference path. The scratch is owned by exactly one
// worker at a time.
type episodeScratch struct {
	refs     []constellation.SatRef
	views    []constellation.SatView
	cov      []satKey
	initial  []satKey
	fresh    []satKey
	ordinals map[satKey]int
	// rec is the pooled span recorder (nil until the first traced
	// episode on this scratch; see epTrace).
	rec *trace.Recorder
}

// coveringAt lists the satellites covering the target at time t, via the
// structure-of-arrays fast scan (or the per-orbit reference path when
// the brute hook is set — the two produce identical covering sets). The
// result aliases sc.cov; the next call overwrites it.
func (r *runner) coveringAt(sc *episodeScratch, target orbit.LatLon, t float64) []satKey {
	sc.cov = sc.cov[:0]
	if r.brute {
		sc.views = r.cons.AppendCoveringSatellites(sc.views[:0], target, t)
		for _, v := range sc.views {
			if v.Covers {
				sc.cov = append(sc.cov, satKey{v.Plane, v.Index})
			}
		}
		return sc.cov
	}
	sc.refs = r.scan.AppendCovering(sc.refs[:0], target, t)
	for _, ref := range sc.refs {
		sc.cov = append(sc.cov, satKey{ref.Plane, ref.Index})
	}
	return sc.cov
}

// orbitOf resolves a satellite's orbit.
func (r *runner) orbitOf(k satKey) orbit.CircularOrbit {
	p, err := r.cons.Plane(k.plane)
	if err != nil {
		panic(fmt.Sprintf("mission: plane %d vanished: %v", k.plane, err))
	}
	return p.ActiveOrbit(k.index)
}

// episode runs one signal through detection, opportunity scheduling, and
// estimation, drawing all of its randomness from the given substream.
// ord is the signal's index in the generated workload; it keys trace
// retention and never feeds back into the outcome.
func (r *runner) episode(ord uint64, sig signal.Signal, rng *stats.RNG) EpisodeOutcome {
	out := EpisodeOutcome{
		Signal:           sig,
		Level:            qos.LevelMiss,
		DetectionDelay:   math.NaN(),
		RealizedErrorKm:  math.NaN(),
		EstimatedErrorKm: math.NaN(),
	}
	sc, _ := r.scratch.Get().(*episodeScratch)
	if sc == nil {
		sc = &episodeScratch{ordinals: make(map[satKey]int)}
	}
	defer r.scratch.Put(sc)
	clear(sc.ordinals)
	tr := r.startTrace(sc, ord, sig.Start)

	// covering applies the scripted fault scenario on top of the raw
	// geometry: ordinals are assigned in first-coverage order within this
	// episode (even to satellites the scenario silences from the start),
	// and a satellite that is fail-silent at t is invisible to the scan.
	covering := func(t float64) []satKey {
		cov := r.coveringAt(sc, sig.Position, t)
		if r.cfg.Faults.Empty() {
			return cov
		}
		alive := cov[:0]
		for _, k := range cov {
			ord, ok := sc.ordinals[k]
			if !ok {
				ord = len(sc.ordinals) + 1
				sc.ordinals[k] = ord
			}
			if !r.cfg.Faults.FailSilentAt(ord, t-sig.Start) {
				alive = append(alive, k)
			}
		}
		sc.cov = alive
		return alive
	}

	// Detection: first instant a footprint covers the active signal. The
	// covering set is copied into its own buffer: cov is overwritten by
	// every later scan step, while initial must survive the episode.
	scanSpan := tr.begin(trace.KindAwait, "detect-scan", sig.Start)
	t0 := math.NaN()
	var initial []satKey
	for t := sig.Start; t < sig.End(); t += coverScanStep {
		if cov := covering(t); len(cov) > 0 {
			t0 = t
			sc.initial = append(sc.initial[:0], cov...)
			initial = sc.initial
			break
		}
	}
	if math.IsNaN(t0) {
		tr.end(scanSpan, sig.End(), 0)
		tr.event("target-escaped", sig.End(), 0)
		tr.finish(&out, sig.End())
		return out // escaped surveillance
	}
	tr.end(scanSpan, t0, float64(len(initial)))
	out.Detected = true
	out.DetectionDelay = t0 - sig.Start
	deadline := t0 + r.cfg.TauMin

	sensor := geoloc.Sensor{CarrierHz: r.cfg.CarrierHz, NoiseHz: r.cfg.NoiseHz}
	guess := r.perturb(sig.Position, rng)

	// Initial observation window: while the first satellite covers, the
	// signal lives, and the deadline allows.
	obsEnd := math.Min(math.Min(sig.End(), deadline), t0+2)
	if obsEnd <= t0 {
		obsEnd = t0 + coverScanStep
	}
	fixSpan := tr.begin(trace.KindCompute, "initial-fix", t0)
	meas := r.observe(sensor, initial, sig.Position, t0, obsEnd, rng)
	est := geoloc.Estimator{}
	first, err := est.Solve(meas, guess, r.cfg.CarrierHz, nil)
	if err != nil {
		// The preliminary fix failed to converge; the alert still goes
		// out (level 1) but carries no usable estimate.
		tr.end(fixSpan, obsEnd, float64(len(meas)))
		tr.event("fix-diverged", obsEnd, 0)
		out.Level = qos.LevelSingle
		out.PassesFused = len(initial)
		tr.finish(&out, obsEnd)
		return out
	}
	tr.end(fixSpan, obsEnd, float64(len(meas)))
	record := func(level qos.Level, e geoloc.Estimate, passes int) {
		out.Level = level
		out.PassesFused = passes
		out.RealizedErrorKm = e.DistanceKm(sig.Position)
		out.EstimatedErrorKm = e.ErrorKm()
	}

	if len(initial) >= 2 {
		// Simultaneous multiple coverage at detection.
		record(qos.LevelSimultaneousDual, first, len(initial))
		tr.finish(&out, obsEnd)
		return out
	}
	if r.cfg.Scheme == qos.SchemeBAQ {
		record(qos.LevelSingle, first, 1)
		tr.finish(&out, obsEnd)
		return out
	}

	// OAQ: scan the window of opportunity for the first moment a new
	// satellite covers the still-active target before the deadline.
	horizon := math.Min(deadline, sig.End())
	oppSpan := tr.begin(trace.KindAwait, "opportunity-scan", t0)
	for t := t0 + coverScanStep; t <= horizon; t += coverScanStep {
		cov := covering(t)
		sc.fresh = appendExcluding(sc.fresh[:0], cov, initial[0])
		fresh := sc.fresh
		if len(fresh) == 0 {
			continue
		}
		tr.end(oppSpan, t, float64(len(fresh)))
		oppSpan = 0 // ended; the post-loop close must not end it again
		obsEnd := math.Min(math.Min(sig.End(), deadline), t+2)
		refineSpan := tr.begin(trace.KindCompute, "refined-fix", t)
		meas2 := r.observe(sensor, fresh, sig.Position, t, obsEnd, rng)
		refined, err := est.Solve(meas2, first.Position, first.FreqHz, &first)
		tr.end(refineSpan, obsEnd, float64(len(meas2)))
		if err != nil {
			tr.event("fix-diverged", obsEnd, 0)
			break
		}
		if len(cov) >= 2 {
			record(qos.LevelSimultaneousDual, refined, 1+len(fresh))
		} else {
			record(qos.LevelSequentialDual, refined, 1+len(fresh))
		}
		tr.finish(&out, obsEnd)
		return out
	}
	// No opportunity materialized: deliver the preliminary result.
	tr.end(oppSpan, horizon, 0)
	record(qos.LevelSingle, first, 1)
	tr.finish(&out, horizon)
	return out
}

// observe collects measurements from each satellite over [start, end].
func (r *runner) observe(sensor geoloc.Sensor, sats []satKey, target orbit.LatLon, start, end float64, rng *stats.RNG) []geoloc.Measurement {
	times, err := geoloc.PassTimes(start, end, r.cfg.SamplesPerPass)
	if err != nil {
		// end > start is guaranteed by the callers; a degenerate window
		// still yields the minimum two samples.
		times = []float64{start, start + coverScanStep}
	}
	var all []geoloc.Measurement
	for _, k := range sats {
		m, err := sensor.Observe(r.orbitOf(k), target, times, rng)
		if err != nil {
			continue
		}
		all = append(all, m...)
	}
	return all
}

// perturb displaces the truth by a uniform offset within the coarse
// detection cell, producing the estimator's starting point.
func (r *runner) perturb(p orbit.LatLon, rng *stats.RNG) orbit.LatLon {
	if r.cfg.InitialGuessKm == 0 {
		return p
	}
	angle := 2 * math.Pi * rng.Float64()
	radius := r.cfg.InitialGuessKm * math.Sqrt(rng.Float64())
	dLat := radius * math.Cos(angle) / orbit.EarthRadiusKm
	dLon := radius * math.Sin(angle) / (orbit.EarthRadiusKm * math.Cos(p.Lat))
	return orbit.LatLon{Lat: p.Lat + dLat, Lon: p.Lon + dLon}
}

// appendExcluding appends to dst the members of cov other than the
// already-used satellite.
func appendExcluding(dst, cov []satKey, used satKey) []satKey {
	for _, k := range cov {
		if k != used {
			dst = append(dst, k)
		}
	}
	return dst
}
