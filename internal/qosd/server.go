// Package qosd is the QoS-evaluation service behind cmd/satqosd: a
// long-running HTTP server that answers "what QoS does this
// constellation + protocol + fault scenario deliver" queries over the
// same analytic model and Monte-Carlo episode engine the batch CLIs
// use. The server adds what a daemon needs and a CLI doesn't: an
// episode-weighted admission budget with explicit 429 load shedding,
// graceful degradation to analytic-only answers under pressure, a
// canonical-key response cache, per-request deadlines threaded into the
// episode engine as context cancellation, and a metrics/trace surface
// on the shared debug mux. Each Monte-Carlo evaluation publishes its
// simulation metrics into the server registry once, and its answer
// reads the alert-latency quantiles from the evaluation itself.
//
// Which backend may answer a request is stated once, in the backends
// table of request.go. An explicit mode given a field its backend does
// not model answers 400 naming it; auto takes the first backend that
// models the whole request, and under budget pressure degrades to
// analytic only when analytic models it.
//
// Monte-Carlo answers are bit-identical to oaqbench for the same
// parameters and seed at any server worker count: evaluation goes
// through oaq.EvaluateParallelCtx, whose fixed shard decomposition
// makes the answer a pure function of (params, episodes, seed).
package qosd

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"satqos/internal/constellation"
	"satqos/internal/oaq"
	"satqos/internal/obs"
	"satqos/internal/obs/trace"
	"satqos/internal/orbit"
	"satqos/internal/qos"
)

// Evaluation modes (Request.Mode and Response.Mode).
const (
	ModeAnalytic   = "analytic"
	ModeMonteCarlo = "montecarlo"
	ModeStochGeom  = "stochgeom"
	ModeAuto       = "auto"
)

// Response is the /v1/evaluate answer.
type Response struct {
	// Mode is the path that actually produced the answer ("analytic",
	// "montecarlo" or "stochgeom") — for auto requests it reveals which
	// backend answered and whether the server degraded.
	Mode string `json:"mode"`
	// Degraded is true when an auto request wanted Monte-Carlo but the
	// admission budget forced the analytic fallback.
	Degraded bool `json:"degraded,omitempty"`
	// Cached is true when the answer was served from the response cache.
	Cached bool `json:"cached,omitempty"`

	Preset   string `json:"preset"`
	K        int    `json:"k"`
	Scheme   string `json:"scheme"`
	Episodes int    `json:"episodes,omitempty"` // Monte-Carlo only
	Seed     uint64 `json:"seed,omitempty"`     // Monte-Carlo only

	// PYGE[y] is P(Y ≥ y) for y = 0..3, the paper's QoS measure.
	PYGE      [qos.NumLevels]float64 `json:"p_y_ge"`
	MeanLevel float64                `json:"mean_level"`

	// Stochastic-geometry detail (stochgeom answers only): the BPP
	// visible-count law at the request latitude.
	LatitudeDeg      float64 `json:"latitude_deg,omitempty"`
	VisibleMean      float64 `json:"visible_mean,omitempty"`
	CoverageFraction float64 `json:"coverage_fraction,omitempty"`
	Localizability   float64 `json:"localizability,omitempty"`
	PKVisible        float64 `json:"p_k_visible,omitempty"`

	// Monte-Carlo detail (absent on analytic answers).
	DeliveredFraction   float64           `json:"delivered_fraction,omitempty"`
	DetectedFraction    float64           `json:"detected_fraction,omitempty"`
	MeanChainLength     float64           `json:"mean_chain_length,omitempty"`
	MeanMessages        float64           `json:"mean_messages,omitempty"`
	MeanDeliveryLatency float64           `json:"mean_delivery_latency_min,omitempty"`
	Terminations        map[string]int    `json:"terminations,omitempty"`
	AlertLatency        *LatencyQuantiles `json:"alert_latency,omitempty"`

	ElapsedMS float64 `json:"elapsed_ms"`
}

// LatencyQuantiles summarizes a Monte-Carlo answer's alert latency, in
// minutes, interpolated within fixed buckets (obs.MinuteBuckets).
type LatencyQuantiles struct {
	P50 float64 `json:"p50_min"`
	P90 float64 `json:"p90_min"`
	P99 float64 `json:"p99_min"`
}

// Config parameterizes a Server. Zero values pick serving defaults.
type Config struct {
	// Registry receives the server's own satqosd_* metrics, and each
	// Monte-Carlo evaluation publishes its simulation metrics (oaq_*,
	// des_*, crosslink_*, …) into it once; it also backs the debug mux's
	// /metrics endpoints. Required.
	Registry *obs.Registry
	// Workers is the episode-engine worker count per Monte-Carlo request
	// (default GOMAXPROCS). The answer does not depend on it.
	Workers int
	// MaxEpisodes caps a single request's episode budget (default 1e6).
	MaxEpisodes int
	// MCBudget caps the total episodes admitted across in-flight
	// Monte-Carlo requests (default 4·MaxEpisodes). Requests that would
	// exceed it are shed with 429, or degraded where the backends table
	// allows it.
	MCBudget int64
	// CacheSize is the response-cache capacity in entries (default 256;
	// negative disables caching).
	CacheSize int
	// RequestTimeout bounds each evaluation (default 30s). A request's
	// timeout_ms may shorten, never extend, it.
	RequestTimeout time.Duration
	// Tracing, when non-nil, samples episode traces from served
	// Monte-Carlo evaluations into its collector.
	Tracing *trace.Config
}

// Server evaluates QoS queries over HTTP. Create with NewServer and
// mount Handler on an http.Server.
type Server struct {
	cfg   Config
	cache *responseCache

	// inflightEpisodes is the admission ledger: episodes of admitted,
	// not-yet-finished Monte-Carlo requests. Admission is a CAS so a
	// burst can't collectively overshoot the budget.
	inflightEpisodes atomic.Int64

	// scanners holds one long-lived Scanner per preset, built lazily on
	// the first /v1/coverage query and shared by every subsequent
	// request. scanMu guards only (de)registration; queries go straight
	// to the scanner's lock-free snapshot.
	scanMu   sync.Mutex
	scanners map[string]*constellation.Scanner

	requests  *obs.Counter
	errors    *obs.Counter
	shed      *obs.Counter
	degraded  *obs.Counter
	cacheHit  *obs.Counter
	cacheMiss *obs.Counter
	analytic  *obs.Counter
	mc        *obs.Counter
	stoch     *obs.Counter
	coverage  *obs.Counter
	inflight  *obs.Gauge
	budget    *obs.Gauge
	latency   *obs.Histogram
}

// NewServer validates cfg, applies defaults, and pre-registers the
// server's metric families so scrapes see them at zero before traffic.
func NewServer(cfg Config) (*Server, error) {
	if cfg.Registry == nil {
		return nil, errors.New("qosd: Config.Registry is required")
	}
	if cfg.Workers <= 0 {
		cfg.Workers = runtime.GOMAXPROCS(0)
	}
	if cfg.MaxEpisodes <= 0 {
		cfg.MaxEpisodes = 1_000_000
	}
	if cfg.MCBudget <= 0 {
		cfg.MCBudget = 4 * int64(cfg.MaxEpisodes)
	}
	if cfg.CacheSize == 0 {
		cfg.CacheSize = 256
	}
	if cfg.RequestTimeout <= 0 {
		cfg.RequestTimeout = 30 * time.Second
	}
	if cfg.Tracing != nil {
		if err := cfg.Tracing.Validate(); err != nil {
			return nil, fmt.Errorf("qosd: tracing config: %w", err)
		}
	}
	r := cfg.Registry
	s := &Server{
		cfg:       cfg,
		cache:     newResponseCache(cfg.CacheSize),
		scanners:  make(map[string]*constellation.Scanner),
		requests:  r.Counter("satqosd_requests_total", "Evaluation requests received."),
		errors:    r.Counter("satqosd_request_errors_total", "Evaluation requests answered with an error status."),
		shed:      r.Counter("satqosd_shed_total", "Monte-Carlo requests shed with 429 under budget pressure."),
		degraded:  r.Counter("satqosd_degraded_total", "Auto requests degraded to analytic-only under budget pressure."),
		cacheHit:  r.Counter("satqosd_cache_hits_total", "Responses served from the canonical-key cache."),
		cacheMiss: r.Counter("satqosd_cache_misses_total", "Evaluations computed on a cache miss."),
		analytic:  r.Counter("satqosd_analytic_total", "Answers produced by the closed-form model."),
		mc:        r.Counter("satqosd_montecarlo_total", "Answers produced by the episode engine."),
		stoch:     r.Counter("satqosd_stochgeom_total", "Answers produced by the stochastic-geometry backend."),
		coverage:  r.Counter("satqosd_coverage_total", "Coverage queries served from the shared scanner."),
		inflight:  r.Gauge("satqosd_inflight_requests", "Evaluation requests currently being served."),
		budget:    r.Gauge("satqosd_inflight_episodes", "Episodes admitted to in-flight Monte-Carlo evaluations."),
		latency:   r.Histogram("satqosd_request_seconds", "Evaluation wall-clock per request.", obs.DurationBuckets),
	}
	return s, nil
}

// Handler is the server's full mux: POST /v1/evaluate, GET /healthz,
// and the obs debug surface (/metrics, /metrics.json, /debug/pprof/).
func (s *Server) Handler() http.Handler {
	mux := obs.DebugMux(s.cfg.Registry)
	mux.HandleFunc("/v1/evaluate", s.handleEvaluate)
	mux.HandleFunc("/v1/coverage", s.handleCoverage)
	mux.HandleFunc("/healthz", s.handleHealthz)
	return mux
}

func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	fmt.Fprintf(w, "{\"status\":\"ok\",\"inflight_requests\":%d,\"inflight_episodes\":%d}\n",
		s.inflight.Value(), s.inflightEpisodes.Load())
}

// admitMC reserves episodes from the Monte-Carlo budget; the returned
// release must be called exactly once when false is not returned.
func (s *Server) admitMC(episodes int) (release func(), ok bool) {
	n := int64(episodes)
	for {
		cur := s.inflightEpisodes.Load()
		if cur+n > s.cfg.MCBudget {
			return nil, false
		}
		if s.inflightEpisodes.CompareAndSwap(cur, cur+n) {
			// Deltas, not Sets: a Set could land after a later release's
			// and leave a drained server reporting episodes in flight.
			s.budget.Add(n)
			return func() {
				s.inflightEpisodes.Add(-n)
				s.budget.Add(-n)
			}, true
		}
	}
}

// maxRequestBytes bounds a /v1/evaluate request body; a larger body is
// answered 413.
const maxRequestBytes = 1 << 20

// httpError is an evaluation failure with a definite status code.
type httpError struct {
	status int
	err    error
}

func (e *httpError) Error() string { return e.err.Error() }

func (s *Server) handleEvaluate(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", http.MethodPost)
		http.Error(w, "POST only", http.StatusMethodNotAllowed)
		return
	}
	s.requests.Inc()
	s.inflight.Add(1)
	defer s.inflight.Add(-1)
	start := time.Now()

	var req Request
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxRequestBytes))
	dec.DisallowUnknownFields()
	err := dec.Decode(&req)
	if err == nil {
		// Only whitespace may follow the object.
		if _, err = dec.Token(); err == io.EOF {
			err = nil
		} else if err == nil {
			err = errors.New("trailing data after the JSON object")
		}
	}
	if err != nil {
		status := http.StatusBadRequest
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			status = http.StatusRequestEntityTooLarge
		}
		s.fail(w, status, fmt.Errorf("decoding request: %w", err))
		return
	}
	resp, herr := s.evaluate(r.Context(), &req)
	elapsed := time.Since(start)
	s.latency.Observe(elapsed.Seconds())
	if herr != nil {
		s.fail(w, herr.status, herr.err)
		return
	}
	resp.ElapsedMS = float64(elapsed.Nanoseconds()) / 1e6
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(resp); err != nil {
		// Headers are gone; nothing to do but note it.
		s.errors.Inc()
	}
}

func (s *Server) fail(w http.ResponseWriter, status int, err error) {
	s.errors.Inc()
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	body, _ := json.Marshal(map[string]string{"error": err.Error()})
	w.Write(append(body, '\n'))
}

// evaluate answers one resolved request. The returned *httpError is nil
// on success.
func (s *Server) evaluate(ctx context.Context, req *Request) (*Response, *httpError) {
	rv, err := req.resolve(s.cfg.MaxEpisodes)
	if err != nil {
		return nil, &httpError{http.StatusBadRequest, err}
	}

	if resp, ok := s.cache.get(rv.key); ok {
		s.cacheHit.Inc()
		return &resp, nil
	}
	s.cacheMiss.Inc()

	// Over the Monte-Carlo budget, an auto request the analytic row
	// models degrades to the closed-form answer; any other is shed.
	backend := rv.backend
	if backend == ModeMonteCarlo {
		release, ok := s.admitMC(rv.episodes)
		switch {
		case ok:
			defer release()
		case rv.mode == ModeAuto && rv.fits(row(ModeAnalytic)):
			s.degraded.Inc()
			backend = ModeAnalytic
		default:
			s.shed.Inc()
			return nil, &httpError{http.StatusTooManyRequests,
				fmt.Errorf("monte-carlo budget exhausted (%d episodes in flight, cap %d); retry later",
					s.inflightEpisodes.Load(), s.cfg.MCBudget)}
		}
	}

	timeout := s.cfg.RequestTimeout
	// Compared in whole milliseconds so that a huge timeout_ms cannot
	// overflow into a negative deadline.
	if req.TimeoutMS > 0 && time.Duration(req.TimeoutMS) <= timeout/time.Millisecond {
		timeout = time.Duration(req.TimeoutMS) * time.Millisecond
	}
	ctx, cancel := context.WithTimeout(ctx, timeout)
	defer cancel()

	var resp *Response
	switch backend {
	case ModeMonteCarlo:
		resp, err = s.evaluateMC(ctx, rv)
	case ModeStochGeom:
		resp, err = s.evaluateStochGeom(rv)
	default:
		resp, err = s.evaluateAnalytic(rv)
	}
	if err != nil {
		switch {
		case errors.Is(err, context.DeadlineExceeded):
			return nil, &httpError{http.StatusGatewayTimeout,
				fmt.Errorf("evaluation exceeded its %v deadline", timeout)}
		case errors.Is(err, context.Canceled):
			return nil, &httpError{http.StatusServiceUnavailable, err}
		default:
			return nil, &httpError{http.StatusInternalServerError, err}
		}
	}
	resp.Degraded = backend != rv.backend
	if !resp.Degraded {
		// Degraded answers reflect transient pressure, not the request;
		// caching them would keep serving the fallback after load clears.
		s.cache.put(rv.key, *resp)
	}
	return resp, nil
}

// evaluateAnalytic answers from the closed-form model: the conditional
// PMF at fixed k, or its composition over the deployment policy's
// capacity distribution when one was supplied.
func (s *Server) evaluateAnalytic(rv *resolved) (*Response, error) {
	var pmf qos.PMF
	var err error
	if rv.capures != nil {
		dist, derr := rv.capures.Analytic()
		if derr != nil {
			return nil, derr
		}
		pmf, err = rv.model.Compose(rv.scheme, dist)
	} else {
		pmf, err = rv.model.ConditionalPMF(rv.scheme, rv.k)
	}
	if err != nil {
		return nil, err
	}
	s.analytic.Inc()
	return rv.answer(ModeAnalytic, pmf), nil
}

// answer starts a backend's response: the resolved request's header
// and the QoS law pmf.
func (rv *resolved) answer(mode string, pmf qos.PMF) *Response {
	resp := &Response{Mode: mode, Preset: rv.preset, K: rv.k, Scheme: rv.scheme.String(), MeanLevel: pmf.Mean()}
	for y := qos.Level(0); y < qos.NumLevels; y++ {
		resp.PYGE[y] = pmf.CCDF(y)
	}
	return resp
}

// evaluateStochGeom answers from the stochastic-geometry backend: the
// BPP visible-count law of the design at the request latitude, plus
// the QoS composition of the analytic model over that law — the
// visible-count PMF enters qos.Model.Compose through the clamped
// capacity adapter, with mass outside [1, maxK] folded onto the
// bounds. Cost is independent of fleet size and of any time
// discretization.
func (s *Server) evaluateStochGeom(rv *resolved) (*Response, error) {
	v, err := rv.design.Evaluate(rv.lat)
	if err != nil {
		return nil, err
	}
	dist, err := v.CapacityDistribution(1, rv.maxK)
	if err != nil {
		return nil, err
	}
	pmf, err := rv.model.Compose(rv.scheme, dist)
	if err != nil {
		return nil, err
	}
	s.stoch.Inc()
	resp := rv.answer(ModeStochGeom, pmf)
	resp.LatitudeDeg = rv.lat * 180 / math.Pi
	resp.VisibleMean = v.Mean()
	resp.CoverageFraction = v.CoverageFraction()
	resp.Localizability = v.Localizability(rv.minSats)
	resp.PKVisible = v.P(rv.k)
	return resp, nil
}

// badRequestError marks a coverage query's client errors (HTTP 400)
// apart from server faults.
type badRequestError struct{ err error }

func (e badRequestError) Error() string { return e.err.Error() }

// scanner returns the long-lived shared scanner of the preset,
// building it on first use. Every /v1/coverage query for a preset
// after the first reads the same scanner's lock-free snapshot.
func (s *Server) scanner(preset string) (*constellation.Scanner, error) {
	s.scanMu.Lock()
	defer s.scanMu.Unlock()
	if sc, ok := s.scanners[preset]; ok {
		return sc, nil
	}
	cfg, err := constellation.PresetConfig(preset)
	if err != nil {
		return nil, badRequestError{err}
	}
	c, err := constellation.New(cfg)
	if err != nil {
		return nil, err
	}
	sc := constellation.NewScanner(c)
	s.scanners[preset] = sc
	return sc, nil
}

// handleCoverage serves GET /v1/coverage: the exact simultaneous-
// coverage count of a preset constellation at a ground target and
// time, from the preset's shared scanner.
//
// Query parameters: preset (default reference), lat_deg (default 30),
// lon_deg (default 0), t_min (default 0).
func (s *Server) handleCoverage(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		w.Header().Set("Allow", http.MethodGet)
		http.Error(w, "GET only", http.StatusMethodNotAllowed)
		return
	}
	q := r.URL.Query()
	preset := q.Get("preset")
	if preset == "" {
		preset = constellation.PresetReference
	}
	num := func(name string, def float64) (float64, error) {
		raw := q.Get(name)
		if raw == "" {
			return def, nil
		}
		v, err := strconv.ParseFloat(raw, 64)
		if err != nil || math.IsNaN(v) || math.IsInf(v, 0) {
			return 0, fmt.Errorf("bad %s %q", name, raw)
		}
		return v, nil
	}
	latDeg, err := num("lat_deg", 30)
	if err == nil && (latDeg < -90 || latDeg > 90) {
		err = fmt.Errorf("lat_deg %g outside [-90, 90]", latDeg)
	}
	var lonDeg, tMin float64
	if err == nil {
		lonDeg, err = num("lon_deg", 0)
	}
	if err == nil {
		tMin, err = num("t_min", 0)
	}
	if err != nil {
		s.fail(w, http.StatusBadRequest, err)
		return
	}
	sc, err := s.scanner(preset)
	if err != nil {
		var bad badRequestError
		if errors.As(err, &bad) {
			s.fail(w, http.StatusBadRequest, err)
		} else {
			s.fail(w, http.StatusInternalServerError, err)
		}
		return
	}
	target := orbit.LatLon{Lat: latDeg * math.Pi / 180, Lon: lonDeg * math.Pi / 180}
	n := sc.CoverageCount(target, tMin)
	s.coverage.Inc()
	w.Header().Set("Content-Type", "application/json")
	fmt.Fprintf(w, "{\"preset\":%q,\"lat_deg\":%g,\"lon_deg\":%g,\"t_min\":%g,\"covering\":%d}\n",
		preset, latDeg, lonDeg, tMin, n)
}

// evaluateMC answers from the episode engine, with the request deadline
// threaded in as cancellation. The evaluation publishes its simulation
// metrics into the server registry once, so /metrics accumulates totals
// across requests; the alert-latency quantiles come from the evaluation.
func (s *Server) evaluateMC(ctx context.Context, rv *resolved) (*Response, error) {
	p := rv.params
	p.Metrics = s.cfg.Registry
	p.Tracing = s.cfg.Tracing.WithScope("qosd/" + rv.preset)
	ev, err := oaq.EvaluateParallelCtx(ctx, p, rv.episodes, rv.seed, s.cfg.Workers)
	if err != nil {
		return nil, err
	}
	s.mc.Inc()
	resp := rv.answer(ModeMonteCarlo, ev.PMF)
	resp.Episodes = ev.Episodes
	resp.Seed = rv.seed
	resp.DeliveredFraction = ev.DeliveredFraction
	resp.DetectedFraction = ev.DetectedFraction
	resp.MeanChainLength = ev.MeanChainLength
	resp.MeanMessages = ev.MeanMessages
	resp.MeanDeliveryLatency = ev.MeanDeliveryLatency
	resp.Terminations = make(map[string]int, len(ev.Terminations))
	for cause, n := range ev.Terminations {
		resp.Terminations[cause.String()] = n
	}
	if p50, ok := ev.AlertLatencyQuantile(0.50); ok {
		p90, _ := ev.AlertLatencyQuantile(0.90)
		p99, _ := ev.AlertLatencyQuantile(0.99)
		resp.AlertLatency = &LatencyQuantiles{P50: p50, P90: p90, P99: p99}
	}
	return resp, nil
}
