package qosd

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"

	"satqos/internal/oaq"
	"satqos/internal/obs"
	"satqos/internal/qos"
)

func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	if cfg.Registry == nil {
		cfg.Registry = obs.NewRegistry()
	}
	s, err := NewServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

func post(t *testing.T, ts *httptest.Server, body string) (*http.Response, Response) {
	t.Helper()
	resp, err := http.Post(ts.URL+"/v1/evaluate", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out Response
	if resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
			t.Fatalf("decoding response: %v", err)
		}
	}
	return resp, out
}

// TestAnalyticMatchesModel: the served analytic answer is exactly the
// closed-form model's conditional PMF — same floats, not approximately.
func TestAnalyticMatchesModel(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, got := post(t, ts, `{"mode":"analytic","k":10,"scheme":"oaq"}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if got.Mode != ModeAnalytic || got.K != 10 {
		t.Fatalf("answer header: %+v", got)
	}

	geom := qos.ReferenceGeometry()
	m, err := qos.NewModel(geom, 5, 0.5, 30)
	if err != nil {
		t.Fatal(err)
	}
	pmf, err := m.ConditionalPMF(qos.SchemeOAQ, 10)
	if err != nil {
		t.Fatal(err)
	}
	for y := qos.Level(0); y < qos.NumLevels; y++ {
		if got.PYGE[y] != pmf.CCDF(y) {
			t.Errorf("P(Y>=%d) = %v, model says %v", y, got.PYGE[y], pmf.CCDF(y))
		}
	}
	if got.MeanLevel != pmf.Mean() {
		t.Errorf("MeanLevel = %v, model says %v", got.MeanLevel, pmf.Mean())
	}
}

// TestAnalyticComposesDeployment: with a deployment policy the answer
// composes over the capacity distribution instead of conditioning on K.
func TestAnalyticComposesDeployment(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, got := post(t, ts, `{"mode":"analytic","preset":"reference","scheme":"oaq",
		"deployment":{"eta":2,"lambda_per_hour":0.001,"phi_hours":2160}}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	fixed, fixedAns := post(t, ts, `{"mode":"analytic","preset":"reference","scheme":"oaq"}`)
	if fixed.StatusCode != http.StatusOK {
		t.Fatalf("status %d", fixed.StatusCode)
	}
	if got.PYGE == fixedAns.PYGE {
		t.Error("deployment composition returned the fixed-k answer")
	}
}

// TestMonteCarloBitIdenticalAcrossWorkerCounts: the acceptance
// criterion — the served Monte-Carlo answer equals a direct
// oaq.EvaluateParallel run for the same params and seed, at any server
// worker count.
func TestMonteCarloBitIdenticalAcrossWorkerCounts(t *testing.T) {
	const body = `{"mode":"montecarlo","k":10,"scheme":"oaq","episodes":4096,"seed":77}`
	req := Request{}
	if err := json.NewDecoder(strings.NewReader(body)).Decode(&req); err != nil {
		t.Fatal(err)
	}
	rv, err := req.resolve(1_000_000, 1000)
	if err != nil {
		t.Fatal(err)
	}
	want, err := oaq.EvaluateParallel(rv.params, rv.episodes, rv.seed, 3)
	if err != nil {
		t.Fatal(err)
	}

	var answers []Response
	for _, workers := range []int{1, 7} {
		_, ts := newTestServer(t, Config{Workers: workers})
		resp, got := post(t, ts, body)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("workers=%d: status %d", workers, resp.StatusCode)
		}
		if got.Mode != ModeMonteCarlo || got.Episodes != 4096 || got.Seed != 77 {
			t.Fatalf("workers=%d: answer header %+v", workers, got)
		}
		for y := qos.Level(0); y < qos.NumLevels; y++ {
			if got.PYGE[y] != want.PMF.CCDF(y) {
				t.Errorf("workers=%d: P(Y>=%d) = %v, direct run says %v",
					workers, y, got.PYGE[y], want.PMF.CCDF(y))
			}
		}
		if got.MeanLevel != want.PMF.Mean() ||
			got.DeliveredFraction != want.DeliveredFraction ||
			got.MeanMessages != want.MeanMessages ||
			got.MeanDeliveryLatency != want.MeanDeliveryLatency {
			t.Errorf("workers=%d: summary stats diverge from the direct run", workers)
		}
		got.ElapsedMS = 0 // the only wall-clock-dependent field
		answers = append(answers, got)
	}
	if !reflect.DeepEqual(answers[0], answers[1]) {
		t.Errorf("served answers differ across worker counts:\n%+v\n%+v", answers[0], answers[1])
	}
	if answers[0].AlertLatency == nil {
		t.Error("Monte-Carlo answer missing alert-latency quantiles")
	}
	if len(answers[0].Terminations) == 0 {
		t.Error("Monte-Carlo answer missing termination breakdown")
	}
}

// TestMonteCarloShedsAt429: a montecarlo request that exceeds the
// admission budget is shed with an explicit 429 and counted.
func TestMonteCarloShedsAt429(t *testing.T) {
	reg := obs.NewRegistry()
	s, ts := newTestServer(t, Config{Registry: reg, MCBudget: 100})
	resp, _ := post(t, ts, `{"mode":"montecarlo","episodes":1000,"seed":7}`)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status %d, want 429", resp.StatusCode)
	}
	if got := s.shed.Value(); got != 1 {
		t.Errorf("satqosd_shed_total = %d, want 1", got)
	}
	if got := s.errors.Value(); got != 1 {
		t.Errorf("satqosd_request_errors_total = %d, want 1", got)
	}
	if s.inflightEpisodes.Load() != 0 {
		t.Errorf("shed request leaked budget: %d episodes in flight", s.inflightEpisodes.Load())
	}
	// Within budget, the same request is admitted.
	ok, _ := post(t, ts, `{"mode":"montecarlo","episodes":64,"seed":7}`)
	if ok.StatusCode != http.StatusOK {
		t.Fatalf("in-budget request rejected: status %d", ok.StatusCode)
	}
	if s.inflightEpisodes.Load() != 0 {
		t.Errorf("completed request leaked budget: %d episodes in flight", s.inflightEpisodes.Load())
	}
}

// TestAutoDegradesToAnalytic: the same pressure that sheds a montecarlo
// request degrades an auto request to a still-useful analytic answer.
func TestAutoDegradesToAnalytic(t *testing.T) {
	s, ts := newTestServer(t, Config{MCBudget: 100})
	resp, got := post(t, ts, `{"mode":"auto","episodes":1000,"seed":7}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d, want 200", resp.StatusCode)
	}
	if got.Mode != ModeAnalytic || !got.Degraded {
		t.Fatalf("want a degraded analytic answer, got mode=%q degraded=%t", got.Mode, got.Degraded)
	}
	if got := s.degraded.Value(); got != 1 {
		t.Errorf("satqosd_degraded_total = %d, want 1", got)
	}
	// Degraded answers must not poison the cache: once pressure clears,
	// the same request gets the real Monte-Carlo answer.
	s.cfg.MCBudget = 1 << 20
	resp2, got2 := post(t, ts, `{"mode":"auto","episodes":1000,"seed":7}`)
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp2.StatusCode)
	}
	if got2.Mode != ModeMonteCarlo || got2.Degraded || got2.Cached {
		t.Fatalf("after pressure cleared: mode=%q degraded=%t cached=%t, want a fresh montecarlo answer",
			got2.Mode, got2.Degraded, got2.Cached)
	}
}

// TestCacheHitServesIdenticalAnswer: a repeated request is served from
// the cache — marked Cached, counted, and numerically identical.
func TestCacheHitServesIdenticalAnswer(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	const body = `{"mode":"montecarlo","episodes":2048,"seed":13}`
	resp1, first := post(t, ts, body)
	if resp1.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp1.StatusCode)
	}
	if first.Cached {
		t.Fatal("first answer claims to be cached")
	}
	resp2, second := post(t, ts, body)
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp2.StatusCode)
	}
	if !second.Cached {
		t.Fatal("repeat answer not served from cache")
	}
	second.Cached, second.ElapsedMS = first.Cached, first.ElapsedMS
	if !reflect.DeepEqual(first, second) {
		t.Errorf("cached answer differs:\n%+v\n%+v", first, second)
	}
	if s.cacheHit.Value() != 1 || s.cacheMiss.Value() != 1 {
		t.Errorf("cache counters: hits=%d misses=%d, want 1/1", s.cacheHit.Value(), s.cacheMiss.Value())
	}
	// Spelled-out defaults hit the same cache line as implied ones.
	resp3, third := post(t, ts, `{"mode":"montecarlo","preset":"reference","scheme":"oaq","tau_min":5,"mu":0.5,"nu":30,"episodes":2048,"seed":13}`)
	if resp3.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp3.StatusCode)
	}
	if !third.Cached {
		t.Error("canonicalized defaults missed the cache")
	}
}

// TestDeadlineCancelsEvaluation: a request timeout propagates into the
// episode engine and surfaces as 504, quickly.
func TestDeadlineCancelsEvaluation(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 2, MaxEpisodes: 50_000_000, MCBudget: 50_000_000})
	resp, _ := post(t, ts, `{"mode":"montecarlo","episodes":20000000,"seed":5,"timeout_ms":1}`)
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("status %d, want 504", resp.StatusCode)
	}
	if s.inflightEpisodes.Load() != 0 {
		t.Errorf("timed-out request leaked budget: %d episodes in flight", s.inflightEpisodes.Load())
	}
}

// TestBadRequestsAre400 sweeps the validation surface.
func TestBadRequestsAre400(t *testing.T) {
	_, ts := newTestServer(t, Config{MaxEpisodes: 1000})
	for _, body := range []string{
		`{"mode":"psychic"}`,
		`{"preset":"not-a-preset"}`,
		`{"scheme":"qam"}`,
		`{"episodes":-5}`,
		`{"episodes":100000}`, // over the server cap
		`{"timeout_ms":-1}`,
		`{"tau_min":-2}`,
		`{"unknown_field":1}`,
		`{"faults":{"not valid": }`,
		`{"deployment":{"eta":-1,"lambda_per_hour":0.001,"phi_hours":100}}`,
	} {
		resp, _ := post(t, ts, body)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", body, resp.StatusCode)
		}
	}
	resp, err := http.Get(ts.URL + "/v1/evaluate")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET: status %d, want 405", resp.StatusCode)
	}
}

// TestRequestBodyLimits: a body over maxRequestBytes is answered 413,
// anything but whitespace after the JSON object 400, and whitespace
// padding up to the limit is accepted.
func TestRequestBodyLimits(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	const obj = `{"mode":"analytic"}`
	for _, tc := range []struct {
		name string
		body string
		want int
	}{
		{"trailing whitespace", obj + "\n \t\r\n", http.StatusOK},
		{"padded to the limit", obj + strings.Repeat(" ", maxRequestBytes-len(obj)), http.StatusOK},
		{"padded past the limit", obj + strings.Repeat(" ", maxRequestBytes), http.StatusRequestEntityTooLarge},
		{"oversized object", `{"preset":"` + strings.Repeat("x", maxRequestBytes) + `"}`, http.StatusRequestEntityTooLarge},
		{"second object", obj + obj, http.StatusBadRequest},
		{"trailing garbage", obj + " x", http.StatusBadRequest},
		{"trailing brace", obj + "}", http.StatusBadRequest},
	} {
		resp, _ := post(t, ts, tc.body)
		if resp.StatusCode != tc.want {
			t.Errorf("%s: status %d, want %d", tc.name, resp.StatusCode, tc.want)
		}
	}
}

// TestHealthzAndMetricsSurface: the daemon's operational endpoints ride
// the shared debug mux alongside /v1/evaluate.
func TestHealthzAndMetricsSurface(t *testing.T) {
	reg := obs.NewRegistry()
	_, ts := newTestServer(t, Config{Registry: reg})
	if resp, _ := post(t, ts, `{"mode":"analytic"}`); resp.StatusCode != http.StatusOK {
		t.Fatalf("evaluate: status %d", resp.StatusCode)
	}

	get := func(path string) string {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: status %d", path, resp.StatusCode)
		}
		var b bytes.Buffer
		if _, err := b.ReadFrom(resp.Body); err != nil {
			t.Fatal(err)
		}
		return b.String()
	}
	if body := get("/healthz"); !strings.Contains(body, `"status":"ok"`) {
		t.Errorf("healthz: %q", body)
	}
	metrics := get("/metrics")
	for _, want := range []string{
		"satqosd_requests_total 1",
		"satqosd_analytic_total 1",
		"satqosd_shed_total 0",
		"satqosd_inflight_requests 0",
	} {
		if !strings.Contains(metrics, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
	if body := get("/metrics.json"); !strings.Contains(body, `"name": "satqosd_requests_total"`) {
		t.Errorf("/metrics.json missing the server family:\n%.300s", body)
	}
}

// TestLatencyQuantileInterpolation pins bucketQuantile on a hand-built
// histogram: 10 observations at 0.25 and 10 at 1.5 over MinuteBuckets.
func TestLatencyQuantileInterpolation(t *testing.T) {
	reg := obs.NewRegistry()
	h := reg.Histogram("oaq_alert_latency_minutes", "t.", obs.MinuteBuckets)
	for i := 0; i < 10; i++ {
		h.Observe(0.25)
		h.Observe(1.5)
	}
	q, ok := latencyQuantiles(reg.Snapshot(), "oaq_alert_latency_minutes")
	if !ok {
		t.Fatal("quantiles unavailable")
	}
	if q.P50 <= 0 || q.P50 > 0.5 {
		t.Errorf("p50 = %v, want within the (0, 0.5] bucket", q.P50)
	}
	if q.P90 <= 1 || q.P90 > 2 {
		t.Errorf("p90 = %v, want within the (1, 2] bucket", q.P90)
	}
	if q.P99 < q.P90 || q.P99 > 2 {
		t.Errorf("p99 = %v, want in [p90, 2]", q.P99)
	}
	if _, ok := latencyQuantiles(reg.Snapshot(), "missing_metric"); ok {
		t.Error("quantiles from a missing metric")
	}
}
