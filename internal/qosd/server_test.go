package qosd

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
	"time"

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

// TestHostileDeploymentAnswersPromptly: the capacity solve behind a
// deployment is bounded by the steps to absorption, not by λ·φ, so a
// deployment with a huge failure count per period answers at once.
func TestHostileDeploymentAnswersPromptly(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	for _, phi := range []string{"1e4", "1e9"} {
		start := time.Now()
		resp, _ := post(t, ts, `{"mode":"analytic","timeout_ms":100,
			"deployment":{"eta":10,"lambda_per_hour":1,"phi_hours":`+phi+`}}`)
		if resp.StatusCode != http.StatusOK {
			t.Errorf("phi_hours %s: status %d, want 200", phi, resp.StatusCode)
		}
		if took := time.Since(start); took > 250*time.Millisecond {
			t.Errorf("phi_hours %s: answered after %v", phi, took)
		}
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
	rv, err := req.resolve(1_000_000)
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
	// An auto request is shed the same way, also when its capacity is
	// above the closed-form model's two-regime ceiling.
	over, _ := post(t, ts, `{"mode":"auto","k":40,"episodes":1000,"seed":7}`)
	if over.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("auto request beyond the analytic ceiling: status %d, want 429", over.StatusCode)
	}
}

// TestAutoOverBudgetIsShed: an answer depends only on its request. An
// auto request that resolves to Monte-Carlo is shed with 429 when the
// budget is full, like the explicit montecarlo request, and nothing is
// cached; within budget it gets the explicit request's Monte-Carlo
// answer.
func TestAutoOverBudgetIsShed(t *testing.T) {
	const auto = `{"mode":"auto","episodes":1000,"seed":7}`
	s, ts := newTestServer(t, Config{MCBudget: 100})
	if resp, _ := post(t, ts, auto); resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("auto over budget: status %d, want 429", resp.StatusCode)
	}
	if got := s.shed.Value(); got != 1 {
		t.Errorf("satqosd_shed_total = %d, want 1", got)
	}
	if n := s.cache.ll.Len(); n != 0 {
		t.Errorf("%d answers cached while the budget was full, want 0", n)
	}

	s.cfg.MCBudget = 1 << 20
	resp, got := post(t, ts, auto)
	if resp.StatusCode != http.StatusOK || got.Mode != ModeMonteCarlo || got.Cached {
		t.Fatalf("auto within budget: status %d mode=%q cached=%t, want a fresh montecarlo answer",
			resp.StatusCode, got.Mode, got.Cached)
	}
	_, plain := newTestServer(t, Config{CacheSize: -1})
	resp, explicit := post(t, plain, `{"mode":"montecarlo","episodes":1000,"seed":7}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("explicit montecarlo: status %d", resp.StatusCode)
	}
	if got.PYGE != explicit.PYGE {
		t.Errorf("auto answered P(Y>=y) %v, explicit montecarlo %v", got.PYGE, explicit.PYGE)
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

// TestNullFaultsShareCacheEntry: "faults": null sets no faults, so the
// request shares the cache entry of the same request without the field.
func TestNullFaultsShareCacheEntry(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp1, first := post(t, ts, `{"mode":"montecarlo","episodes":200,"seed":5}`)
	if resp1.StatusCode != http.StatusOK || first.Cached {
		t.Fatalf("first answer: status %d cached=%t, want a fresh 200", resp1.StatusCode, first.Cached)
	}
	resp2, second := post(t, ts, `{"mode":"montecarlo","episodes":200,"seed":5,"faults":null}`)
	if resp2.StatusCode != http.StatusOK || !second.Cached {
		t.Fatalf("faults null: status %d cached=%t, want the cached answer", resp2.StatusCode, second.Cached)
	}
	if !reflect.DeepEqual(first.PYGE, second.PYGE) {
		t.Errorf("faults null answered %v, want %v", second.PYGE, first.PYGE)
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

// TestEpisodeBudgetOnlyBindsMonteCarlo: the default budget and the
// server's episode cap apply to Monte-Carlo answers only, so a
// closed-form request that omits episodes is answered on a server whose
// cap is below the default. A negative budget is rejected in every mode.
func TestEpisodeBudgetOnlyBindsMonteCarlo(t *testing.T) {
	_, ts := newTestServer(t, Config{MaxEpisodes: 2000})
	for body, want := range map[string]int{
		`{"mode":"analytic","k":10}`:                  http.StatusOK,
		`{"mode":"stochgeom","latitude_deg":40}`:      http.StatusOK,
		`{"mode":"montecarlo","k":10}`:                http.StatusBadRequest, // default 20000 > cap
		`{"mode":"analytic","k":10,"episodes":-1}`:    http.StatusBadRequest,
		`{"mode":"stochgeom","episodes":-1}`:          http.StatusBadRequest,
		`{"mode":"montecarlo","k":10,"episodes":500}`: http.StatusOK,
	} {
		if resp, _ := post(t, ts, body); resp.StatusCode != want {
			t.Errorf("%s: status %d, want %d", body, resp.StatusCode, want)
		}
	}
}

// TestDeploymentBackendRules: only the analytic backend models a
// deployment. auto resolves to it, an explicit montecarlo or stochgeom
// request answers 400 naming the field, and so does a deployment
// combined with a field the analytic backend does not model.
func TestDeploymentBackendRules(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	const deploy = `"preset":"reference","episodes":4000,"seed":7,
		"deployment":{"eta":10,"lambda_per_hour":5e-4,"phi_hours":30000}`
	resp, analytic := post(t, ts, `{"mode":"analytic",`+deploy+`}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("analytic: status %d", resp.StatusCode)
	}
	resp, auto := post(t, ts, `{"mode":"auto",`+deploy+`}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("auto: status %d", resp.StatusCode)
	}
	if auto.Mode != ModeAnalytic || auto.PYGE != analytic.PYGE {
		t.Errorf("auto answered %s P(Y>=y) %v, want the analytic composition %v", auto.Mode, auto.PYGE, analytic.PYGE)
	}
	if p3 := auto.PYGE[3]; p3 < 0.01 {
		t.Errorf("auto P(Y>=3) = %v, want the deployment's composed 0.0168", p3)
	}

	for _, tc := range []struct{ extra, field string }{
		{`"mode":"montecarlo"`, "deployment"},
		{`"mode":"stochgeom"`, "deployment"},
		{`"loss_prob":0.2`, "loss_prob"},
		{`"fail_silent_prob":0.2`, "fail_silent_prob"},
		{`"retries":1`, "retries"},
		{`"backward":true`, "backward"},
		{`"faults":{"loss_bursts":[{"start_min":1,"end_min":2,"prob":0.5}]}`, "faults"},
		{`"mode":"analytic","shells":[{"n":98,"altitude_km":780,"inclination_deg":86.4,"coverage_time_min":9}]`, "shells"},
	} {
		body := `{` + tc.extra + `,` + deploy + `}`
		resp, err := http.Post(ts.URL+"/v1/evaluate", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		var msg bytes.Buffer
		msg.ReadFrom(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest || !strings.Contains(msg.String(), tc.field) {
			t.Errorf("%s: status %d %q, want 400 naming %s", tc.extra, resp.StatusCode, msg.String(), tc.field)
		}
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
