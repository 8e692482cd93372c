package qosd

import (
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"testing"

	"satqos/internal/constellation"
)

// modelFieldCases sets one request model field each, and names the one
// backend that models it ("" for a field every backend models).
var modelFieldCases = []struct {
	field, json, only string
}{
	{"k", `"k":8`, ""},
	{"scheme", `"scheme":"baq"`, ""},
	{"tau_min", `"tau_min":4`, ""},
	{"mu", `"mu":0.25`, ""},
	{"nu", `"nu":15`, ""},
	{"loss_prob", `"loss_prob":0.4`, ModeMonteCarlo},
	{"fail_silent_prob", `"fail_silent_prob":0.2`, ModeMonteCarlo},
	{"retries", `"retries":1`, ModeMonteCarlo},
	{"backward", `"backward":true`, ModeMonteCarlo},
	{"faults", `"faults":{"loss_bursts":[{"start_min":1,"end_min":2,"prob":0.5}]}`, ModeMonteCarlo},
	{"deployment", `"deployment":{"eta":10,"lambda_per_hour":5e-4,"phi_hours":30000}`, ModeAnalytic},
	{"shells", `"shells":[{"n":98,"altitude_km":780,"inclination_deg":86.4,"coverage_time_min":9}]`, ModeStochGeom},
	{"min_elevation_deg", `"min_elevation_deg":25`, ModeStochGeom},
	{"latitude_deg", `"latitude_deg":40`, ModeStochGeom},
	{"min_sats", `"min_sats":3`, ModeStochGeom},
}

// postRaw posts body and returns the status, the decoded answer of a
// 200 and the raw body of any other status.
func postRaw(t *testing.T, url, body string) (int, Response, string) {
	t.Helper()
	resp, err := http.Post(url+"/v1/evaluate", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	var out Response
	if resp.StatusCode == http.StatusOK {
		if err := json.Unmarshal(raw, &out); err != nil {
			t.Fatalf("decoding %s: %v", raw, err)
		}
	}
	return resp.StatusCode, out, string(raw)
}

// TestBackendTable: an explicit mode answers a request setting one
// model field from that backend when it models the field, and 400
// naming the field when it does not. auto sends a lossy request to
// Monte-Carlo on every fleet size, and under budget pressure sheds it
// instead of degrading it to an analytic answer that ignores the loss.
func TestBackendTable(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	for _, mode := range []string{ModeAnalytic, ModeStochGeom, ModeMonteCarlo} {
		for _, tc := range modelFieldCases {
			body := `{"mode":"` + mode + `","episodes":200,"seed":3,` + tc.json + `}`
			status, got, raw := postRaw(t, ts.URL, body)
			if tc.only == "" || tc.only == mode {
				if status != http.StatusOK || got.Mode != mode {
					t.Errorf("%s with %s: status %d mode %q %s, want 200 from %s", mode, tc.field, status, got.Mode, raw, mode)
				}
				continue
			}
			if status != http.StatusBadRequest || !strings.Contains(raw, tc.field) {
				t.Errorf("%s with %s: status %d %s, want 400 naming %s", mode, tc.field, status, raw, tc.field)
			}
		}
	}

	for _, preset := range []string{constellation.PresetReference, constellation.PresetStarlink} {
		req := Request{Mode: ModeAuto, Preset: preset, LossProb: 0.4, Episodes: 200}
		rv, err := req.resolve(1_000_000)
		if err != nil {
			t.Fatalf("auto with loss_prob on %s: %v", preset, err)
		}
		if rv.backend != ModeMonteCarlo {
			t.Errorf("auto with loss_prob on %s resolved to %s, want montecarlo", preset, rv.backend)
		}
	}
	if status, got, raw := postRaw(t, ts.URL, `{"preset":"starlink","loss_prob":0.4,"episodes":200}`); status != http.StatusOK || got.Mode != ModeMonteCarlo {
		t.Errorf("auto with loss_prob on starlink: status %d mode %q %s, want 200 from montecarlo", status, got.Mode, raw)
	}
	// JSON null sets no field: it reads as the field left out.
	for _, body := range []string{`{"mode":"analytic","faults":null}`, `{"mode":"montecarlo","deployment":null,"episodes":200}`} {
		if status, _, raw := postRaw(t, ts.URL, body); status != http.StatusOK {
			t.Errorf("%s: status %d %s, want 200", body, status, raw)
		}
	}
	status, _, raw := postRaw(t, ts.URL, `{"loss_prob":0.4,"deployment":{"eta":10,"lambda_per_hour":5e-4,"phi_hours":30000}}`)
	if status != http.StatusBadRequest || !strings.Contains(raw, "no backend models both deployment and loss_prob") {
		t.Errorf("auto with deployment and loss_prob: status %d %s", status, raw)
	}

	s, ts := newTestServer(t, Config{MCBudget: 100})
	status, _, raw = postRaw(t, ts.URL, `{"mode":"auto","loss_prob":0.4,"episodes":1000,"seed":7}`)
	if status != http.StatusTooManyRequests {
		t.Errorf("auto with loss_prob over budget: status %d %s, want 429", status, raw)
	}
	if got := s.degraded.Value(); got != 0 {
		t.Errorf("satqosd_degraded_total = %d, want 0", got)
	}
	if got := s.shed.Value(); got != 1 {
		t.Errorf("satqosd_shed_total = %d, want 1", got)
	}
}

// TestBenchmarkTrafficBackends resolves the request shapes the
// benchmark's serving workloads send and checks the backend each
// resolves to: the benchmark fails any answer from another backend, so
// a table change that moves one fails here first.
func TestBenchmarkTrafficBackends(t *testing.T) {
	lat := 35.5
	deploy := &Deployment{Eta: 10, LambdaPerHour: 5e-5, PhiHours: 20000}
	shells := []ShellSpec{
		{N: 800, AltitudeKm: 550, InclinationDeg: 53, MinElevationDeg: 25},
		{N: 18, AltitudeKm: 8000, InclinationDeg: 55, MinElevationDeg: 10},
	}
	type shape struct {
		name string
		req  Request
		want string
	}
	shapes := []shape{
		{"analytic", Request{Mode: ModeAnalytic, Preset: constellation.PresetReference, K: 14, Scheme: "baq", TauMin: 6.5, Mu: 0.25, Nu: 60}, ModeAnalytic},
		{"analytic deployment", Request{Mode: ModeAnalytic, Preset: constellation.PresetReference, K: 5, Scheme: "oaq", TauMin: 3, Mu: 1, Nu: 15, Deployment: deploy}, ModeAnalytic},
		{"stochgeom shells", Request{Mode: ModeStochGeom, Scheme: "oaq", LatitudeDeg: &lat, Shells: shells}, ModeStochGeom},
		{"auto starlink", Request{Mode: ModeAuto, Preset: constellation.PresetStarlink, Scheme: "baq", LatitudeDeg: &lat}, ModeStochGeom},
	}
	for _, p := range constellation.PresetNames() {
		shapes = append(shapes, shape{"stochgeom " + p, Request{Mode: ModeStochGeom, Preset: p, Scheme: "oaq", LatitudeDeg: &lat}, ModeStochGeom})
	}
	for _, mode := range []string{ModeMonteCarlo, ModeAuto} {
		base := Request{Mode: mode, Preset: constellation.PresetReference, K: 12, Scheme: "oaq", Episodes: 2000, Seed: 9}
		lossy, failSilent := base, base
		lossy.LossProb, lossy.Retries = 0.3, 2
		failSilent.FailSilentProb, failSilent.Backward = 0.15, true
		shapes = append(shapes,
			shape{mode + " clean", base, ModeMonteCarlo},
			shape{mode + " lossy", lossy, ModeMonteCarlo},
			shape{mode + " fail-silent", failSilent, ModeMonteCarlo})
	}
	for _, sh := range shapes {
		rv, err := sh.req.resolve(1_000_000)
		if err != nil {
			t.Errorf("%s: %v", sh.name, err)
			continue
		}
		if rv.backend != sh.want {
			t.Errorf("%s resolved to %s, want %s", sh.name, rv.backend, sh.want)
		}
	}
}
