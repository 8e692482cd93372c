package qosd

import (
	"encoding/json"
	"io"
	"math"
	"net/http"
	"strings"
	"testing"

	"satqos/internal/constellation"
	"satqos/internal/orbit"
	"satqos/internal/stochgeom"
)

// TestStochGeomMatchesBackend: the served stochgeom answer carries the
// exact BPP visibility law — same floats as a direct internal/stochgeom
// evaluation — and the QoS composition over the clamped adapter.
func TestStochGeomMatchesBackend(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, got := post(t, ts, `{"mode":"stochgeom","preset":"starlink","scheme":"oaq","latitude_deg":53}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if got.Mode != ModeStochGeom || got.Preset != "starlink" || got.LatitudeDeg != 53 {
		t.Fatalf("answer header: %+v", got)
	}
	d, err := stochgeom.FromPreset("starlink")
	if err != nil {
		t.Fatal(err)
	}
	// Compute the latitude the way the server does — from a float64
	// variable, not a constant expression the compiler folds in exact
	// precision (one ulp apart).
	latDeg := 53.0
	v, err := d.Evaluate(latDeg * math.Pi / 180)
	if err != nil {
		t.Fatal(err)
	}
	if got.VisibleMean != v.Mean() {
		t.Errorf("VisibleMean = %v, backend says %v", got.VisibleMean, v.Mean())
	}
	if got.CoverageFraction != v.CoverageFraction() {
		t.Errorf("CoverageFraction = %v, backend says %v", got.CoverageFraction, v.CoverageFraction())
	}
	if got.Localizability != v.Localizability(4) {
		t.Errorf("Localizability = %v, backend says %v", got.Localizability, v.Localizability(4))
	}
	if got.PKVisible != v.P(got.K) {
		t.Errorf("PKVisible = %v, backend says %v", got.PKVisible, v.P(got.K))
	}
	if got.PYGE[0] != 1 || got.PYGE[1] <= 0 || got.PYGE[1] > 1 {
		t.Errorf("composed QoS CCDF malformed: %v", got.PYGE)
	}
}

// TestStochGeomReproducible: the same stochgeom request, served again
// and again with the response cache off, computes its answer each time
// and returns bit-identical floats. The oneweb law at 60 degrees has
// mass on both sides of the capacity ceiling, so the clamped adapter
// really folds, and a fold that followed map order would differ from
// serving to serving.
func TestStochGeomReproducible(t *testing.T) {
	_, ts := newTestServer(t, Config{CacheSize: -1})
	const body = `{"mode":"stochgeom","preset":"oneweb","scheme":"oaq","latitude_deg":60}`
	var first Response
	for i := 0; i < 10; i++ {
		resp, got := post(t, ts, body)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("serving %d: status %d", i, resp.StatusCode)
		}
		if i == 0 {
			first = got
			continue
		}
		if got.PYGE != first.PYGE {
			t.Errorf("serving %d: p_y_ge %v, first %v", i, got.PYGE, first.PYGE)
		}
		if got.VisibleMean != first.VisibleMean {
			t.Errorf("serving %d: visible_mean %v, first %v", i, got.VisibleMean, first.VisibleMean)
		}
		if got.MeanLevel != first.MeanLevel {
			t.Errorf("serving %d: mean_level %v, first %v", i, got.MeanLevel, first.MeanLevel)
		}
	}
}

// TestStochGeomKeplerBand: at 20° the kepler shell's sub-satellite
// band is narrow enough that a quadrature sampling the whole orbit
// range can miss it and answer "nothing visible". The served law must
// instead see about 1.84 satellites on average and coverage 84%.
func TestStochGeomKeplerBand(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, got := post(t, ts, `{"mode":"stochgeom","preset":"kepler","scheme":"oaq","latitude_deg":20}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if math.Abs(got.CoverageFraction-0.843) > 0.001 {
		t.Errorf("coverage_fraction = %v, want ≈ 0.843", got.CoverageFraction)
	}
	if math.Abs(got.VisibleMean-1.84) > 0.01 {
		t.Errorf("visible_mean = %v, want ≈ 1.84", got.VisibleMean)
	}
}

// TestStochGeomShells: an explicit LEO/MEO mixture bypasses the preset
// geometry and answers from the convolved design.
func TestStochGeomShells(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	body := `{"mode":"auto","shells":[
		{"n":98,"altitude_km":780,"inclination_deg":86.4,"coverage_time_min":9},
		{"n":20,"altitude_km":8000,"inclination_deg":55,"min_elevation_deg":10}],
		"latitude_deg":40}`
	resp, got := post(t, ts, body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if got.Mode != ModeStochGeom {
		t.Fatalf("auto with shells answered by %q, want stochgeom", got.Mode)
	}
	if got.VisibleMean <= 0 || got.CoverageFraction <= 0 {
		t.Fatalf("degenerate mixture answer: %+v", got)
	}

	// Malformed shells are client errors.
	for _, bad := range []string{
		`{"mode":"stochgeom","shells":[{"n":10,"altitude_km":780,"inclination_deg":86.4}]}`,
		`{"mode":"stochgeom","shells":[{"n":10,"altitude_km":780,"inclination_deg":86.4,"min_elevation_deg":10,"coverage_time_min":9}]}`,
		`{"mode":"montecarlo","shells":[{"n":10,"altitude_km":780,"inclination_deg":86.4,"coverage_time_min":9}]}`,
		`{"mode":"stochgeom","latitude_deg":99}`,
	} {
		if resp, _ := post(t, ts, bad); resp.StatusCode != http.StatusBadRequest {
			t.Errorf("body %s: status %d, want 400", bad, resp.StatusCode)
		}
	}
}

// TestAutoEscalatesToStochGeom: auto mode answers mega-constellation
// presets from the stochastic-geometry backend (fleet >= enumLimit)
// and small presets from Monte-Carlo, deterministically.
func TestAutoEscalatesToStochGeom(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, got := post(t, ts, `{"mode":"auto","preset":"starlink","episodes":64}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("starlink status %d", resp.StatusCode)
	}
	if got.Mode != ModeStochGeom {
		t.Errorf("auto starlink answered by %q, want stochgeom", got.Mode)
	}
	resp, got = post(t, ts, `{"mode":"auto","preset":"reference","episodes":64}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("reference status %d", resp.StatusCode)
	}
	if got.Mode != ModeMonteCarlo {
		t.Errorf("auto reference answered by %q, want montecarlo", got.Mode)
	}
}

// TestCacheKeyIncludesBackend is the collision regression test: a
// stochgeom answer and a montecarlo answer for the same design must
// occupy different cache entries, while auto and its resolved explicit
// backend share one.
func TestCacheKeyIncludesBackend(t *testing.T) {
	parse := func(body string) *resolved {
		t.Helper()
		var req Request
		if err := json.NewDecoder(strings.NewReader(body)).Decode(&req); err != nil {
			t.Fatal(err)
		}
		rv, err := req.resolve(1_000_000)
		if err != nil {
			t.Fatal(err)
		}
		return rv
	}
	mc := parse(`{"mode":"montecarlo","preset":"starlink","episodes":64}`)
	sg := parse(`{"mode":"stochgeom","preset":"starlink","episodes":64}`)
	if mc.key == sg.key {
		t.Fatalf("montecarlo and stochgeom share the cache key %q", mc.key)
	}
	auto := parse(`{"mode":"auto","preset":"starlink","episodes":64}`)
	if auto.key != sg.key {
		t.Errorf("auto (resolved stochgeom) key %q differs from explicit stochgeom key %q", auto.key, sg.key)
	}
	autoSmall := parse(`{"mode":"auto","preset":"reference","episodes":64}`)
	mcSmall := parse(`{"mode":"montecarlo","preset":"reference","episodes":64}`)
	if autoSmall.key != mcSmall.key {
		t.Errorf("auto (resolved montecarlo) key %q differs from explicit montecarlo key %q", autoSmall.key, mcSmall.key)
	}
	// Stochgeom parameters that change the answer must change the key.
	lat := parse(`{"mode":"stochgeom","preset":"starlink","episodes":64,"latitude_deg":60}`)
	if lat.key == sg.key {
		t.Error("latitude change did not change the stochgeom cache key")
	}
	elev := parse(`{"mode":"stochgeom","preset":"starlink","episodes":64,"min_elevation_deg":25}`)
	if elev.key == sg.key {
		t.Error("elevation-mask change did not change the stochgeom cache key")
	}

	// End-to-end: serve stochgeom then montecarlo for the same design;
	// the second must not be a cache hit of the first.
	srv, ts := newTestServer(t, Config{})
	resp, first := post(t, ts, `{"mode":"stochgeom","preset":"reference","episodes":64,"seed":7}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("stochgeom status %d", resp.StatusCode)
	}
	resp, second := post(t, ts, `{"mode":"montecarlo","preset":"reference","episodes":64,"seed":7}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("montecarlo status %d", resp.StatusCode)
	}
	if second.Cached {
		t.Fatal("montecarlo answer served from the stochgeom cache entry")
	}
	if first.Mode != ModeStochGeom || second.Mode != ModeMonteCarlo {
		t.Fatalf("modes: %q then %q", first.Mode, second.Mode)
	}
	if hits := srv.cacheHit.Value(); hits != 0 {
		t.Fatalf("cache hits %d, want 0", hits)
	}
}

// TestCoverageEndpoint: /v1/coverage answers from the long-lived
// shared scanner and matches a direct scan exactly.
func TestCoverageEndpoint(t *testing.T) {
	srv, ts := newTestServer(t, Config{})
	get := func(query string) (int, map[string]any) {
		t.Helper()
		resp, err := http.Get(ts.URL + "/v1/coverage" + query)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		var out map[string]any
		if resp.StatusCode == http.StatusOK {
			if err := json.Unmarshal(body, &out); err != nil {
				t.Fatalf("decoding %q: %v", body, err)
			}
		}
		return resp.StatusCode, out
	}

	status, out := get("?preset=kepler&lat_deg=50&lon_deg=20&t_min=33.5")
	if status != http.StatusOK {
		t.Fatalf("status %d", status)
	}
	cfg, err := constellation.PresetConfig("kepler")
	if err != nil {
		t.Fatal(err)
	}
	c, err := constellation.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	want := constellation.NewScanner(c).CoverageCount(
		orbit.LatLon{Lat: 50 * math.Pi / 180, Lon: 20 * math.Pi / 180}, 33.5)
	if got := int(out["covering"].(float64)); got != want {
		t.Fatalf("covering = %d, direct scan says %d", got, want)
	}

	// Same preset again must reuse the same shared scanner.
	if _, _ = get("?preset=kepler&lat_deg=10"); len(srv.scanners) != 1 {
		t.Fatalf("%d scanners after two kepler queries, want 1", len(srv.scanners))
	}
	if status, _ := get("?preset=nope"); status != http.StatusBadRequest {
		t.Fatalf("unknown preset: status %d, want 400", status)
	}
	if status, _ := get("?lat_deg=200"); status != http.StatusBadRequest {
		t.Fatalf("bad latitude: status %d, want 400", status)
	}
	if srv.coverage.Value() != 2 {
		t.Fatalf("coverage counter %d, want 2", srv.coverage.Value())
	}
}

// TestMinElevationNeverDropped: every elevation mask a request carries
// is either applied or answered with a 400 naming the field, never
// ignored. A request-level mask must lie in (0, 90) and cannot ride
// along with shells, which carry their own masks; a shell's negative
// mask or coverage time is an error rather than a fall-through to the
// other parameter.
func TestMinElevationNeverDropped(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	const shell = `"n":98,"altitude_km":780,"inclination_deg":86.4`
	for _, tc := range []struct{ body, field string }{
		{`{"mode":"stochgeom","preset":"starlink","min_elevation_deg":-5}`, "min_elevation_deg"},
		{`{"preset":"starlink","min_elevation_deg":-5}`, "min_elevation_deg"},
		{`{"mode":"stochgeom","preset":"starlink","min_elevation_deg":90}`, "min_elevation_deg"},
		{`{"mode":"stochgeom","preset":"starlink","min_elevation_deg":95}`, "min_elevation_deg"},
		{`{"mode":"stochgeom","min_elevation_deg":60,"shells":[{` + shell + `,"coverage_time_min":9}]}`, "min_elevation_deg"},
		{`{"mode":"stochgeom","shells":[{` + shell + `,"min_elevation_deg":-5,"coverage_time_min":9}]}`, "min_elevation_deg"},
		{`{"mode":"stochgeom","shells":[{` + shell + `,"min_elevation_deg":25,"coverage_time_min":-9}]}`, "coverage_time_min"},
	} {
		status, _, raw := postRaw(t, ts.URL, tc.body)
		if status != http.StatusBadRequest || !strings.Contains(raw, tc.field) {
			t.Errorf("%s: status %d %s, want 400 naming %s", tc.body, status, raw, tc.field)
		}
	}
	// The same masks in range are applied.
	for _, body := range []string{
		`{"mode":"stochgeom","preset":"starlink","min_elevation_deg":25}`,
		`{"mode":"stochgeom","shells":[{` + shell + `,"min_elevation_deg":25}]}`,
	} {
		if status, _, raw := postRaw(t, ts.URL, body); status != http.StatusOK {
			t.Errorf("%s: status %d %s, want 200", body, status, raw)
		}
	}
}
