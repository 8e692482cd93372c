package main

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
)

// sequence renders the first n requests of a mix as bytes.
func sequence(m mix, n uint64) []byte {
	var b bytes.Buffer
	for i := uint64(0); i < n; i++ {
		o := m.op(i)
		b.WriteString(o.Path)
		b.Write(o.Body)
		b.WriteByte('\n')
	}
	return b.Bytes()
}

func TestSequenceIsSeeded(t *testing.T) {
	for _, wl := range []string{wlClosedForm, wlMonteCarlo} {
		a, b := sequence(mixFor(wl, 7), 2000), sequence(mixFor(wl, 7), 2000)
		if !bytes.Equal(a, b) {
			t.Errorf("%s: the same seed produced different request sequences", wl)
		}
		if bytes.Equal(a, sequence(mixFor(wl, 8), 2000)) {
			t.Errorf("%s: seeds 7 and 8 produced the same request sequence", wl)
		}
	}
}

func TestClosedFormPool(t *testing.T) {
	m := newClosedFormMix(3)
	kinds := map[string]int{}
	for _, o := range m.pool {
		kinds[o.Kind]++
	}
	for _, k := range []string{kindAnalytic, kindStochGeom, kindCoverage} {
		if kinds[k] < closedFormPool/3 {
			t.Errorf("pool holds %d %s requests, want at least %d", kinds[k], k, closedFormPool/3)
		}
	}
}

func testConfig(t *testing.T, workload string, seconds float64, trace bool) *config {
	t.Helper()
	return &config{
		workload: workload,
		seed:     5,
		seconds:  seconds,
		trace:    trace,
		root:     "..",
		outDir:   t.TempDir(),
	}
}

func checkMetrics(t *testing.T, res *result, specs []metricSpec) {
	t.Helper()
	if len(res.Metrics) != len(specs) {
		t.Errorf("%d metrics, want %d", len(res.Metrics), len(specs))
	}
	for _, m := range specs {
		v, ok := res.Metrics[m.name]
		if !ok {
			t.Errorf("metric %s missing", m.name)
			continue
		}
		if v.Unit != m.unit || math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
			t.Errorf("metric %s = %v %s", m.name, v.Value, v.Unit)
		}
	}
}

func TestSmoke(t *testing.T) {
	for _, wl := range workloads {
		t.Run(wl, func(t *testing.T) {
			res, err := run(testConfig(t, wl, 0.3, false), io.Discard, io.Discard)
			if err != nil {
				t.Fatal(err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Fatalf("correct=%t attempted=%d failed=%d", res.Correct, res.Attempted, res.Failed)
			}
			checkMetrics(t, res, endToEnd)
			for _, m := range endToEnd {
				if res.Metrics[m.name].Value <= 0 {
					t.Errorf("end-to-end metric %s = %v, want positive", m.name, res.Metrics[m.name].Value)
				}
			}
		})
	}
}

// buildMetricscheck builds the repository's metricscheck command.
func buildMetricscheck(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "metricscheck")
	cmd := exec.Command("go", "build", "-o", bin, "satqos/cmd/metricscheck")
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("building metricscheck: %v\n%s", err, out)
	}
	return bin
}

func TestTracedSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("traced run skipped in -short mode")
	}
	cfg := testConfig(t, wlMonteCarlo, 0.6, true)
	cfg.metricscheck = buildMetricscheck(t)
	var log bytes.Buffer
	res, err := run(cfg, io.Discard, &log)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Correct {
		t.Fatalf("traced run failed %d of %d: %s", res.Failed, res.Attempted, log.String())
	}
	if !strings.Contains(log.String(), "chrome trace ok") {
		t.Errorf("metricscheck did not validate the export: %s", log.String())
	}
	checkMetrics(t, res, perLayer)
	for _, name := range []string{"qosd.handler_ms_p50", "oaq.evaluate_ms", "stochgeom.evaluate_us",
		"route.episode_ms.static", "mission.run_s", "figures_s"} {
		if res.Metrics[name].Value <= 0 {
			t.Errorf("%s = %v, want positive", name, res.Metrics[name].Value)
		}
	}
}

// perturbOne rewrites the mean level of the n-th evaluate answer.
func perturbOne(n int) func(http.Handler) http.Handler {
	var seen atomic.Int64
	return func(next http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if r.URL.Path != "/v1/evaluate" || seen.Add(1) != int64(n) {
				next.ServeHTTP(w, r)
				return
			}
			rec := httptest.NewRecorder()
			next.ServeHTTP(rec, r)
			var body map[string]any
			if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil {
				panic(err)
			}
			body["mean_level"] = body["mean_level"].(float64) + 1e-3
			out, _ := json.Marshal(body)
			w.Header().Set("Content-Type", "application/json")
			w.Write(out)
		})
	}
}

func TestPerturbedAnswerFails(t *testing.T) {
	for _, wl := range []string{wlClosedForm, wlMonteCarlo} {
		t.Run(wl, func(t *testing.T) {
			cfg := testConfig(t, wl, 0.3, false)
			// The first answer after the warm-up answers of every
			// server boot.
			cfg.wrap = perturbOne(serveSetups*len(warmupEvaluates()) + 1)
			res, err := run(cfg, io.Discard, io.Discard)
			if err != nil {
				t.Fatal(err)
			}
			if res.Failed == 0 || res.Correct {
				t.Fatalf("a perturbed answer went unnoticed: correct=%t failed=%d", res.Correct, res.Failed)
			}
		})
	}
}

// TestBenchmarkManifest keeps BENCHMARK.json and the reported metrics
// in step.
func TestBenchmarkManifest(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type metric struct{ Name, Unit string }
	var manifest struct {
		Workloads []struct{ Name string }
		EndToEnd  []metric `json:"end_to_end"`
		PerLayer  []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &manifest); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range manifest.Workloads {
		names = append(names, w.Name)
	}
	if strings.Join(names, ",") != strings.Join(workloads, ",") {
		t.Errorf("manifest workloads %v, benchmark runs %v", names, workloads)
	}
	same := func(kind string, got []metric, want []metricSpec) {
		if len(got) != len(want) {
			t.Errorf("%s: manifest lists %d metrics, benchmark reports %d", kind, len(got), len(want))
			return
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s %d: manifest %s [%s], benchmark %s [%s]", kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	same("end_to_end", manifest.EndToEnd, endToEnd)
	same("per_layer", manifest.PerLayer, perLayer)
}
