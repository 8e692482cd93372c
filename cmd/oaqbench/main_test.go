package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestRunSingleExperiments(t *testing.T) {
	cases := map[string][]string{
		"table1":   {"QoS levels", "overlap"},
		"geometry": {"90.0000", "9.0000"},
		"capacity": {"analytic", "SAN renewal"},
		"fig7":     {"P(K=10)", "P(K=14)"},
		"fig8":     {"OAQ (mu=0.2)", "BAQ (mu=0.5)"},
		"fig9":     {"OAQ y>=2", "BAQ y>=1"},
		"spot":     {"0.4444", "0.2000"},
		"tau":      {"tau(min)"},
		"duration": {"mean-duration(min)"},
		"scaling":  {"OAQ N=112"},
		"sensitivity": {
			"exp dur / exp comp (paper)", "bursty-H2",
		},
		"availability": {"P(total>=98)", "MTTA(hrs)"},
	}
	for exp, wants := range cases {
		exp, wants := exp, wants
		t.Run(exp, func(t *testing.T) {
			var b strings.Builder
			if err := run([]string{"-exp", exp}, &b); err != nil {
				t.Fatalf("run(%s): %v", exp, err)
			}
			for _, want := range wants {
				if !strings.Contains(b.String(), want) {
					t.Errorf("%s output missing %q:\n%s", exp, want, b.String())
				}
			}
		})
	}
}

func TestRunCSV(t *testing.T) {
	var b strings.Builder
	if err := run([]string{"-exp", "fig9", "-csv", "-lambdas", "1e-5,1e-4"}, &b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	if !strings.HasPrefix(out, "lambda(/hr),") {
		t.Errorf("CSV header missing:\n%s", out)
	}
	if strings.Count(out, "\n") != 3 { // header + 2 rows
		t.Errorf("CSV rows = %d, want 3 lines", strings.Count(out, "\n"))
	}
}

func TestRunSVGOutput(t *testing.T) {
	dir := t.TempDir()
	var b strings.Builder
	if err := run([]string{"-exp", "fig8", "-svg", dir}, &b); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(dir, "fig8.svg"))
	if err != nil {
		t.Fatalf("SVG not written: %v", err)
	}
	if !strings.Contains(string(data), "<svg") {
		t.Error("not an SVG document")
	}
}

func TestRunErrors(t *testing.T) {
	var b strings.Builder
	if err := run([]string{"-exp", "nonsense"}, &b); err == nil {
		t.Error("unknown experiment accepted")
	}
	if err := run([]string{"-lambdas", "abc"}, &b); err == nil {
		t.Error("bad lambda list accepted")
	}
	if err := run([]string{"-bogus-flag"}, &b); err == nil {
		t.Error("bad flag accepted")
	}
}

func TestRunMultipleExperiments(t *testing.T) {
	var b strings.Builder
	if err := run([]string{"-exp", "table1, geometry"}, &b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{"QoS levels", "90.0000"} {
		if !strings.Contains(out, want) {
			t.Errorf("comma-separated -exp output missing %q", want)
		}
	}
}

func TestRunMetricsDump(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation experiments skipped in -short mode")
	}
	path := filepath.Join(t.TempDir(), "metrics.json")
	var b strings.Builder
	if err := run([]string{"-exp", "simvsana", "-episodes", "256", "-metrics", path}, &b); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("snapshot not written: %v", err)
	}
	var snap struct {
		Metrics []struct {
			Name string `json:"name"`
		} `json:"metrics"`
	}
	if err := json.Unmarshal(data, &snap); err != nil {
		t.Fatalf("snapshot does not parse: %v", err)
	}
	for _, family := range []string{"des_", "oaq_", "crosslink_", "parallel_", "capacity_", "experiment_"} {
		found := false
		for _, m := range snap.Metrics {
			if strings.HasPrefix(m.Name, family) {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("snapshot missing %s* family", family)
		}
	}
}

func TestRunDegradedExperiments(t *testing.T) {
	scenario := filepath.Join(t.TempDir(), "scenario.json")
	if err := os.WriteFile(scenario, []byte(`{
  "fail_silent": [{"sat": 2, "start_min": 0.5, "end_min": 2}],
  "loss_bursts": [{"start_min": 0, "end_min": 1, "prob": 0.8}]
}`), 0o644); err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	err := run([]string{"-exp", "degraded-loss,degraded-failsilent", "-episodes", "800", "-retries", "1", "-faults", scenario}, &b)
	if err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"vs crosslink loss rate", "vs scripted fail-silent successors",
		"OAQ y>=2", "no-retry y>=2", "fault scenario",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("degraded output missing %q:\n%s", want, out)
		}
	}
}

func TestRunFaultsFlagErrors(t *testing.T) {
	var b strings.Builder
	if err := run([]string{"-exp", "table1", "-faults", "no-such-file.json"}, &b); err == nil {
		t.Error("missing scenario file accepted")
	}
	bad := filepath.Join(t.TempDir(), "bad.json")
	if err := os.WriteFile(bad, []byte(`{"fail_silent": [{"sat": 0}]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-exp", "table1", "-faults", bad}, &b); err == nil {
		t.Error("invalid scenario accepted")
	}
}

func TestRunSimulationExperiments(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation experiments skipped in -short mode")
	}
	for _, exp := range []string{"simvsana", "ablation-backward", "ablation-tc1"} {
		var b strings.Builder
		if err := run([]string{"-exp", exp, "-episodes", "500"}, &b); err != nil {
			t.Fatalf("run(%s): %v", exp, err)
		}
		if len(b.String()) == 0 {
			t.Errorf("%s produced no output", exp)
		}
	}
}

func TestExperimentTable(t *testing.T) {
	seen := map[string]bool{}
	for _, e := range experiments {
		if seen[e.id] {
			t.Errorf("duplicate experiment id %q", e.id)
		}
		seen[e.id] = true
		if (e.sweep == nil) == (e.run == nil) {
			t.Errorf("experiment %q: want exactly one of sweep and run", e.id)
		}
	}
	if seen["all"] {
		t.Error(`"all" must not be an experiment id`)
	}
}
