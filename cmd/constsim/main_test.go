package main

import (
	"encoding/json"
	"strings"
	"testing"
)

func TestProtocolMode(t *testing.T) {
	var b strings.Builder
	err := run([]string{"-mode", "protocol", "-k", "10", "-episodes", "2000", "-scheme", "oaq"}, &b)
	if err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{"OAQ protocol", "P(Y=2", "delivered by deadline", "terminations:"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

func TestProtocolModeBAQ(t *testing.T) {
	var b strings.Builder
	if err := run([]string{"-mode", "protocol", "-k", "12", "-episodes", "1000", "-scheme", "baq"}, &b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "BAQ protocol") {
		t.Errorf("output missing BAQ header:\n%s", b.String())
	}
}

func TestCapacityMode(t *testing.T) {
	var b strings.Builder
	err := run([]string{"-mode", "capacity", "-eta", "12", "-lambda", "5e-5", "-periods", "20"}, &b)
	if err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{"plane capacity", "analytic", "simulated", "mean capacity"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

// TestVisibilityMode: the visible-count law of a preset at one
// latitude, with its tail at -eta.
func TestVisibilityMode(t *testing.T) {
	var b strings.Builder
	if err := run([]string{"-mode", "visibility", "-preset", "starlink", "-lat", "53"}, &b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"visible-count law, preset starlink (N=1584 satellites), latitude 53°",
		"P(K=k)",
		"visible-count tail at η=10: P(K>=η) = 0.9687",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

func TestMembershipMode(t *testing.T) {
	var b strings.Builder
	if err := run([]string{"-mode", "membership", "-k", "8"}, &b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{"membership over a 8-satellite plane", "fail-silent", "recovered", "agree on the final view"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

func TestProtocolModeMetricsDump(t *testing.T) {
	var b strings.Builder
	if err := run([]string{"-mode", "protocol", "-episodes", "1000", "-metrics", "-"}, &b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	i := strings.Index(out, "\n{")
	if i < 0 {
		t.Fatalf("no JSON snapshot after the report:\n%s", out)
	}
	var snap struct {
		Metrics []struct {
			Name  string   `json:"name"`
			Value *float64 `json:"value"`
		} `json:"metrics"`
	}
	if err := json.Unmarshal([]byte(out[i+1:]), &snap); err != nil {
		t.Fatalf("snapshot does not parse: %v", err)
	}
	var episodes *float64
	for _, m := range snap.Metrics {
		if m.Name == "oaq_episodes_total" {
			episodes = m.Value
		}
	}
	if episodes == nil || *episodes < 1000 {
		t.Errorf("oaq_episodes_total = %v, want >= 1000", episodes)
	}
}

func TestProtocolModeFaulted(t *testing.T) {
	args := []string{
		"-mode", "protocol", "-episodes", "2000",
		"-loss", "0.4", "-retries", "2", "-faults", "testdata/faults.json",
	}
	var b strings.Builder
	if err := run(args, &b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{`fault scenario "smoke"`, "2 fail-silent windows, 1 loss bursts", "retries-exhausted"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
	// The faulted report is bit-identical at any worker count.
	for _, workers := range []string{"1", "7"} {
		var c strings.Builder
		if err := run(append(args, "-workers", workers), &c); err != nil {
			t.Fatal(err)
		}
		if c.String() != out {
			t.Errorf("workers=%s: faulted report differs:\n%s\nvs\n%s", workers, c.String(), out)
		}
	}
}

func TestProtocolModePreset(t *testing.T) {
	var b strings.Builder
	// OneWeb's 36-satellite planes exceed the two-regime ceiling, so the
	// derived default capacity must be clamped rather than rejected.
	if err := run([]string{"-mode", "protocol", "-preset", "oneweb", "-episodes", "500"}, &b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	if !strings.Contains(out, "preset oneweb") {
		t.Errorf("output missing preset header:\n%s", out)
	}
	if !strings.Contains(out, "θ=109.4") {
		t.Errorf("OneWeb period (1200 km → 109.4 min) not reflected:\n%s", out)
	}
	// An explicit -k wins over the derived default.
	b.Reset()
	if err := run([]string{"-mode", "protocol", "-preset", "kepler", "-k", "12", "-episodes", "500"}, &b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "k=12") {
		t.Errorf("explicit -k overridden:\n%s", b.String())
	}
}

func TestCapacityModePreset(t *testing.T) {
	var b strings.Builder
	if err := run([]string{"-mode", "capacity", "-preset", "iridium-next", "-periods", "50"}, &b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	if !strings.Contains(out, "preset iridium-next (N=11, S=1)") {
		t.Errorf("preset plane shape not reflected:\n%s", out)
	}
	if !strings.Contains(out, "η=7") {
		t.Errorf("derived threshold η=N-4 not reflected:\n%s", out)
	}
}

func TestRunErrors(t *testing.T) {
	var b strings.Builder
	if err := run([]string{"-mode", "bogus"}, &b); err == nil {
		t.Error("unknown mode accepted")
	}
	if err := run([]string{"-mode", "protocol", "-preset", "no-such-design"}, &b); err == nil {
		t.Error("unknown preset accepted")
	}
	if err := run([]string{"-mode", "protocol", "-scheme", "bogus"}, &b); err == nil {
		t.Error("unknown scheme accepted")
	}
	if err := run([]string{"-mode", "membership", "-k", "2"}, &b); err == nil {
		t.Error("tiny membership group accepted")
	}
	if err := run([]string{"-not-a-flag"}, &b); err == nil {
		t.Error("bad flag accepted")
	}
	if err := run([]string{"-mode", "visibility", "-lat", "91"}, &b); err == nil {
		t.Error("latitude beyond the pole accepted")
	}
	if err := run([]string{"-mode", "protocol", "-faults", "testdata/no-such-scenario.json"}, &b); err == nil {
		t.Error("missing scenario file accepted")
	}
}
