package main

import (
	"encoding/json"
	"os"
	"strings"
	"testing"
)

// TestTraceLevelSearchGolden pins the full output of the -level
// episode-search path — the search must land on the same episode and
// the span tree must render identically, detection anchored at t=0.
// Regenerate with:
//
//	go run ./cmd/oaqtrace -level 2 -episodes 300 -seed 7 > cmd/oaqtrace/testdata/level2_seed7.golden
func TestTraceLevelSearchGolden(t *testing.T) {
	want, err := os.ReadFile("testdata/level2_seed7.golden")
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	if err := run([]string{"-level", "2", "-episodes", "300", "-seed", "7"}, &b); err != nil {
		t.Fatal(err)
	}
	if b.String() != string(want) {
		t.Errorf("level-2 search output drifted from golden file.\n--- got ---\n%s--- want ---\n%s", b.String(), want)
	}
	if !strings.HasPrefix(b.String(), "OAQ episode") {
		t.Error("golden output does not start with the episode header")
	}
	if !strings.Contains(b.String(), "[  0.000") {
		t.Error("span tree not rebased to the detection event")
	}
}

func TestTraceMetricsDump(t *testing.T) {
	var b strings.Builder
	if err := run([]string{"-level", "2", "-episodes", "300", "-metrics", "-"}, &b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	i := strings.Index(out, "\n{")
	if i < 0 {
		t.Fatalf("no JSON snapshot after the span tree:\n%s", out)
	}
	var snap struct {
		Metrics []struct {
			Name string `json:"name"`
		} `json:"metrics"`
	}
	if err := json.Unmarshal([]byte(out[i+1:]), &snap); err != nil {
		t.Fatalf("snapshot does not parse: %v", err)
	}
	found := false
	for _, m := range snap.Metrics {
		if m.Name == "oaq_episodes_total" {
			found = true
		}
	}
	if !found {
		t.Error("snapshot missing oaq_episodes_total")
	}
}

func TestTraceDefault(t *testing.T) {
	var b strings.Builder
	if err := run(nil, &b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{"OAQ episode", "detection", "crosslink:alert"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

func TestTraceLevelFilter(t *testing.T) {
	var b strings.Builder
	if err := run([]string{"-level", "2", "-episodes", "300"}, &b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	if !strings.Contains(out, "level=sequential-dual") {
		t.Errorf("level filter not honored:\n%s", out)
	}
	if !strings.Contains(out, "crosslink:coordination-request") {
		t.Error("sequential episode without coordination request")
	}
}

func TestTraceFailSilentBackward(t *testing.T) {
	var b strings.Builder
	if err := run([]string{"-failsilent", "1", "-backward", "-level", "1", "-episodes", "300"}, &b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	if !strings.Contains(out, "timeout") {
		t.Errorf("Figure-4 path should show a wait timeout:\n%s", out)
	}
}

func TestTraceBAQOverlap(t *testing.T) {
	var b strings.Builder
	if err := run([]string{"-k", "12", "-scheme", "baq", "-level", "3", "-episodes", "300"}, &b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "level=simultaneous-dual") {
		t.Errorf("BAQ level-3 episode not found:\n%s", b.String())
	}
}

func TestTraceErrors(t *testing.T) {
	var b strings.Builder
	if err := run([]string{"-scheme", "bogus"}, &b); err == nil {
		t.Error("unknown scheme accepted")
	}
	// Level 3 is unreachable on an underlapping plane: the search must
	// fail loudly rather than loop.
	if err := run([]string{"-k", "10", "-level", "3", "-episodes", "20"}, &b); err == nil {
		t.Error("impossible level filter found a match")
	}
	if err := run([]string{"-zzz"}, &b); err == nil {
		t.Error("bad flag accepted")
	}
}
