package mission

import (
	"strings"
	"testing"

	"satqos/internal/obs/trace"
)

// TestMissionTraceDeterministicAcrossWorkers: the mission batch's
// coarse span traces — like its outcomes — are bit-identical at any
// worker count. The episode ordinal is the signal workload index (a
// pure function of seed and horizon), each pooled scratch recorder
// flushes per episode, and the collector sorts by ordinal.
func TestMissionTraceDeterministicAcrossWorkers(t *testing.T) {
	run := func(workers int) (string, *Report) {
		cfg := DefaultConfig()
		cfg.SignalRatePerMin = 0.15
		cfg.Workers = workers
		cfg.Trace = &trace.Config{
			SampleEvery: 7,
			Anomaly:     trace.Policy{LatencyAboveMin: 2},
			Collector:   trace.NewCollector(),
			Scope:       "mission",
		}
		if err := cfg.Validate(); err != nil {
			t.Fatal(err)
		}
		rep, err := Run(cfg, 300)
		if err != nil {
			t.Fatal(err)
		}
		var b strings.Builder
		if err := cfg.Trace.Collector.WriteChrome(&b); err != nil {
			t.Fatal(err)
		}
		return b.String(), rep
	}
	tr1, rep1 := run(1)
	tr4, rep4 := run(4)
	if tr1 != tr4 {
		t.Errorf("mission trace export differs between workers 1 and 4:\n--- w1 ---\n%.1500s\n--- w4 ---\n%.1500s", tr1, tr4)
	}
	if rep1.PMF != rep4.PMF {
		t.Errorf("tracing run PMF differs across workers: %v vs %v", rep1.PMF, rep4.PMF)
	}
	if !strings.Contains(tr1, `"mission/ep-0 [`) {
		t.Errorf("head sampler missed workload index 0:\n%.500s", tr1)
	}
	if !strings.Contains(tr1, `{"name":"signal",`) {
		t.Errorf("no mission root spans in the export:\n%.500s", tr1)
	}

	// And the traced run must not perturb the mission itself.
	cfg := DefaultConfig()
	cfg.SignalRatePerMin = 0.15
	cfg.Workers = 4
	untraced, err := Run(cfg, 300)
	if err != nil {
		t.Fatal(err)
	}
	if untraced.PMF != rep1.PMF || untraced.Episodes != rep1.Episodes {
		t.Errorf("tracing changed the mission outcome:\ntraced:   %v (%d eps)\nuntraced: %v (%d eps)",
			rep1.PMF, rep1.Episodes, untraced.PMF, untraced.Episodes)
	}
}
