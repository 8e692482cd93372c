package oaq

import (
	"bytes"
	"reflect"
	"testing"

	"satqos/internal/obs"
	"satqos/internal/qos"
	"satqos/internal/stats"
)

// TestPooledRunEpisodeMatchesFreshRunner: one-shot RunEpisode calls —
// which recycle a parked runner through rebind — produce the same
// outcome as a freshly constructed Runner on the same substream, even
// when consecutive calls alternate parameter sets (so each call rebinds
// the pooled stack to a configuration it was not built with).
func TestPooledRunEpisodeMatchesFreshRunner(t *testing.T) {
	configs := []Params{
		ReferenceParams(10, qos.SchemeOAQ),
		ReferenceParams(12, qos.SchemeOAQ),
		ReferenceParams(10, qos.SchemeBAQ),
	}
	configs[0].MessageLossProb = 0.15
	configs[1].BackwardMessaging = true

	for round := 0; round < 3; round++ {
		for ci, p := range configs {
			seed, stream := uint64(ci+1), uint64(round+1)
			oneShot, err := RunEpisode(p, stats.NewRNG(seed, stream))
			if err != nil {
				t.Fatal(err)
			}
			fresh, err := NewRunner(p, stats.NewRNG(seed, stream))
			if err != nil {
				t.Fatal(err)
			}
			want := fresh.Run()
			if !episodeResultsEqual(oneShot, want) {
				t.Fatalf("round %d config %d: pooled one-shot %+v, fresh runner %+v",
					round, ci, oneShot, want)
			}
		}
	}
}

// TestPooledRunEpisodeRejectsInvalidParams: validation errors surface
// from the pooled path exactly as from construction, and the pool stays
// usable afterwards.
func TestPooledRunEpisodeRejectsInvalidParams(t *testing.T) {
	// Warm the pool so the invalid call exercises the rebind path too.
	if _, err := RunEpisode(ReferenceParams(10, qos.SchemeOAQ), stats.NewRNG(1, 1)); err != nil {
		t.Fatal(err)
	}
	bad := ReferenceParams(10, qos.SchemeOAQ)
	bad.TauMin = -1
	if _, err := RunEpisode(bad, stats.NewRNG(1, 2)); err == nil {
		t.Fatal("invalid params accepted by pooled RunEpisode")
	}
	if _, err := RunEpisode(ReferenceParams(10, qos.SchemeOAQ), stats.NewRNG(1, 3)); err != nil {
		t.Fatalf("pool unusable after rejected params: %v", err)
	}
}

// drainRunnerPool empties runnerPool, so the next openShard builds a
// fresh runner.
func drainRunnerPool() {
	for runnerPool.Get() != nil {
	}
}

// warmRunnerPool parks runners that ran a lossy evaluation with other
// parameters, so their event freelists and envelope pools are warm.
func warmRunnerPool(t *testing.T) {
	t.Helper()
	p := ReferenceParams(10, qos.SchemeOAQ)
	p.MessageLossProb = 0.2
	if _, err := EvaluateParallel(p, 2048, 1, 2); err != nil {
		t.Fatal(err)
	}
}

// metricsJSON is the registry's snapshot as JSON.
func metricsJSON(t *testing.T, r *obs.Registry) []byte {
	t.Helper()
	js, err := r.JSON()
	if err != nil {
		t.Fatal(err)
	}
	return js
}

// TestRunEpisodeMetricsIndependentOfPool: the snapshot RunEpisode
// publishes, des_freelist_* included, is a function of its parameters
// and RNG alone, the same on a cold pool as after an evaluation warmed
// the pooled runners.
func TestRunEpisodeMetricsIndependentOfPool(t *testing.T) {
	run := func() []byte {
		p := ReferenceParams(12, qos.SchemeOAQ)
		p.Metrics = obs.NewRegistry()
		if _, err := RunEpisode(p, stats.NewRNG(3, 0)); err != nil {
			t.Fatal(err)
		}
		return metricsJSON(t, p.Metrics)
	}
	drainRunnerPool()
	cold := run()
	warmRunnerPool(t)
	if warm := run(); !bytes.Equal(cold, warm) {
		t.Fatalf("RunEpisode snapshot depends on the pool:\ncold: %s\nwarm: %s", cold, warm)
	}
}

// TestPairedIndependentOfPool: the paired engine draws both runners of
// a shard from the pool; its comparison and both configurations'
// snapshots are the same on a cold pool as on a warm one.
func TestPairedIndependentOfPool(t *testing.T) {
	type outcome struct {
		pc     *PairedComparison
		ma, mb []byte
	}
	run := func() outcome {
		a := ReferenceParams(10, qos.SchemeOAQ)
		b := ReferenceParams(10, qos.SchemeBAQ)
		a.Metrics, b.Metrics = obs.NewRegistry(), obs.NewRegistry()
		pc, err := EvaluatePairedParallel(a, b, 2048, 5, 2)
		if err != nil {
			t.Fatal(err)
		}
		return outcome{pc, metricsJSON(t, a.Metrics), metricsJSON(t, b.Metrics)}
	}
	drainRunnerPool()
	cold := run()
	warmRunnerPool(t)
	warm := run()
	if !reflect.DeepEqual(cold.pc, warm.pc) {
		t.Errorf("paired comparison depends on the pool:\ncold: %+v\nwarm: %+v", cold.pc, warm.pc)
	}
	if !bytes.Equal(cold.ma, warm.ma) || !bytes.Equal(cold.mb, warm.mb) {
		t.Errorf("paired snapshots depend on the pool:\ncold A: %s\nwarm A: %s\ncold B: %s\nwarm B: %s",
			cold.ma, warm.ma, cold.mb, warm.mb)
	}
}
