package oaq

import (
	"fmt"
	"math"
	"testing"

	"satqos/internal/qos"
	"satqos/internal/stats"
)

func TestParamsValidate(t *testing.T) {
	good := ReferenceParams(12, qos.SchemeOAQ)
	if err := good.Validate(); err != nil {
		t.Fatalf("reference params rejected: %v", err)
	}
	mutations := []func(*Params){
		func(p *Params) { p.K = 0 },
		func(p *Params) { p.Geom = qos.Geometry{} },
		func(p *Params) { p.Scheme = 0 },
		func(p *Params) { p.TauMin = 0 },
		func(p *Params) { p.TauMin = math.NaN() },
		func(p *Params) { p.TauMin = math.Inf(1) },
		func(p *Params) { p.DeltaMin = 0 },
		// Fuzz regression: δ = +Inf used to be accepted and produced a
		// corrupted episode (a missing-target level flagged Detected with
		// NaN latency) because in-flight messages never arrived.
		func(p *Params) { p.DeltaMin = math.Inf(1) },
		func(p *Params) { p.TgMin = 0 },
		func(p *Params) { p.TgMin = math.Inf(1) },
		func(p *Params) { p.SignalDuration = nil },
		// Fuzz regression: a zero-rate exponential (infinite mean) used to
		// pass the nil check and panic at sample time.
		func(p *Params) { p.SignalDuration = stats.Exponential{Rate: 0} },
		func(p *Params) { p.ComputeTime = nil },
		func(p *Params) { p.ComputeTime = stats.Exponential{Rate: 0} },
		func(p *Params) { p.FailSilentProb = -0.1 },
		func(p *Params) { p.FailSilentProb = 1.1 },
		func(p *Params) { p.FailSilentProb = math.NaN() },
		func(p *Params) { p.MessageLossProb = math.NaN() },
		func(p *Params) { p.MaxChain = -1 },
	}
	for i, mutate := range mutations {
		p := ReferenceParams(12, qos.SchemeOAQ)
		mutate(&p)
		if err := p.Validate(); err == nil {
			t.Errorf("mutation %d accepted", i)
		}
	}
}

func TestRunEpisodeValidation(t *testing.T) {
	p := ReferenceParams(12, qos.SchemeOAQ)
	if _, err := RunEpisode(p, nil); err == nil {
		t.Error("nil RNG accepted")
	}
	p.K = 0
	if _, err := RunEpisode(p, stats.NewRNG(1, 0)); err == nil {
		t.Error("invalid params accepted")
	}
	if _, err := EvaluateParallel(ReferenceParams(12, qos.SchemeOAQ), 0, 1, 1); err == nil {
		t.Error("zero episodes accepted")
	}
}

func TestEpisodeBasicInvariants(t *testing.T) {
	rng := stats.NewRNG(42, 0)
	for _, k := range []int{9, 10, 12, 14} {
		for _, s := range []qos.Scheme{qos.SchemeBAQ, qos.SchemeOAQ} {
			p := ReferenceParams(k, s)
			for i := 0; i < 200; i++ {
				res, err := RunEpisode(p, rng)
				if err != nil {
					t.Fatalf("k=%d %v: %v", k, s, err)
				}
				if !res.Level.Valid() {
					t.Fatalf("invalid level %d", res.Level)
				}
				if res.Delivered && res.Level == qos.LevelMiss {
					t.Fatal("delivered episode scored as miss")
				}
				if !res.Delivered && res.Level != qos.LevelMiss {
					t.Fatal("undelivered episode scored above miss")
				}
				if res.Delivered {
					if res.DeliveryLatency < 0 || res.DeliveryLatency > p.TauMin+1e-9 {
						t.Fatalf("delivery latency %v outside [0, τ]", res.DeliveryLatency)
					}
				}
				if res.Detected && math.IsNaN(res.DetectionDelay) {
					t.Fatal("detected but NaN detection delay")
				}
				if res.Level == qos.LevelSequentialDual && res.ChainLength < 2 {
					t.Fatalf("sequential dual with chain %d", res.ChainLength)
				}
			}
		}
	}
}

// The protocol's guaranteed-delivery property: in the overlapping regime
// every detected signal yields a timely alert; in the underlap regime
// only escaped targets go unreported (no failures configured).
func TestGuaranteedDelivery(t *testing.T) {
	rng := stats.NewRNG(7, 0)
	for _, k := range []int{10, 12, 14} {
		p := ReferenceParams(k, qos.SchemeOAQ)
		p.BackwardMessaging = true
		for i := 0; i < 500; i++ {
			res, err := RunEpisode(p, rng)
			if err != nil {
				t.Fatal(err)
			}
			if res.Detected && !res.Delivered {
				t.Fatalf("k=%d: detected signal had no timely alert (termination %v)", k, res.Termination)
			}
		}
	}
}

// DES vs analytic model: the empirical level distribution must match the
// closed-form conditional PMF P(Y = y | k) for every capacity and both
// schemes. This is the central validation that the distributed protocol
// achieves exactly the QoS the paper's model promises.
func TestEmpiricalMatchesAnalytic(t *testing.T) {
	if testing.Short() {
		t.Skip("Monte-Carlo validation skipped in -short mode")
	}
	const episodes = 40000
	model := qos.ReferenceModel()
	seed := uint64(2003)
	for _, k := range []int{9, 10, 12, 14} {
		for _, s := range []qos.Scheme{qos.SchemeBAQ, qos.SchemeOAQ} {
			p := ReferenceParams(k, s)
			ev, err := EvaluateParallel(p, episodes, seed, 1)
			seed++
			if err != nil {
				t.Fatalf("k=%d %v: %v", k, s, err)
			}
			want, err := model.ConditionalPMF(s, k)
			if err != nil {
				t.Fatal(err)
			}
			for y := qos.LevelMiss; y <= qos.LevelSimultaneousDual; y++ {
				got := ev.PMF[y]
				// Monte-Carlo tolerance: 3σ plus a small protocol-constant
				// allowance (δ, T_g are zero in the model, small here).
				tol := 3*math.Sqrt(want[y]*(1-want[y])/episodes) + 0.015
				if math.Abs(got-want[y]) > tol {
					t.Errorf("k=%d %v level %v: empirical %.4f vs analytic %.4f (tol %.4f)",
						k, s, y, got, want[y], tol)
				}
			}
		}
	}
}

// The paper's §4.3 spot check, reproduced by the running protocol:
// P(Y=3 | k=12) ≈ 0.44 under OAQ and ≈ 0.20 under BAQ.
func TestSection43SpotBySimulation(t *testing.T) {
	if testing.Short() {
		t.Skip("Monte-Carlo validation skipped in -short mode")
	}
	oaq, err := EvaluateParallel(ReferenceParams(12, qos.SchemeOAQ), 40000, 44, 1)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(oaq.PMF[qos.LevelSimultaneousDual]-0.44) > 0.02 {
		t.Errorf("simulated OAQ P(Y=3|12) = %v, paper reports 0.44", oaq.PMF[qos.LevelSimultaneousDual])
	}
	baq, err := EvaluateParallel(ReferenceParams(12, qos.SchemeBAQ), 40000, 45, 1)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(baq.PMF[qos.LevelSimultaneousDual]-0.20) > 0.02 {
		t.Errorf("simulated BAQ P(Y=3|12) = %v, paper reports 0.20", baq.PMF[qos.LevelSimultaneousDual])
	}
}

// Fail-silent tolerance (Figure 4): with the backward-messaging variant
// an alert still goes out when the requested peer is dead; the
// no-backward variant loses it — exactly the trade-off §3.2 describes.
func TestFailSilentPeer(t *testing.T) {
	mk := func(backward bool) Params {
		p := ReferenceParams(10, qos.SchemeOAQ) // underlap → chains form
		p.FailSilentProb = 1                    // every peer is dead
		p.BackwardMessaging = backward
		return p
	}
	backward, err := EvaluateParallel(mk(true), 3000, 13, 1)
	if err != nil {
		t.Fatal(err)
	}
	if backward.DeliveredFraction < backward.DetectedFraction-1e-9 {
		t.Errorf("backward messaging: delivered %v < detected %v",
			backward.DeliveredFraction, backward.DetectedFraction)
	}
	if backward.PMF[qos.LevelSequentialDual] > 0 {
		t.Error("dead peers cannot produce sequential dual results")
	}
	noBackward, err := EvaluateParallel(mk(false), 3000, 14, 1)
	if err != nil {
		t.Fatal(err)
	}
	// Chains that formed (request sent to a dead peer) lose their alert.
	if noBackward.DeliveredFraction >= backward.DeliveredFraction-0.05 {
		t.Errorf("no-backward with dead peers should lose alerts: %v vs backward %v",
			noBackward.DeliveredFraction, backward.DeliveredFraction)
	}
}

// TC-1: a satisfied error threshold stops the chain at the first pass.
func TestTC1StopsCoordination(t *testing.T) {
	p := ReferenceParams(10, qos.SchemeOAQ)
	p.ErrorThresholdKm = 1000 // single pass already good enough
	ev, err := EvaluateParallel(p, 3000, 5, 1)
	if err != nil {
		t.Fatal(err)
	}
	if ev.PMF[qos.LevelSequentialDual] > 0 {
		t.Errorf("TC-1 satisfied at first pass, but sequential results appeared: %v", ev.PMF)
	}
	if ev.Terminations[TermErrorThreshold] == 0 {
		t.Error("no TC-1 terminations recorded")
	}
	// Restrictive threshold with the default 15/√passes model: never
	// satisfied → chains proceed.
	p.ErrorThresholdKm = 0.001
	ev2, err := EvaluateParallel(p, 3000, 6, 1)
	if err != nil {
		t.Fatal(err)
	}
	if ev2.PMF[qos.LevelSequentialDual] == 0 {
		t.Error("restrictive TC-1 should leave sequential coordination intact")
	}
}

// MaxChain = 1 suppresses all coordination: OAQ under underlap behaves
// like BAQ.
func TestMaxChainCap(t *testing.T) {
	p := ReferenceParams(10, qos.SchemeOAQ)
	p.MaxChain = 1
	ev, err := EvaluateParallel(p, 3000, 6, 1)
	if err != nil {
		t.Fatal(err)
	}
	if ev.PMF[qos.LevelSequentialDual] > 0 {
		t.Errorf("MaxChain=1 produced sequential results: %v", ev.PMF)
	}
	if ev.Terminations[TermChainCap] == 0 {
		t.Error("no chain-cap terminations recorded")
	}
}

// A long deadline in the underlap regime opens Theorem 2's second window
// (gap detection, satellites i+1 and i+2) and longer chains; levels stay
// valid and sequential mass grows versus a short deadline.
func TestLongDeadlineExtendsChains(t *testing.T) {
	short := ReferenceParams(9, qos.SchemeOAQ)
	long := ReferenceParams(9, qos.SchemeOAQ)
	long.TauMin = 25
	evShort, err := EvaluateParallel(short, 4000, 8, 1)
	if err != nil {
		t.Fatal(err)
	}
	evLong, err := EvaluateParallel(long, 4000, 9, 1)
	if err != nil {
		t.Fatal(err)
	}
	if evLong.PMF[qos.LevelSequentialDual] <= evShort.PMF[qos.LevelSequentialDual] {
		t.Errorf("longer deadline should add sequential mass: %v vs %v",
			evLong.PMF[qos.LevelSequentialDual], evShort.PMF[qos.LevelSequentialDual])
	}
	if evLong.MeanChainLength < evShort.MeanChainLength {
		t.Errorf("longer deadline should lengthen chains: %v vs %v",
			evLong.MeanChainLength, evShort.MeanChainLength)
	}
}

// Escaped targets: k = 9 has a 1-minute coverage gap; with very short
// signals some escape (level 0); with very long signals none do.
func TestEscapedTargets(t *testing.T) {
	shortSignals := ReferenceParams(9, qos.SchemeOAQ)
	shortSignals.SignalDuration = stats.Exponential{Rate: 5} // mean 12 s
	ev, err := EvaluateParallel(shortSignals, 4000, 9, 1)
	if err != nil {
		t.Fatal(err)
	}
	if ev.PMF[qos.LevelMiss] == 0 {
		t.Error("short signals in a gapped plane should sometimes escape")
	}
	longSignals := ReferenceParams(9, qos.SchemeOAQ)
	longSignals.SignalDuration = stats.Exponential{Rate: 0.01} // mean 100 min
	ev2, err := EvaluateParallel(longSignals, 4000, 10, 1)
	if err != nil {
		t.Fatal(err)
	}
	if ev2.PMF[qos.LevelMiss] > 0.001 {
		t.Errorf("100-minute signals should never escape: miss = %v", ev2.PMF[qos.LevelMiss])
	}
}

// OAQ dominates BAQ empirically at every level (the protocol-level
// counterpart of the analytic dominance property).
func TestSimulatedOAQDominatesBAQ(t *testing.T) {
	seed := uint64(10)
	for _, k := range []int{10, 12} {
		oaqEv, err := EvaluateParallel(ReferenceParams(k, qos.SchemeOAQ), 8000, seed, 1)
		if err != nil {
			t.Fatal(err)
		}
		baqEv, err := EvaluateParallel(ReferenceParams(k, qos.SchemeBAQ), 8000, seed+1, 1)
		if err != nil {
			t.Fatal(err)
		}
		seed += 2
		for y := qos.LevelSingle; y <= qos.LevelSimultaneousDual; y++ {
			if oaqEv.CCDF(y) < baqEv.CCDF(y)-0.02 {
				t.Errorf("k=%d level %v: OAQ %v < BAQ %v", k, y, oaqEv.CCDF(y), baqEv.CCDF(y))
			}
		}
	}
}

func TestDefaultErrorModel(t *testing.T) {
	if !math.IsInf(DefaultErrorModel(0), 1) {
		t.Error("zero passes should have infinite error")
	}
	if DefaultErrorModel(1) != 15 {
		t.Errorf("single-pass error = %v, want 15", DefaultErrorModel(1))
	}
	if DefaultErrorModel(4) != 7.5 {
		t.Errorf("4-pass error = %v, want 7.5", DefaultErrorModel(4))
	}
}

func TestTerminationString(t *testing.T) {
	for term := TermNone; term < Termination(numTerminations); term++ {
		if s := term.String(); s == "" || s == fmt.Sprintf("Termination(%d)", int(term)) {
			t.Errorf("missing String case for %d", int(term))
		}
	}
	if Termination(99).String() != "Termination(99)" {
		t.Errorf("unknown termination = %q", Termination(99).String())
	}
}

func TestEvaluationCI(t *testing.T) {
	ev, err := EvaluateParallel(ReferenceParams(12, qos.SchemeOAQ), 1000, 20, 1)
	if err != nil {
		t.Fatal(err)
	}
	if ci := ev.CI95(qos.LevelSimultaneousDual); ci <= 0 || ci > 0.1 {
		t.Errorf("CI95 = %v", ci)
	}
	empty := &Evaluation{}
	if !math.IsInf(empty.CI95(qos.LevelSingle), 1) {
		t.Error("CI of empty evaluation should be infinite")
	}
}

func BenchmarkRunEpisodeOAQ(b *testing.B) {
	p := ReferenceParams(10, qos.SchemeOAQ)
	rng := stats.NewRNG(1, 0)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := RunEpisode(p, rng); err != nil {
			b.Fatal(err)
		}
	}
}

// CCDF returns the empirical P(Y >= y).
func (e *Evaluation) CCDF(y qos.Level) float64 { return e.PMF.CCDF(y) }

// CI95 returns the 95% half-width for the empirical P(Y >= y).
func (e *Evaluation) CI95(y qos.Level) float64 {
	p := e.CCDF(y)
	if e.Episodes == 0 {
		return math.Inf(1)
	}
	return 1.96 * math.Sqrt(p*(1-p)/float64(e.Episodes))
}
