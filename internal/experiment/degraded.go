package experiment

import (
	"fmt"

	"satqos/internal/fault"
	"satqos/internal/oaq"
	"satqos/internal/qos"
)

// DegradedLossSweep extends the Figure-9 family into degraded mode: the
// QoS measure P(Y >= y) of the running protocol as a function of the
// injected crosslink loss rate, for the hardened configuration (bounded
// retransmission with `retries` attempts) and, when retries > 0, a
// "no-retry" baseline that exposes the alerts the bare no-backward
// variant loses. An optional fault scenario (scripted fail-silent
// windows and loss bursts) is layered on top of every sweep point.
//
// Every point evaluates the same seeded workload (common random
// numbers), so the curves are monotone in the loss rate rather than
// jittered by independent sampling noise, and the loss points run
// concurrently (Workers wide).
func DegradedLossSweep(lossRates []float64, scenario *fault.Scenario, k, retries, episodes int, seed uint64) (*Sweep, error) {
	// The first step is wide because retransmission masks mild loss: a
	// 400k-episode reference run puts the hardened P(Y>=2) slope from
	// loss 0 to 0.2 at -0.0006 +/- 0.0017 -- statistically flat -- so a
	// default-sized sample of a 0.2 point is a coin flip, and a sampled
	// uptick would belie the monotone physics the curve is meant to
	// show. (Common random numbers only couple episodes until their
	// first divergent draw, so they do not rescue sub-noise slopes.)
	// From 0.4 on, each step's true degradation dominates the noise.
	if len(lossRates) == 0 {
		lossRates = []float64{0, 0.4, 0.6, 0.8}
	}
	if k <= 0 {
		k = 10
	}
	if episodes <= 0 {
		episodes = 20000
	}
	sweep := &Sweep{
		Title:  fmt.Sprintf("Degraded mode: P(Y>=y) vs crosslink loss rate (k=%d, retries=%d, %d episodes per point)", k, retries, episodes),
		XLabel: "loss-prob",
		X:      lossRates,
		Notes: []string{
			"common random numbers across points: every loss rate replays the same seeded workload",
		},
	}
	if !scenario.Empty() {
		sweep.Notes = append(sweep.Notes,
			fmt.Sprintf("fault scenario %q layered on every point (%d fail-silent windows, %d loss bursts)",
				scenario.Name, len(scenario.FailSilent), len(scenario.LossBursts)))
	}
	return mapSeries(sweep, degradedNames(retries), func(i int, pt point) ([]float64, error) {
		p := oaq.ReferenceParams(k, qos.SchemeOAQ)
		p.MessageLossProb = lossRates[i]
		p.Faults = scenario
		col, err := degradedColumn(pt, p, retries, fmt.Sprintf("degraded-loss/p%g", lossRates[i]), episodes, seed)
		if err != nil {
			return nil, fmt.Errorf("experiment: DegradedLossSweep at loss=%g: %w", lossRates[i], err)
		}
		return col, nil
	})
}

// DegradedFailSilentSweep measures P(Y >= y) against the number of
// scripted fail-silent chain successors: point n silences satellites
// with chain ordinals 2..n+1 (the detector, ordinal 1, stays healthy —
// the paper's failure model concerns the peers joining the
// coordination) from the moment of detection, permanently. Sequential
// coordination dies with the first silent successor; the hardened
// configuration still delivers every detected alert (the ack timeout
// exposes the silent peer and TermRetriesExhausted falls back to the
// sender's own result), while the no-retry baseline loses the episodes
// it forwarded into the void. Points share one seeded workload and run
// concurrently.
func DegradedFailSilentSweep(counts []int, k, retries, episodes int, seed uint64) (*Sweep, error) {
	if len(counts) == 0 {
		counts = []int{0, 1, 2, 3}
	}
	if k <= 0 {
		k = 10
	}
	if episodes <= 0 {
		episodes = 20000
	}
	x := make([]float64, len(counts))
	for i, n := range counts {
		if n < 0 {
			return nil, fmt.Errorf("experiment: negative fail-silent count %d", n)
		}
		x[i] = float64(n)
	}
	sweep := &Sweep{
		Title:  fmt.Sprintf("Degraded mode: P(Y>=y) vs scripted fail-silent successors (k=%d, retries=%d, %d episodes per point)", k, retries, episodes),
		XLabel: "failsilent-count",
		X:      x,
		Notes: []string{
			"point n silences chain ordinals 2..n+1 permanently from detection; the detector stays healthy",
			"common random numbers across points: every count replays the same seeded workload",
		},
	}
	return mapSeries(sweep, degradedNames(retries), func(i int, pt point) ([]float64, error) {
		n := counts[i]
		p := oaq.ReferenceParams(k, qos.SchemeOAQ)
		if n > 0 {
			s := &fault.Scenario{Name: fmt.Sprintf("failsilent-%d", n)}
			for j := 0; j < n; j++ {
				s.FailSilent = append(s.FailSilent, fault.FailSilentWindow{Sat: 2 + j, StartMin: 0})
			}
			p.Faults = s
		}
		col, err := degradedColumn(pt, p, retries, fmt.Sprintf("degraded-failsilent/n%d", n), episodes, seed)
		if err != nil {
			return nil, fmt.Errorf("experiment: DegradedFailSilentSweep at n=%d: %w", n, err)
		}
		return col, nil
	})
}

// degradedNames are the series of both degraded-mode sweeps: the
// hardened configuration's P(Y >= 1..3) and, when retries > 0, the
// no-retry baseline's P(Y >= 1..2).
func degradedNames(retries int) []string {
	names := []string{"OAQ y>=1", "OAQ y>=2", "OAQ y>=3"}
	if retries > 0 {
		names = append(names, "no-retry y>=1", "no-retry y>=2")
	}
	return names
}

// degradedColumn evaluates the degraded-mode point p as its column of
// the degradedNames series: hardened with the given retries and, when
// retries > 0, again as the no-retry baseline. Each run's trace scope is
// scope suffixed with its retry count.
func degradedColumn(pt point, p oaq.Params, retries int, scope string, episodes int, seed uint64) ([]float64, error) {
	p.RequestRetries = retries
	hardened, err := pt.simulate(p, fmt.Sprintf("%s-r%d", scope, retries), episodes, seed)
	if err != nil {
		return nil, err
	}
	col := []float64{
		hardened.PMF.CCDF(qos.LevelSingle),
		hardened.PMF.CCDF(qos.LevelSequentialDual),
		hardened.PMF.CCDF(qos.LevelSimultaneousDual),
	}
	if retries > 0 {
		p.RequestRetries = 0
		bare, err := pt.simulate(p, scope+"-r0", episodes, seed)
		if err != nil {
			return nil, err
		}
		col = append(col, bare.PMF.CCDF(qos.LevelSingle), bare.PMF.CCDF(qos.LevelSequentialDual))
	}
	return col, nil
}
