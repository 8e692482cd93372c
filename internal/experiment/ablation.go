package experiment

import (
	"fmt"
	"math"

	"satqos/internal/oaq"
	"satqos/internal/qos"
)

// PicoScaling studies the paper's §2 claim that the OAQ framework "is
// anticipated to be more effective for systems built on very large
// populations of nodes, such as pico-satellite constellations."
//
// For each plane population N the geometry is scaled so that the full
// plane has the same overlap ratio as the reference design
// (Tc = 1.4·θ/N, matching Tr[14] = 90/14 against Tc = 9); the plane is
// then degraded by a fraction of its population and the conditional
// QoS measure P(Y >= 2 | k) is evaluated for both schemes. Larger
// populations degrade more gracefully, and OAQ's advantage survives
// deeper into the degradation. The loss-fraction points run
// concurrently.
func PicoScaling(populations []int, lossFractions []float64, tau, mu, nu float64) (*Sweep, error) {
	if len(populations) == 0 {
		populations = []int{14, 28, 56, 112}
	}
	if len(lossFractions) == 0 {
		lossFractions = []float64{0, 0.1, 0.2, 0.3, 0.4, 0.5}
	}
	const theta = 90.0
	sweep := &Sweep{
		Title:  fmt.Sprintf("Pico-constellation scaling: P(Y>=2 | loss) (tau=%g, mu=%g, nu=%g)", tau, mu, nu),
		XLabel: "loss-fraction",
		X:      lossFractions,
		Notes: []string{
			"per-population geometry: Tc = 1.4*theta/N (same full-plane overlap ratio as the reference design)",
		},
	}
	var (
		names  []string
		models []qos.Model
	)
	for _, n := range populations {
		tc := 1.4 * theta / float64(n)
		geom, err := qos.NewGeometry(theta, tc)
		if err != nil {
			return nil, fmt.Errorf("experiment: PicoScaling N=%d: %w", n, err)
		}
		model, err := qos.NewModel(geom, tau, mu, nu)
		if err != nil {
			return nil, err
		}
		models = append(models, model)
		for _, scheme := range bothSchemes {
			names = append(names, fmt.Sprintf("%v N=%d", scheme, n))
		}
	}
	return mapSeries(sweep, names, func(i int, _ point) ([]float64, error) {
		f := lossFractions[i]
		if f < 0 || f >= 1 {
			return nil, fmt.Errorf("experiment: loss fraction %g outside [0, 1)", f)
		}
		col := make([]float64, 0, len(names))
		for pi, n := range populations {
			k := int(math.Round(float64(n) * (1 - f)))
			if k < 1 {
				k = 1
			}
			for _, scheme := range bothSchemes {
				pmf, err := models[pi].ConditionalPMF(scheme, k)
				if err != nil {
					return nil, err
				}
				col = append(col, pmf.CCDF(qos.LevelSequentialDual))
			}
		}
		return col, nil
	})
}

// AblationBackwardMessaging compares the two protocol variants of §3.2
// under fail-silent peers: the backward ("coordination done") variant
// guarantees delivery; the no-backward variant (the paper's evaluation
// assumption) loses alerts when the requested peer dies.
//
// Every cell runs oaq.EvaluateParallel with the same seed, so all cells
// see the same episode workload (common random numbers across the
// x-axis) and the sweep is deterministic at any Workers setting.
func AblationBackwardMessaging(failProbs []float64, episodes int, seed uint64) (*Sweep, error) {
	if len(failProbs) == 0 {
		failProbs = []float64{0, 0.05, 0.1, 0.2, 0.4, 0.8}
	}
	if episodes <= 0 {
		episodes = 10000
	}
	sweep := &Sweep{
		Title:  fmt.Sprintf("Ablation: backward vs no-backward messaging under fail-silent peers (k=10, %d episodes)", episodes),
		XLabel: "fail-silent-prob",
		X:      failProbs,
	}
	variants := []struct {
		name     string
		backward bool
	}{{"backward", true}, {"no-backward", false}}
	var names []string
	for _, v := range variants {
		names = append(names, v.name+" delivered", v.name+" P(Y=2)")
	}
	return mapSeries(sweep, names, func(i int, pt point) ([]float64, error) {
		var col []float64
		for _, v := range variants {
			p := oaq.ReferenceParams(10, qos.SchemeOAQ)
			p.BackwardMessaging = v.backward
			p.FailSilentProb = failProbs[i]
			ev, err := pt.simulate(p, fmt.Sprintf("ablation-backward/f%g-%s", failProbs[i], v.name), episodes, seed)
			if err != nil {
				return nil, fmt.Errorf("experiment: ablation at failProb=%g: %w", failProbs[i], err)
			}
			col = append(col, ev.DeliveredFraction, ev.PMF[qos.LevelSequentialDual])
		}
		return col, nil
	})
}

// AblationProtocolConstants measures how the empirical protocol drifts
// from the analytic model (which treats δ and T_g as negligible) as the
// crosslink delay bound and the computation bound grow toward τ. This
// quantifies when the paper's modeling assumption stops being safe. The
// δ points run concurrently under common random numbers.
func AblationProtocolConstants(deltas []float64, episodes int, seed uint64) (*Sweep, error) {
	if len(deltas) == 0 {
		deltas = []float64{0.01, 0.05, 0.1, 0.25, 0.5, 1}
	}
	if episodes <= 0 {
		episodes = 10000
	}
	model := qos.ReferenceModel()
	ana, err := model.ConditionalPMF(qos.SchemeOAQ, 10)
	if err != nil {
		return nil, err
	}
	sweep := &Sweep{
		Title:  fmt.Sprintf("Ablation: protocol constants δ, T_g vs the negligible-constants assumption (k=10, %d episodes)", episodes),
		XLabel: "delta(min)",
		X:      deltas,
		Notes: []string{
			fmt.Sprintf("analytic P(Y=2|10) = %.4f assumes δ, T_g → 0; T_g tracks 5δ here", ana[qos.LevelSequentialDual]),
		},
	}
	names := []string{"empirical P(Y=2)", "|drift from analytic|"}
	return mapSeries(sweep, names, func(i int, pt point) ([]float64, error) {
		p := oaq.ReferenceParams(10, qos.SchemeOAQ)
		p.DeltaMin = deltas[i]
		p.TgMin = 5 * deltas[i]
		ev, err := pt.simulate(p, fmt.Sprintf("ablation-constants/d%g", deltas[i]), episodes, seed)
		if err != nil {
			return nil, fmt.Errorf("experiment: constants ablation at δ=%g: %w", deltas[i], err)
		}
		level2 := ev.PMF[qos.LevelSequentialDual]
		return []float64{level2, math.Abs(level2 - ana[qos.LevelSequentialDual])}, nil
	})
}

// AblationTC1 sweeps the TC-1 error threshold: a permissive threshold
// stops coordination after the first pass (saving crosslink messages at
// the price of QoS level 2), a strict one lets chains run to the
// deadline. It exposes the quality/cost trade the termination condition
// encodes. The threshold points run concurrently under common random
// numbers, so the series differences isolate the threshold's effect.
func AblationTC1(thresholds []float64, episodes int, seed uint64) (*Sweep, error) {
	if len(thresholds) == 0 {
		thresholds = []float64{0, 1, 5, 10, 12, 16, 20}
	}
	if episodes <= 0 {
		episodes = 10000
	}
	sweep := &Sweep{
		Title:  fmt.Sprintf("Ablation: TC-1 error threshold (k=10, default 15/sqrt(passes) error model, %d episodes)", episodes),
		XLabel: "threshold(km)",
		X:      thresholds,
		Notes: []string{
			"threshold 0 disables TC-1; thresholds above 15 km are satisfied by a single pass",
		},
	}
	names := []string{"P(Y=2)", "mean messages", "mean chain"}
	return mapSeries(sweep, names, func(i int, pt point) ([]float64, error) {
		p := oaq.ReferenceParams(10, qos.SchemeOAQ)
		p.ErrorThresholdKm = thresholds[i]
		ev, err := pt.simulate(p, fmt.Sprintf("ablation-tc1/t%g", thresholds[i]), episodes, seed)
		if err != nil {
			return nil, fmt.Errorf("experiment: TC-1 ablation at threshold=%g: %w", thresholds[i], err)
		}
		return []float64{ev.PMF[qos.LevelSequentialDual], ev.MeanMessages, ev.MeanChainLength}, nil
	})
}
