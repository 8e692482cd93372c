package experiment

import (
	"fmt"

	"satqos/internal/capacity"
)

// ConstellationAvailability composes the per-plane capacity model across
// the seven independent planes (no shared spares, per §4.2.2) into
// constellation-level availability: P(total active satellites >= m) as a
// function of the node-failure rate, together with the expected fleet
// size and the expected time for a plane to degrade to its threshold.
// This is the fleet-operator view the paper's per-plane analysis rolls
// up into. The λ points run concurrently.
func ConstellationAvailability(lambdas []float64, eta int, phiHours float64, thresholds []int) (*Sweep, error) {
	if len(lambdas) == 0 {
		lambdas = DefaultLambdas()
	}
	if len(thresholds) == 0 {
		thresholds = []int{98, 90, 80}
	}
	const planes = 7
	sweep := &Sweep{
		Title:  fmt.Sprintf("Constellation availability: P(total actives >= m) over %d planes (eta=%d, phi=%g hrs)", planes, eta, phiHours),
		XLabel: "lambda(/hr)",
		X:      lambdas,
		Notes: []string{
			"planes are independent (no shared spares); exact convolution of the per-plane distribution",
		},
	}
	var names []string
	for _, m := range thresholds {
		names = append(names, fmt.Sprintf("P(total>=%d)", m))
	}
	names = append(names, "E[fleet]", "MTTA(hrs)")
	return mapSeries(sweep, names, func(i int, _ point) ([]float64, error) {
		p := capacity.ReferenceParams(eta, lambdas[i], phiHours)
		col := make([]float64, 0, len(names))
		for _, m := range thresholds {
			v, err := capacity.ConstellationAtLeast(p, planes, m)
			if err != nil {
				return nil, fmt.Errorf("experiment: availability at λ=%g, m=%d: %w", lambdas[i], m, err)
			}
			col = append(col, v)
		}
		dist, err := p.Analytic()
		if err != nil {
			return nil, err
		}
		mtta, err := p.MeanTimeToThreshold()
		if err != nil {
			return nil, err
		}
		return append(col, float64(planes)*dist.Mean(), mtta), nil
	})
}
