package experiment

import (
	"fmt"

	"satqos/internal/capacity"
	"satqos/internal/numeric"
	"satqos/internal/qos"
)

// Workers is the parallelism of every sweep driver in this package:
// each x-axis point (and, for the simulation experiments, each
// table cell) is an independent unit of work fanned out over a bounded
// worker pool. Zero or negative selects parallel.DefaultWorkers().
// Results are deterministic — identical for any setting — because every
// unit derives its randomness from its own (seed, substream) pair and
// results are assembled in input order. Set it once at startup (the
// CLIs wire -workers to it); it is not synchronized against concurrent
// mutation during a running sweep.
var Workers int

// DefaultLambdas is the λ axis of the paper's figures: 1e-5 to 1e-4 per
// hour in steps of 1e-5.
func DefaultLambdas() []float64 {
	return numeric.Linspace(1e-5, 1e-4, 10)
}

// Table1 reproduces Table 1: QoS levels versus geometric properties —
// which levels are reachable under footprint overlap (I[k] = 1) and
// underlap (I[k] = 0).
func Table1() *Table {
	mark := func(reachable bool) string {
		if reachable {
			return "yes"
		}
		return "-"
	}
	return &Table{
		Title: "Table 1: QoS levels vs geometric properties",
		Columns: []string{
			"I[k]",
			"Y=3 simultaneous dual", "Y=2 sequential dual", "Y=1 single coverage", "Y=0 missing target",
		},
		Rows: [][]string{
			{"1 (overlap)", mark(true), mark(false), mark(true), mark(false)},
			{"0 (underlap)", mark(false), mark(true), mark(true), mark(true)},
		},
		Notes: []string{
			"Y=2 requires OAQ's sequential coordination; BAQ cannot reach it.",
			"reference geometry: overlap iff k >= 11 (Tr[k] = 90/k < Tc = 9).",
		},
	}
}

// Figure7 reproduces Figure 7: the plane-capacity probabilities P(K = k)
// as functions of the node-failure rate λ, with threshold η = 10 and
// scheduled-deployment period φ = 30000 h. The λ points solve
// concurrently (Workers wide).
func Figure7(lambdas []float64, eta int, phiHours float64) (*Sweep, error) {
	if len(lambdas) == 0 {
		lambdas = DefaultLambdas()
	}
	sweep := &Sweep{
		Title:  fmt.Sprintf("Figure 7: P(K=k) vs node-failure rate (eta=%d, phi=%g hrs)", eta, phiHours),
		XLabel: "lambda(/hr)",
		X:      lambdas,
		Notes: []string{
			"analytic route: time-averaged transient of the plane-capacity chain over one scheduled-deployment period",
		},
	}
	var names []string
	for k := eta; k <= 14; k++ {
		names = append(names, fmt.Sprintf("P(K=%d)", k))
	}
	return mapSeries(sweep, names, func(i int, _ point) ([]float64, error) {
		dist, err := capacity.ReferenceParams(eta, lambdas[i], phiHours).Analytic()
		if err != nil {
			return nil, fmt.Errorf("experiment: Figure7 at λ=%g: %w", lambdas[i], err)
		}
		col := make([]float64, 0, len(names))
		for k := eta; k <= 14; k++ {
			col = append(col, dist.P(k))
		}
		return col, nil
	})
}

// Figure8 reproduces Figure 8: P(Y = 3) as a function of λ for OAQ and
// BAQ at µ = 0.2 and µ = 0.5 (τ = 5, ν = 30, η = 12, φ = 30000 h).
// Each λ point computes its capacity distribution once (the memoized
// Analytic cache makes repeats free anyway) and evaluates all four
// (scheme, µ) series from it; the λ points run concurrently.
func Figure8(lambdas []float64) (*Sweep, error) {
	if len(lambdas) == 0 {
		lambdas = DefaultLambdas()
	}
	const (
		eta = 12
		phi = 30000.0
		tau = 5.0
		nu  = 30.0
	)
	sweep := &Sweep{
		Title:  "Figure 8: P(Y=3) vs node-failure rate (tau=5, eta=12, phi=30000 hrs)",
		XLabel: "lambda(/hr)",
		X:      lambdas,
	}
	var (
		names   []string
		schemes []qos.Scheme
		models  []qos.Model
	)
	for _, scheme := range bothSchemes {
		for _, mu := range []float64{0.2, 0.5} {
			model, err := qos.NewModel(qos.ReferenceGeometry(), tau, mu, nu)
			if err != nil {
				return nil, err
			}
			names = append(names, fmt.Sprintf("%v (mu=%g)", scheme, mu))
			schemes = append(schemes, scheme)
			models = append(models, model)
		}
	}
	return mapSeries(sweep, names, func(i int, _ point) ([]float64, error) {
		dist, err := capacity.ReferenceParams(eta, lambdas[i], phi).Analytic()
		if err != nil {
			return nil, fmt.Errorf("experiment: Figure8 at λ=%g: %w", lambdas[i], err)
		}
		col := make([]float64, len(models))
		for j, model := range models {
			pmf, err := model.Compose(schemes[j], dist)
			if err != nil {
				return nil, err
			}
			col[j] = pmf[qos.LevelSimultaneousDual]
		}
		return col, nil
	})
}

// Figure9 reproduces Figure 9: the QoS measure P(Y >= y) for
// y ∈ {1, 2, 3} under OAQ and BAQ (τ = 5, µ = 0.2, ν = 30, η = 10,
// φ = 30000 h — the η = 10 setting of Figure 7, which matches the
// paper's reported endpoint values). Each λ point solves its capacity
// distribution once and evaluates all six (scheme, y) series from it;
// the λ points run concurrently.
func Figure9(lambdas []float64) (*Sweep, error) {
	if len(lambdas) == 0 {
		lambdas = DefaultLambdas()
	}
	const (
		eta = 10
		phi = 30000.0
		tau = 5.0
		mu  = 0.2
		nu  = 30.0
	)
	model, err := qos.NewModel(qos.ReferenceGeometry(), tau, mu, nu)
	if err != nil {
		return nil, err
	}
	sweep := &Sweep{
		Title:  "Figure 9: P(Y>=y) vs node-failure rate (tau=5, mu=0.2, phi=30000 hrs)",
		XLabel: "lambda(/hr)",
		X:      lambdas,
		Notes: []string{
			"eta=10 (the Figure 7 setting): reproduces the paper's endpoints P(Y>=2) 0.75/0.33 at 1e-5 and 0.41/0.04 at 1e-4",
		},
	}
	levels := []qos.Level{qos.LevelSimultaneousDual, qos.LevelSequentialDual, qos.LevelSingle}
	return mapSeries(sweep, measureNames(levels), func(i int, _ point) ([]float64, error) {
		dist, err := capacity.ReferenceParams(eta, lambdas[i], phi).Analytic()
		if err != nil {
			return nil, fmt.Errorf("experiment: Figure9 at λ=%g: %w", lambdas[i], err)
		}
		return measures(model, dist, levels)
	})
}

// Section43Spot reproduces the §4.3 spot evaluation of the constituent
// measure P(Y = y | k) at τ = 5, µ = 0.5, ν = 30 for all capacities,
// including the quoted values P(Y=3|12) = 0.44 (OAQ) and 0.20 (BAQ).
func Section43Spot() (*Table, error) {
	model := qos.ReferenceModel()
	t := &Table{
		Title:   "Section 4.3: conditional QoS P(Y=y|k) at tau=5, mu=0.5, nu=30",
		Columns: []string{"k", "I[k]", "scheme", "P(Y=0|k)", "P(Y=1|k)", "P(Y=2|k)", "P(Y=3|k)"},
		Notes: []string{
			"paper quotes OAQ P(Y=3|12)=0.44 and BAQ P(Y=3|12)=0.20",
		},
	}
	for k := 9; k <= 14; k++ {
		i, err := model.Geom.I(k)
		if err != nil {
			return nil, err
		}
		for _, scheme := range bothSchemes {
			pmf, err := model.ConditionalPMF(scheme, k)
			if err != nil {
				return nil, err
			}
			t.Rows = append(t.Rows, []string{
				fmt.Sprintf("%d", k),
				fmt.Sprintf("%d", i),
				scheme.String(),
				fmt.Sprintf("%.4f", pmf[qos.LevelMiss]),
				fmt.Sprintf("%.4f", pmf[qos.LevelSingle]),
				fmt.Sprintf("%.4f", pmf[qos.LevelSequentialDual]),
				fmt.Sprintf("%.4f", pmf[qos.LevelSimultaneousDual]),
			})
		}
	}
	return t, nil
}

// bothSchemes is the presentation order of every OAQ-vs-BAQ series.
var bothSchemes = []qos.Scheme{qos.SchemeOAQ, qos.SchemeBAQ}

// measureNames names the P(Y >= y) series that measures computes: OAQ
// then BAQ, each at levels in order.
func measureNames(levels []qos.Level) []string {
	names := make([]string, 0, len(bothSchemes)*len(levels))
	for _, scheme := range bothSchemes {
		for _, y := range levels {
			names = append(names, fmt.Sprintf("%v y>=%d", scheme, int(y)))
		}
	}
	return names
}

// measures is one sweep point's column of the measureNames series.
func measures(model qos.Model, dist *capacity.Distribution, levels []qos.Level) ([]float64, error) {
	col := make([]float64, 0, len(bothSchemes)*len(levels))
	for _, scheme := range bothSchemes {
		for _, y := range levels {
			v, err := model.Measure(scheme, dist, y)
			if err != nil {
				return nil, err
			}
			col = append(col, v)
		}
	}
	return col, nil
}

// TauSweep reproduces the §4.3 experiment "the QoS measure as a function
// of τ": OAQ exploits the full time allowance while BAQ plateaus. The τ
// points run concurrently.
func TauSweep(taus []float64, lambda float64) (*Sweep, error) {
	if len(taus) == 0 {
		taus = numeric.Linspace(1, 9, 9)
	}
	const mu = 0.2
	sweep := &Sweep{
		Title:  fmt.Sprintf("QoS measure vs deadline tau (lambda=%g, mu=%g)", lambda, mu),
		XLabel: "tau(min)",
		X:      taus,
	}
	return modelSweep(sweep, lambda, func(tau float64) (qos.Model, error) {
		return qos.NewModel(qos.ReferenceGeometry(), tau, mu, 30)
	})
}

// DurationSweep reproduces the §4.3 experiment "the QoS measure as a
// function of the mean signal duration": OAQ treats longer signals as
// extended opportunity; BAQ is insensitive. The duration points run
// concurrently.
func DurationSweep(meanDurations []float64, lambda float64) (*Sweep, error) {
	if len(meanDurations) == 0 {
		meanDurations = []float64{0.5, 1, 2, 3, 5, 8, 12, 20}
	}
	const tau = 5.0
	sweep := &Sweep{
		Title:  fmt.Sprintf("QoS measure vs mean signal duration 1/mu (lambda=%g, tau=%g)", lambda, tau),
		XLabel: "mean-duration(min)",
		X:      meanDurations,
	}
	return modelSweep(sweep, lambda, func(meanDuration float64) (qos.Model, error) {
		return qos.NewModel(qos.ReferenceGeometry(), tau, 1/meanDuration, 30)
	})
}

// modelSweep is the driver behind TauSweep and DurationSweep: the
// capacity distribution is fixed (η = 10, φ = 30000 h, the given λ)
// and each x point builds its own model with newModel,
// reporting OAQ and BAQ P(Y >= 2) and P(Y >= 3).
func modelSweep(sweep *Sweep, lambda float64, newModel func(x float64) (qos.Model, error)) (*Sweep, error) {
	dist, err := capacity.ReferenceParams(10, lambda, 30000).Analytic()
	if err != nil {
		return nil, err
	}
	levels := []qos.Level{qos.LevelSequentialDual, qos.LevelSimultaneousDual}
	return mapSeries(sweep, measureNames(levels), func(i int, _ point) ([]float64, error) {
		model, err := newModel(sweep.X[i])
		if err != nil {
			return nil, err
		}
		return measures(model, dist, levels)
	})
}
