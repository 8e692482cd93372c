package experiment

import (
	"fmt"
	"math"

	"satqos/internal/capacity"
	"satqos/internal/constellation"
	"satqos/internal/oaq"
	"satqos/internal/qos"
	"satqos/internal/stats"
)

// SimVsAnalytic validates the analytic conditional model against the
// discrete-event protocol simulation: for each capacity and scheme it
// reports the analytic P(Y = y | k) next to the empirical level
// distribution of the running protocol, with the maximum absolute
// discrepancy. The (k, scheme) cells simulate concurrently, every cell
// on the same seeded workload, and the table assembles in cell order.
func SimVsAnalytic(capacities []int, episodes int, seed uint64) (*Table, float64, error) {
	if len(capacities) == 0 {
		capacities = []int{9, 10, 12, 14}
	}
	if episodes <= 0 {
		episodes = 20000
	}
	model := qos.ReferenceModel()
	t := &Table{
		Title: fmt.Sprintf("Protocol simulation vs analytic model (%d episodes per cell)", episodes),
		Columns: []string{
			"k", "scheme",
			"P(Y=0) sim/ana", "P(Y=1) sim/ana", "P(Y=2) sim/ana", "P(Y=3) sim/ana", "max |diff|",
		},
	}
	type cell struct {
		k      int
		scheme qos.Scheme
	}
	var cells []cell
	for _, k := range capacities {
		for _, scheme := range bothSchemes {
			cells = append(cells, cell{k, scheme})
		}
	}
	evs, err := timedMapSlice(len(cells), func(i int, pt point) (*oaq.Evaluation, error) {
		c := cells[i]
		ev, err := pt.simulate(oaq.ReferenceParams(c.k, c.scheme), fmt.Sprintf("compare/k%d-%v", c.k, c.scheme), episodes, seed)
		if err != nil {
			return nil, fmt.Errorf("experiment: simulate k=%d %v: %w", c.k, c.scheme, err)
		}
		return ev, nil
	})
	if err != nil {
		return nil, 0, err
	}
	var worst float64
	for i, c := range cells {
		ana, err := model.ConditionalPMF(c.scheme, c.k)
		if err != nil {
			return nil, 0, err
		}
		row := []string{fmt.Sprintf("%d", c.k), c.scheme.String()}
		var rowWorst float64
		for y := qos.LevelMiss; y <= qos.LevelSimultaneousDual; y++ {
			d := math.Abs(evs[i].PMF[y] - ana[y])
			if d > rowWorst {
				rowWorst = d
			}
			row = append(row, fmt.Sprintf("%.4f/%.4f", evs[i].PMF[y], ana[y]))
		}
		if rowWorst > worst {
			worst = rowWorst
		}
		row = append(row, fmt.Sprintf("%.4f", rowWorst))
		t.Rows = append(t.Rows, row)
	}
	return t, worst, nil
}

// GeometryCheck validates the two constants the analytic model borrows
// from the SOAP/JPL design — θ = 90 min and Tc = 9 min — against the
// from-scratch orbital geometry engine, and tabulates Tr[k] and the
// overlap indicator for the capacities of interest.
func GeometryCheck() (*Table, error) {
	cfg := constellation.DefaultConfig()
	c, err := constellation.New(cfg)
	if err != nil {
		return nil, err
	}
	plane, err := c.Plane(0)
	if err != nil {
		return nil, err
	}
	orbits := plane.ActiveOrbits()
	if len(orbits) == 0 {
		return nil, fmt.Errorf("experiment: empty plane")
	}
	o := orbits[0]
	fp := plane.Footprint()
	geom := qos.ReferenceGeometry()

	t := &Table{
		Title:   "Geometry engine vs paper constants",
		Columns: []string{"quantity", "engine", "paper"},
		Notes: []string{
			fmt.Sprintf("orbit altitude %.0f km, footprint half-angle %.1f deg, footprint radius %.0f km",
				o.AltitudeKm(), fp.HalfAngle*180/math.Pi, fp.RadiusKm()),
		},
	}
	t.Rows = append(t.Rows,
		[]string{"orbital period theta (min)", fmt.Sprintf("%.4f", o.PeriodMin), "90"},
		[]string{"coverage time Tc (min)", fmt.Sprintf("%.4f", fp.MaxCoverageTime(o)), "9"},
	)
	for k := 9; k <= 14; k++ {
		tr, err := geom.Tr(k)
		if err != nil {
			return nil, err
		}
		i, err := geom.I(k)
		if err != nil {
			return nil, err
		}
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("Tr[%d] (min), I[%d]", k, k),
			fmt.Sprintf("%.4f, %d", plane.RevisitTimeAt(k), i),
			fmt.Sprintf("%.4f", tr),
		})
	}
	return t, nil
}

// CapacityRouteCheck cross-validates the three P(k) computation routes
// (analytic chain, SAN renewal, discrete-event simulation) at one
// parameter point and returns the maximum discrepancy between the two
// analytic routes and between analytic and simulation.
func CapacityRouteCheck(eta int, lambda, phi float64, simPeriods int, seed uint64) (*Table, float64, error) {
	p := capacity.ReferenceParams(eta, lambda, phi)
	ana, err := p.Analytic()
	if err != nil {
		return nil, 0, err
	}
	san, err := p.SAN()
	if err != nil {
		return nil, 0, err
	}
	var sim *capacity.Distribution
	if simPeriods > 0 {
		sim, err = p.Simulate(float64(simPeriods)*phi, stats.NewRNG(seed, 0))
		if err != nil {
			return nil, 0, err
		}
	}
	t := &Table{
		Title:   fmt.Sprintf("P(k) route cross-check (eta=%d, lambda=%g, phi=%g)", eta, lambda, phi),
		Columns: []string{"k", "analytic", "SAN renewal", "simulated"},
	}
	var worst float64
	for k := eta; k <= p.ActivePerPlane; k++ {
		if d := math.Abs(ana.P(k) - san.P(k)); d > worst {
			worst = d
		}
		simCell := "-"
		if sim != nil {
			simCell = fmt.Sprintf("%.4f", sim.P(k))
		}
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%d", k),
			fmt.Sprintf("%.6f", ana.P(k)),
			fmt.Sprintf("%.6f", san.P(k)),
			simCell,
		})
	}
	return t, worst, nil
}

// FullEarthCoverage samples the globe and reports the covered fraction
// and mean simultaneous-coverage multiplicity of the full constellation
// (the Figure 1 claim: full earth coverage with 98 active satellites),
// counting one ring of longitudes per latitude row and sample time with
// the fast coverage scanner.
func FullEarthCoverage(latStepDeg, lonStepDeg float64, sampleTimes []float64) (covered, meanMultiplicity float64, err error) {
	if latStepDeg <= 0 || lonStepDeg <= 0 {
		return 0, 0, fmt.Errorf("experiment: sampling steps must be positive")
	}
	if len(sampleTimes) == 0 {
		sampleTimes = []float64{0, 30, 60}
	}
	c, err := constellation.New(constellation.DefaultConfig())
	if err != nil {
		return 0, 0, err
	}
	sc := constellation.NewScanner(c)
	var samples, coveredCount, multSum int
	var lons []float64
	for lon := -180.0; lon < 180; lon += lonStepDeg {
		lons = append(lons, lon*math.Pi/180)
	}
	counts := make([]int, len(lons))
	for lat := -84.0; lat <= 84; lat += latStepDeg {
		for _, tm := range sampleTimes {
			sc.CoverageCounts(counts, lat*math.Pi/180, lons, tm)
			for _, n := range counts {
				samples++
				multSum += n
				if n > 0 {
					coveredCount++
				}
			}
		}
	}
	return float64(coveredCount) / float64(samples), float64(multSum) / float64(samples), nil
}
