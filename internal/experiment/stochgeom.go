package experiment

import (
	"fmt"
	"math"

	"satqos/internal/constellation"
	"satqos/internal/stochgeom"
)

// stochGeomLats are the target latitudes of the cross-validation grid,
// degrees: equator, the paper's mid-latitude band, and a high band
// near the polar presets' edge-of-coverage regime.
var stochGeomLats = []float64{0, 30, 60}

// stochGeomCell is one (preset, latitude) comparison: the analytic BPP
// visible-count distribution against the empirical distribution of the
// exact geometry engine sampled over time and longitude.
type stochGeomCell struct {
	preset   string
	latDeg   float64
	planes   int
	anaMean  float64
	empMean  float64
	anaCover float64
	empCover float64
	anaLoc   float64 // P(K >= 4)
	empLoc   float64
	tv       float64 // total-variation distance between the PMFs
	meanErr  float64 // relative mean error |ana − emp| / emp
}

// stochGeomSampling fixes the empirical sampling grid: lonSamples
// target longitudes × timeSamples times spread over several orbital
// periods, counted one ring of longitudes per time with
// Scanner.CoverageCounts. The counts are integers and each cell is
// evaluated serially, so the merged distribution — and the rendered
// table — is bit-identical at any Workers setting.
const (
	stochGeomLonSamples  = 16
	stochGeomTimeSamples = 256
	stochGeomPeriods     = 7
)

// StochGeomCheck cross-validates the stochastic-geometry backend
// against the exact fast coverage scanner on every constellation
// preset: for each preset and target latitude it compares the BPP
// visible-count law against the empirical time/longitude distribution
// of Scanner.CoverageCount, reporting means, coverage fractions, the
// localizability probability P(K ≥ 4), and the total-variation
// distance. The returned worst value is the largest relative mean
// error in the table — the golden-gated quantity, because E[K] = N·p
// is exact under the BPP marginal (Campbell's theorem) no matter how
// correlated the Walker lattice is, so any drift there is a bug, not
// an approximation.
//
// The table is the committed accuracy envelope: means agree to
// sampling precision everywhere, while the full PMF (the TV column)
// degrades exactly where the literature says the independence
// assumption breaks — the lattice's fixed per-plane counts make the
// visible count far less variable than a binomial, so coverage and
// localizability tails are conservative for few-plane designs and the
// TV distance is large even when every moment of interest is right.
func StochGeomCheck() (*Table, float64, error) {
	presets := constellation.PresetNames()
	type cellIn struct {
		preset string
		latDeg float64
	}
	var ins []cellIn
	for _, p := range presets {
		for _, lat := range stochGeomLats {
			ins = append(ins, cellIn{p, lat})
		}
	}
	cells, err := timedMapSlice(len(ins), func(i int, _ point) (stochGeomCell, error) {
		return stochGeomCompare(ins[i].preset, ins[i].latDeg)
	})
	if err != nil {
		return nil, 0, err
	}

	t := &Table{
		Title: "Stochastic-geometry backend vs exact geometry engine",
		Columns: []string{
			"preset", "lat", "planes",
			"mean bpp/geo", "mean err", "cover bpp/geo", "P(K>=4) bpp/geo", "TV dist",
		},
		Notes: []string{
			fmt.Sprintf("empirical law: %d longitudes x %d times over %d periods of Scanner.CoverageCount",
				stochGeomLonSamples, stochGeomTimeSamples, stochGeomPeriods),
			"gate: relative mean error (E[K] = N·p is exact under the BPP marginal)",
			"envelope: TV distance grows as planes shrink — the Walker lattice's negative correlations concentrate the count below binomial variance",
		},
	}
	var worst float64
	for _, c := range cells {
		if c.meanErr > worst {
			worst = c.meanErr
		}
		t.Rows = append(t.Rows, []string{
			c.preset,
			fmt.Sprintf("%.0f", c.latDeg),
			fmt.Sprintf("%d", c.planes),
			fmt.Sprintf("%.3f/%.3f", c.anaMean, c.empMean),
			fmt.Sprintf("%.2f%%", 100*c.meanErr),
			fmt.Sprintf("%.4f/%.4f", c.anaCover, c.empCover),
			fmt.Sprintf("%.4f/%.4f", c.anaLoc, c.empLoc),
			fmt.Sprintf("%.4f", c.tv),
		})
	}
	return t, worst, nil
}

// AnalyticEarthCoverage answers the coverage experiment's question from
// the stochastic-geometry backend instead of scanning satellite
// positions: the fraction of surface points (|lat| <= 84°, matching
// FullEarthCoverage's uniform latitude grid) with at least one
// satellite of the reference constellation in view, and the mean
// coverage multiplicity. One O(1) evaluation per latitude ring — the
// answer is exact in longitude and time because the BPP law already
// integrates over both.
func AnalyticEarthCoverage(latStepDeg float64) (covered, meanMultiplicity float64, err error) {
	if latStepDeg <= 0 {
		return 0, 0, fmt.Errorf("experiment: latitude step must be positive")
	}
	design, err := stochgeom.FromConfig(constellation.DefaultConfig())
	if err != nil {
		return 0, 0, err
	}
	var rings float64
	for lat := -84.0; lat <= 84; lat += latStepDeg {
		v, err := design.Evaluate(lat * math.Pi / 180)
		if err != nil {
			return 0, 0, err
		}
		covered += v.CoverageFraction()
		meanMultiplicity += v.Mean()
		rings++
	}
	return covered / rings, meanMultiplicity / rings, nil
}

// stochGeomCompare evaluates one (preset, latitude) cell.
func stochGeomCompare(preset string, latDeg float64) (stochGeomCell, error) {
	cfg, err := constellation.PresetConfig(preset)
	if err != nil {
		return stochGeomCell{}, err
	}
	design, err := stochgeom.FromConfig(cfg)
	if err != nil {
		return stochGeomCell{}, err
	}
	lat := latDeg * math.Pi / 180
	v, err := design.Evaluate(lat)
	if err != nil {
		return stochGeomCell{}, err
	}

	c, err := constellation.New(cfg)
	if err != nil {
		return stochGeomCell{}, err
	}
	sc := constellation.NewScanner(c)
	counts := make([]int, design.TotalSatellites()+1)
	horizon := stochGeomPeriods * cfg.PeriodMin
	var lons [stochGeomLonSamples]float64
	for li := range lons {
		lons[li] = 2 * math.Pi * float64(li) / stochGeomLonSamples
	}
	var ring [stochGeomLonSamples]int
	for ti := 0; ti < stochGeomTimeSamples; ti++ {
		sc.CoverageCounts(ring[:], lat, lons[:], horizon*float64(ti)/stochGeomTimeSamples)
		for _, n := range ring {
			counts[n]++
		}
	}
	const samples = stochGeomLonSamples * stochGeomTimeSamples

	cell := stochGeomCell{
		preset:   preset,
		latDeg:   latDeg,
		planes:   cfg.Planes,
		anaMean:  v.Mean(),
		anaCover: v.CoverageFraction(),
		anaLoc:   v.Localizability(4),
	}
	for k, n := range counts {
		emp := float64(n) / samples
		cell.empMean += float64(k) * emp
		if k >= 1 {
			cell.empCover += emp
		}
		if k >= 4 {
			cell.empLoc += emp
		}
		cell.tv += math.Abs(emp - v.P(k))
	}
	cell.tv /= 2
	if cell.empMean > 0 {
		cell.meanErr = math.Abs(cell.anaMean-cell.empMean) / cell.empMean
	} else {
		cell.meanErr = math.Abs(cell.anaMean)
	}
	return cell, nil
}
