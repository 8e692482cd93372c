package main

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand/v2"
	"net/url"
	"sort"
	"strconv"

	"satqos/internal/constellation"
	"satqos/internal/qosd"
)

// Operation kinds of the served workloads.
const (
	kindAnalytic   = "analytic"
	kindStochGeom  = "stochgeom"
	kindCoverage   = "coverage"
	kindMonteCarlo = "montecarlo"
)

// coverageQuery is one GET /v1/coverage target.
type coverageQuery struct {
	Preset string
	LatDeg float64
	LonDeg float64
	TMin   float64
}

// op is one generated request: its kind, the parameters the checker
// replays, and the exact bytes the client sends.
type op struct {
	Kind string
	Eval qosd.Request // evaluate requests
	Cov  coverageQuery
	Path string // request path with query
	Body []byte // POST body; nil for GET
	// Check marks the answers the checker replays through the layer's
	// public function after the timed phase.
	Check bool
}

// mix produces the request sequence of a served workload: request i
// is a pure function of (seed, i), so any number of clients pulling
// indices from a shared counter replay the same sequence.
type mix interface {
	op(i uint64) *op
}

// splitmix64 is the finalizer used to derive per-index randomness.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// indexRNG returns the generator of request i under seed.
func indexRNG(seed, i uint64) *rand.Rand {
	return rand.New(rand.NewPCG(splitmix64(seed), splitmix64(seed^splitmix64(i+1))))
}

// unit maps a hash to [0, 1).
func unit(h uint64) float64 { return float64(h>>11) / (1 << 53) }

// roundTo rounds v to a multiple of step (keeps parameter grids finite
// and query strings short).
func roundTo(v, step float64) float64 { return math.Round(v/step) * step }

func (o *op) finish() *op {
	if o.Kind == kindCoverage {
		q := url.Values{}
		q.Set("preset", o.Cov.Preset)
		q.Set("lat_deg", strconv.FormatFloat(o.Cov.LatDeg, 'g', -1, 64))
		q.Set("lon_deg", strconv.FormatFloat(o.Cov.LonDeg, 'g', -1, 64))
		q.Set("t_min", strconv.FormatFloat(o.Cov.TMin, 'g', -1, 64))
		o.Path = "/v1/coverage?" + q.Encode()
		return o
	}
	body, err := json.Marshal(&o.Eval)
	if err != nil {
		panic(fmt.Sprintf("encoding a generated request: %v", err)) // a Request always encodes
	}
	o.Path = "/v1/evaluate"
	o.Body = body
	return o
}

// Closed-form mix parameters: the key pool is eight times the server's
// default 256-entry response cache and is drawn with a Zipf skew, so
// both hits and evictions happen.
const (
	closedFormPool    = 2048
	closedFormZipfS   = 1.0
	closedFormCheckIn = 32 // one answer in this many is replayed and compared
)

// deploymentLambdas is the finite λ grid of deployment requests: the
// capacity memo cache is unbounded by design, so an unbounded λ draw
// would grow it for the whole run.
var deploymentLambdas = []float64{1e-5, 2e-5, 3e-5, 4e-5, 5e-5, 6e-5, 7e-5, 8e-5, 9e-5, 1e-4}

// closedFormMix is the serve-closed-form request sequence: a seeded
// pool of distinct analytic, stochgeom and coverage requests (a third
// each), indexed through a Zipf-skewed rank per request.
type closedFormMix struct {
	seed uint64
	pool []*op
	cdf  []float64 // cumulative Zipf weights over pool ranks
}

func newClosedFormMix(seed uint64) *closedFormMix {
	rng := rand.New(rand.NewPCG(seed, 0xc105ed))
	presets := constellation.PresetNames()
	seen := make(map[string]bool)
	m := &closedFormMix{seed: seed}
	// The pool is ordered by popularity rank. The kind, and within a
	// kind the preset and variant, cycle with the rank, so every seed
	// puts the same Zipf mass on each: the slowest answers (an
	// uncached stochgeom design) sit near the 99th latency percentile,
	// which would otherwise move with the seed's share of them.
	for r := 0; len(m.pool) < closedFormPool; {
		var o *op
		switch r % 3 {
		case 0:
			o = analyticOp(rng, (r/3)%2 == 0)
		case 1:
			o = stochGeomOp(rng, presets, r/3)
		default:
			o = coverageOp(rng, presets[(r/3)%len(presets)])
		}
		o.finish()
		key := o.Path + string(o.Body)
		if seen[key] {
			// Every kind's parameter grid holds several times its share
			// of the pool, so redraws end quickly.
			continue
		}
		seen[key] = true
		m.pool = append(m.pool, o)
		r++
	}
	m.cdf = make([]float64, closedFormPool)
	total := 0.0
	for r := range m.cdf {
		total += 1 / math.Pow(float64(r+1), closedFormZipfS)
		m.cdf[r] = total
	}
	for r := range m.cdf {
		m.cdf[r] /= total
	}
	return m
}

func analyticOp(rng *rand.Rand, deploy bool) *op {
	req := qosd.Request{
		Mode:   qosd.ModeAnalytic,
		Preset: constellation.PresetReference,
		K:      5 + rng.IntN(10),
		Scheme: []string{"oaq", "baq"}[rng.IntN(2)],
		TauMin: roundTo(3+5*rng.Float64(), 0.5),
		Mu:     []float64{0.25, 0.5, 1}[rng.IntN(3)],
		Nu:     []float64{15, 30, 60}[rng.IntN(3)],
	}
	if deploy {
		req.Deployment = &qosd.Deployment{
			Eta:           9 + rng.IntN(4),
			LambdaPerHour: deploymentLambdas[rng.IntN(len(deploymentLambdas))],
			PhiHours:      float64(10000 * (1 + rng.IntN(3))),
		}
	}
	return &op{Kind: kindAnalytic, Eval: req}
}

// stochGeomOp draws the j-th stochgeom request of the pool: the preset
// cycles with j, half the starlink requests are spelled as auto (which
// resolves to the stochgeom backend on the largest fleet), and one in
// thirty is an explicit LEO/MEO hybrid, which no preset describes.
func stochGeomOp(rng *rand.Rand, presets []string, j int) *op {
	lat := roundTo(70*rng.Float64(), 0.5)
	req := qosd.Request{
		Mode:        qosd.ModeStochGeom,
		Preset:      presets[j%len(presets)],
		Scheme:      []string{"oaq", "baq"}[rng.IntN(2)],
		LatitudeDeg: &lat,
	}
	switch {
	case j%30 == 29:
		req.Preset = ""
		req.Shells = []qosd.ShellSpec{
			{N: 400 + 100*rng.IntN(9), AltitudeKm: 550, InclinationDeg: 53, MinElevationDeg: 25},
			{N: 12 + 6*rng.IntN(4), AltitudeKm: 8000, InclinationDeg: 55, MinElevationDeg: 10},
		}
	case req.Preset == constellation.PresetStarlink && j%10 >= 5:
		req.Mode = qosd.ModeAuto
	}
	return &op{Kind: kindStochGeom, Eval: req}
}

func coverageOp(rng *rand.Rand, preset string) *op {
	return &op{Kind: kindCoverage, Cov: coverageQuery{
		Preset: preset,
		LatDeg: roundTo(-70+140*rng.Float64(), 0.01),
		LonDeg: roundTo(-180+360*rng.Float64(), 0.01),
		TMin:   roundTo(1440*rng.Float64(), 0.01),
	}}
}

func (m *closedFormMix) op(i uint64) *op {
	h := splitmix64(m.seed ^ splitmix64(i+1))
	rank := sort.SearchFloat64s(m.cdf, unit(h))
	if rank >= len(m.pool) {
		rank = len(m.pool) - 1
	}
	o := *m.pool[rank]
	o.Check = splitmix64(h)%closedFormCheckIn == 0
	return &o
}

// Monte-Carlo mix parameters: episode budgets are log-uniform over
// [mcMinEpisodes, mcMaxEpisodes] and every request carries its own
// seed, so no answer is ever served from the cache.
const (
	mcMinEpisodes = 2000
	mcMaxEpisodes = 20000
	mcCheckIn     = 8
)

// monteCarloMix is the serve-montecarlo request sequence. Requests
// split into thirds: clean, lossy with retries, and fail-silent with
// backward messaging.
type monteCarloMix struct{ seed uint64 }

func (m monteCarloMix) op(i uint64) *op {
	rng := indexRNG(m.seed, i)
	req := qosd.Request{
		Mode:     qosd.ModeMonteCarlo,
		Preset:   constellation.PresetReference,
		K:        8 + rng.IntN(7),
		Scheme:   []string{"oaq", "baq"}[rng.IntN(2)],
		Episodes: int(math.Round(math.Exp(math.Log(mcMinEpisodes) + rng.Float64()*math.Log(mcMaxEpisodes/mcMinEpisodes)))),
		Seed:     splitmix64(m.seed^0x5eed^i) | 1,
	}
	if rng.IntN(4) == 0 {
		// Auto on the reference fleet resolves to the episode engine.
		req.Mode = qosd.ModeAuto
	}
	switch i % 3 {
	case 1:
		req.LossProb = roundTo(0.05+0.25*rng.Float64(), 0.01)
		req.Retries = 1 + rng.IntN(2)
	case 2:
		req.FailSilentProb = roundTo(0.02+0.13*rng.Float64(), 0.01)
		req.Backward = true
	}
	o := &op{Kind: kindMonteCarlo, Eval: req, Check: rng.IntN(mcCheckIn) == 0}
	return o.finish()
}
