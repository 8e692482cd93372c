package main

import (
	"context"
	"fmt"
	"math"
	"sync"

	"satqos/internal/capacity"
	"satqos/internal/constellation"
	"satqos/internal/oaq"
	"satqos/internal/obs"
	"satqos/internal/orbit"
	"satqos/internal/qos"
	"satqos/internal/qosd"
	"satqos/internal/stats"
	"satqos/internal/stochgeom"
)

// answer is the part of a served answer the replay reproduces.
type answer struct {
	PYGE     [qos.NumLevels]float64
	Mean     float64
	Covering int
}

// replayer recomputes served answers by calling each backend's public
// function directly, with the parameters the server derives from the
// request. It is the correctness oracle of the served workloads and,
// in the traced run, the source of the per-layer call timings.
type replayer struct {
	workers int
	sink    *obs.Registry // per-request registries are merged here

	mu     sync.Mutex
	exact  map[string]*constellation.Scanner
	shared map[string]*constellation.SharedScanner
}

func newReplayer(workers int) *replayer {
	return &replayer{
		workers: workers,
		sink:    obs.NewRegistry(),
		exact:   make(map[string]*constellation.Scanner),
		shared:  make(map[string]*constellation.SharedScanner),
	}
}

// scanners returns the preset's exact per-caller scanner (the oracle)
// and a shared read-mostly scanner (the served path, for timing).
func (r *replayer) scanners(preset string) (*constellation.Scanner, *constellation.SharedScanner, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if sc, ok := r.exact[preset]; ok {
		return sc, r.shared[preset], nil
	}
	cfg, err := constellation.PresetConfig(preset)
	if err != nil {
		return nil, nil, err
	}
	c, err := constellation.New(cfg)
	if err != nil {
		return nil, nil, err
	}
	shared, err := constellation.New(cfg)
	if err != nil {
		return nil, nil, err
	}
	r.exact[preset] = constellation.NewScanner(c)
	r.shared[preset] = constellation.NewSharedScanner(shared)
	return r.exact[preset], r.shared[preset], nil
}

// evalSetup mirrors the server's request resolution for the fields the
// generated requests use: the preset geometry, the analytic model and
// the protocol parameters.
type evalSetup struct {
	preset string
	cfg    constellation.Config
	geom   qos.Geometry
	model  qos.Model
	scheme qos.Scheme
	k      int
}

func resolveEval(req *qosd.Request) (*evalSetup, error) {
	s := &evalSetup{preset: req.Preset}
	if s.preset == "" {
		s.preset = constellation.PresetReference
	}
	var err error
	if s.cfg, err = constellation.PresetConfig(s.preset); err != nil {
		return nil, err
	}
	if s.geom, err = qos.NewGeometry(s.cfg.PeriodMin, s.cfg.CoverageTimeMin); err != nil {
		return nil, err
	}
	s.scheme = qos.SchemeOAQ
	if req.Scheme == "baq" {
		s.scheme = qos.SchemeBAQ
	}
	tau, mu, nu := req.TauMin, req.Mu, req.Nu
	if tau == 0 {
		tau = 5
	}
	if mu == 0 {
		mu = 0.5
	}
	if nu == 0 {
		nu = 30
	}
	if s.model, err = qos.NewModel(s.geom, tau, mu, nu); err != nil {
		return nil, err
	}
	s.k = req.K
	if s.k == 0 {
		if s.preset == constellation.PresetReference {
			s.k = 10
		} else {
			s.k = min(s.cfg.ActivePerPlane, s.geom.MaxTwoRegimeCapacity())
		}
	}
	return s, nil
}

func pmfAnswer(p qos.PMF) answer {
	a := answer{Mean: p.Mean()}
	for y := qos.Level(0); y < qos.NumLevels; y++ {
		a.PYGE[y] = p.CCDF(y)
	}
	return a
}

// replay recomputes o's answer. With a tracer, each layer call is
// recorded as a span linked to the client span `link`; the capacity
// memo cache is cleared first so capacity.Analytic times a cold solve.
func (r *replayer) replay(o *op, tr *tracer, phase string, link int64) (answer, error) {
	call := func(name string, fn func() error) error {
		sp := tr.start(name, phase, 0, -1)
		if sp != nil {
			sp.s.Link = link
		}
		err := fn()
		sp.end()
		return err
	}
	if o.Kind == kindCoverage {
		exact, shared, err := r.scanners(o.Cov.Preset)
		if err != nil {
			return answer{}, err
		}
		target := orbit.LatLon{Lat: o.Cov.LatDeg * math.Pi / 180, Lon: o.Cov.LonDeg * math.Pi / 180}
		var served int
		call("constellation.CoverageCount", func() error {
			served = shared.CoverageCount(target, o.Cov.TMin)
			return nil
		})
		n := exact.CoverageCount(target, o.Cov.TMin)
		if served != n {
			return answer{}, fmt.Errorf("shared scanner counts %d, exact scanner %d", served, n)
		}
		return answer{Covering: n}, nil
	}

	req := &o.Eval
	s, err := resolveEval(req)
	if err != nil {
		return answer{}, err
	}
	var pmf qos.PMF
	switch o.Kind {
	case kindAnalytic:
		if d := req.Deployment; d != nil {
			cp := capacity.Params{
				ActivePerPlane: s.cfg.ActivePerPlane,
				Spares:         s.cfg.SparesPerPlane,
				Eta:            d.Eta,
				LambdaPerHour:  d.LambdaPerHour,
				PhiHours:       d.PhiHours,
			}
			if tr != nil {
				capacity.ResetAnalyticCache()
			}
			var dist *capacity.Distribution
			if err := call("capacity.Analytic", func() (err error) { dist, err = cp.Analytic(); return err }); err != nil {
				return answer{}, err
			}
			err = call("qos.Compose", func() (err error) { pmf, err = s.model.Compose(s.scheme, dist); return err })
		} else {
			err = call("qos.ConditionalPMF", func() (err error) { pmf, err = s.model.ConditionalPMF(s.scheme, s.k); return err })
		}
	case kindStochGeom:
		var d stochgeom.Design
		if len(req.Shells) > 0 {
			for _, sp := range req.Shells {
				sh := stochgeom.Shell{N: sp.N, AltitudeKm: sp.AltitudeKm, InclinationDeg: sp.InclinationDeg}
				if sh.HalfAngle, err = stochgeom.HalfAngleFromElevationDeg(sp.AltitudeKm, sp.MinElevationDeg); err != nil {
					return answer{}, err
				}
				d.Shells = append(d.Shells, sh)
			}
		} else {
			sh, err := stochgeom.ShellFromConfig(s.cfg)
			if err != nil {
				return answer{}, err
			}
			d.Shells = []stochgeom.Shell{sh}
		}
		latDeg := 30.0
		if req.LatitudeDeg != nil {
			latDeg = *req.LatitudeDeg
		}
		var dist *capacity.Distribution
		if err := call("stochgeom.Evaluate", func() error {
			v, err := d.Evaluate(latDeg * math.Pi / 180)
			if err != nil {
				return err
			}
			dist, err = v.CapacityDistribution(1, s.geom.MaxTwoRegimeCapacity())
			return err
		}); err != nil {
			return answer{}, err
		}
		err = call("qos.Compose", func() (err error) { pmf, err = s.model.Compose(s.scheme, dist); return err })
	case kindMonteCarlo:
		p := oaq.ReferenceParams(s.k, s.scheme)
		p.Geom = s.geom
		p.TauMin = s.model.TauMin
		p.SignalDuration = stats.Exponential{Rate: s.model.Mu}
		p.ComputeTime = stats.Exponential{Rate: s.model.Nu}
		p.BackwardMessaging = req.Backward
		p.FailSilentProb = req.FailSilentProb
		p.MessageLossProb = req.LossProb
		p.RequestRetries = req.Retries
		reg := obs.NewRegistry()
		p.Metrics = reg
		var ev *oaq.Evaluation
		err = call("oaq.EvaluateParallelCtx", func() (err error) {
			ev, err = oaq.EvaluateParallelCtx(context.Background(), p, req.Episodes, req.Seed, r.workers)
			return err
		})
		if err == nil {
			pmf = ev.PMF
			call("obs.Merge", func() error { r.sink.Merge(reg); return nil })
		}
	default:
		return answer{}, fmt.Errorf("cannot replay a %q request", o.Kind)
	}
	if err != nil {
		return answer{}, err
	}
	return pmfAnswer(pmf), nil
}

// composeTol bounds the difference between a served stochgeom answer
// and its direct recomputation. capacity.NewClampedDistribution folds
// the visible-count mass outside the capacity support by iterating a
// map, so the summation order, and with it the last bits of the
// answer, varies from call to call; analytic, coverage and
// Monte-Carlo answers are compared exactly.
const composeTol = 1e-12

// compare reports whether the served answer is the replayed one.
func compare(o *op, got, want answer) error {
	if o.Kind == kindCoverage {
		if got.Covering != want.Covering {
			return fmt.Errorf("%s: served covering=%d, scanner gives %d", o.Path, got.Covering, want.Covering)
		}
		return nil
	}
	same := got.PYGE == want.PYGE && got.Mean == want.Mean
	if !same && o.Kind == kindStochGeom {
		same = math.Abs(got.Mean-want.Mean) <= composeTol
		for y := range got.PYGE {
			same = same && math.Abs(got.PYGE[y]-want.PYGE[y]) <= composeTol
		}
	}
	if !same {
		return fmt.Errorf("%s %s: served P(Y>=y)=%v mean=%v, direct call gives %v mean=%v",
			o.Kind, o.Body, got.PYGE, got.Mean, want.PYGE, want.Mean)
	}
	return nil
}
