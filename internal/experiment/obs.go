package experiment

import (
	"satqos/internal/oaq"
	"satqos/internal/obs"
	"satqos/internal/obs/trace"
	"satqos/internal/parallel"
)

// Metrics, when non-nil, receives the sweep drivers' wall-clock
// instrumentation (per-point timings) and, merged in point order after
// each sweep (see point), the simulation families of its points. Like
// Workers it is set once at startup (the CLIs wire it to obs.Default());
// it is not synchronized against mutation during a running sweep.
var Metrics *obs.Registry

// Tracing, when non-nil, is handed to the simulation experiments as
// their oaq.Params.Tracing configuration; each sweep cell derives a
// scoped copy (Config.WithScope) so retained traces name the cell that
// produced them. Like Metrics it is set once at startup by the CLIs and
// never mutated during a running sweep. Trace retention is a pure
// function of episode ordinals and outcomes, so enabling it does not
// perturb the deterministic sweep results.
var Tracing *trace.Config

// point is one sweep point's own registry (nil when Metrics is nil),
// which timedMapSlice merges into Metrics in point order: folding the
// concurrent points' float sums in completion order would tie the
// snapshot to the worker count.
type point struct{ metrics *obs.Registry }

// simulate runs one simulation of the point on the seeded workload
// shared by every point of its sweep (common random numbers). It
// publishes its protocol totals into the point's registry once, and
// retains traces under Tracing scoped to scope.
func (pt point) simulate(p oaq.Params, scope string, episodes int, seed uint64) (*oaq.Evaluation, error) {
	p.Metrics = pt.metrics
	p.Tracing = Tracing.WithScope(scope)
	return oaq.EvaluateParallel(p, episodes, seed, 1)
}

// timedMapSlice is parallel.MapSlice with per-point instrumentation:
// every sweep point (λ value, τ value, table cell) observes its
// wall-clock duration into experiment_sweep_point_seconds and bumps
// experiment_sweep_points_total. With Metrics nil it is exactly
// MapSlice.
func timedMapSlice[T any](n int, fn func(i int, pt point) (T, error)) ([]T, error) {
	if Metrics == nil {
		return parallel.MapSlice(Workers, n, func(i int) (T, error) { return fn(i, point{}) })
	}
	points := Metrics.Counter("experiment_sweep_points_total",
		"Sweep points evaluated across all experiment drivers.")
	hist := Metrics.Histogram("experiment_sweep_point_seconds",
		"Wall-clock time of one sweep point.", obs.DurationBuckets)
	regs := make([]*obs.Registry, n)
	out, err := parallel.MapSlice(Workers, n, func(i int) (T, error) {
		regs[i] = obs.NewRegistry()
		t := obs.StartTimer(hist)
		v, err := fn(i, point{regs[i]})
		t.ObserveDuration()
		points.Inc()
		return v, err
	})
	for _, r := range regs {
		Metrics.Merge(r)
	}
	return out, err
}

// mapSeries is the one sweep driver: it evaluates col for every point
// of sweep.X through timedMapSlice and appends one Series per name,
// series j holding element j of every point's column. Every column
// must have len(names) elements. It returns the completed sweep, or
// the first point's error.
func mapSeries(sweep *Sweep, names []string, col func(i int, pt point) ([]float64, error)) (*Sweep, error) {
	cols, err := timedMapSlice(len(sweep.X), col)
	if err != nil {
		return nil, err
	}
	for j, name := range names {
		values := make([]float64, len(cols))
		for i := range cols {
			values[i] = cols[i][j]
		}
		sweep.Series = append(sweep.Series, Series{Name: name, Values: values})
	}
	return sweep, nil
}
