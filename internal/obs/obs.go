// Package obs is the repository's metrics and runtime-introspection
// layer: a dependency-free registry of named counters, gauges, and
// fixed-bucket histograms with two exposition formats (Prometheus text
// and a stable JSON snapshot).
//
// Two design constraints shape the API:
//
//   - Determinism. The simulation engines guarantee bit-identical
//     results at any worker count, and instrumentation must not erode
//     that: metrics never read the RNG, never reorder events, and the
//     per-shard accumulators (LocalHistogram, plain counters in the
//     instrumented components) are merged in shard order before a single
//     publish into a Registry — so a metric snapshot of a deterministic
//     evaluation is itself deterministic.
//
//   - Zero cost when disabled. Every Registry accessor is nil-receiver
//     safe and returns a nil metric, and every metric method is a no-op
//     on a nil receiver, so instrumented code needs no guards and the
//     disabled path performs no allocations and no atomic operations.
//
// Registered metrics are identified by their full name. Names follow
// Prometheus conventions (`des_events_fired_total`); a name may carry a
// static label block verbatim (`oaq_trace_events_total{kind="timeout"}`),
// which the Prometheus exposition passes through unchanged.
package obs

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Counter is a monotonically increasing metric. All methods are safe
// for concurrent use and are no-ops on a nil receiver.
type Counter struct{ v atomic.Uint64 }

// Inc adds one.
func (c *Counter) Inc() {
	if c != nil {
		c.v.Add(1)
	}
}

// Add adds n.
func (c *Counter) Add(n uint64) {
	if c != nil {
		c.v.Add(n)
	}
}

// Value returns the current count (0 on a nil receiver).
func (c *Counter) Value() uint64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Reset zeroes the counter. It exists for tests and for shims that keep
// pre-registry reset semantics (capacity.ResetAnalyticCache); production
// counters are expected to be monotone.
func (c *Counter) Reset() {
	if c != nil {
		c.v.Store(0)
	}
}

// Gauge is an instantaneous or high-watermark value. Gauges in this
// repository record levels and watermarks (maximum heap depth, effective
// worker count), so Registry.Merge combines gauges by maximum. All
// methods are safe for concurrent use and no-ops on a nil receiver.
type Gauge struct{ v atomic.Int64 }

// Set stores v.
func (g *Gauge) Set(v int64) {
	if g != nil {
		g.v.Store(v)
	}
}

// SetMax raises the gauge to v if v is greater than the current value.
func (g *Gauge) SetMax(v int64) {
	if g == nil {
		return
	}
	for {
		cur := g.v.Load()
		if v <= cur || g.v.CompareAndSwap(cur, v) {
			return
		}
	}
}

// Add adds d (negative d decrements).
func (g *Gauge) Add(d int64) {
	if g != nil {
		g.v.Add(d)
	}
}

// Value returns the current value (0 on a nil receiver).
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// metricKind discriminates the registry's metric union.
type metricKind uint8

const (
	kindCounter metricKind = iota
	kindGauge
	kindHistogram
)

func (k metricKind) String() string {
	switch k {
	case kindCounter:
		return "counter"
	case kindGauge:
		return "gauge"
	case kindHistogram:
		return "histogram"
	default:
		return fmt.Sprintf("metricKind(%d)", int(k))
	}
}

// metric is one registered entry.
type metric struct {
	name string
	help string
	kind metricKind
	c    *Counter
	g    *Gauge
	h    *Histogram
}

// Registry is a named collection of metrics. Accessors are idempotent —
// the first call with a name creates the metric, later calls return the
// same one — and all methods are safe for concurrent use. A nil
// *Registry is a valid "disabled" registry: its accessors return nil
// metrics whose methods are no-ops.
type Registry struct {
	mu     sync.Mutex
	byName map[string]*metric
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{byName: make(map[string]*metric)}
}

// defaultRegistry is the process-global registry behind Default.
var defaultRegistry = NewRegistry()

// Default returns the process-global registry: the home of metrics that
// outlive any single evaluation (the memoized capacity cache, the
// parallel engine's wall-clock timings) and the registry the CLIs'
// -metrics and -pprof flags expose.
func Default() *Registry { return defaultRegistry }

// lookup returns the named metric, creating it with create on first use
// and panicking on a kind clash (a wiring bug, not a runtime condition).
func (r *Registry) lookup(name, help string, kind metricKind, create func() *metric) *metric {
	r.mu.Lock()
	defer r.mu.Unlock()
	if m, ok := r.byName[name]; ok {
		if m.kind != kind {
			panic(fmt.Sprintf("obs: metric %q registered as %v, requested as %v", name, m.kind, kind))
		}
		return m
	}
	m := create()
	m.name, m.help, m.kind = name, help, kind
	r.byName[name] = m
	return m
}

// Counter returns the named counter, registering it on first use. Nil
// receiver: returns nil.
func (r *Registry) Counter(name, help string) *Counter {
	if r == nil {
		return nil
	}
	return r.lookup(name, help, kindCounter, func() *metric { return &metric{c: &Counter{}} }).c
}

// Gauge returns the named gauge, registering it on first use. Nil
// receiver: returns nil.
func (r *Registry) Gauge(name, help string) *Gauge {
	if r == nil {
		return nil
	}
	return r.lookup(name, help, kindGauge, func() *metric { return &metric{g: &Gauge{}} }).g
}

// Histogram returns the named histogram, registering it on first use
// with the given bucket upper bounds (see NewLocalHistogram for the
// bound rules). Later calls ignore the bounds argument and return the
// existing histogram. Nil receiver: returns nil.
func (r *Registry) Histogram(name, help string, bounds []float64) *Histogram {
	if r == nil {
		return nil
	}
	return r.lookup(name, help, kindHistogram, func() *metric { return &metric{h: NewHistogram(bounds)} }).h
}

// metrics returns the registered metrics sorted by name.
func (r *Registry) metrics() []*metric {
	r.mu.Lock()
	out := make([]*metric, 0, len(r.byName))
	for _, m := range r.byName {
		out = append(out, m)
	}
	r.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].name < out[j].name })
	return out
}

// Len returns the number of registered metrics (0 on a nil receiver).
func (r *Registry) Len() int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.byName)
}

// Merge folds every metric of src into r, creating missing metrics with
// src's help text and bucket bounds: counters and histograms add, gauges
// combine by maximum (they are watermarks here). Merging shard-local
// registries in shard order reproduces a sequential run's registry
// exactly. Nil src or nil r is a no-op.
func (r *Registry) Merge(src *Registry) {
	if r == nil || src == nil {
		return
	}
	for _, m := range src.metrics() {
		switch m.kind {
		case kindCounter:
			r.Counter(m.name, m.help).Add(m.c.Value())
		case kindGauge:
			r.Gauge(m.name, m.help).SetMax(m.g.Value())
		case kindHistogram:
			r.Histogram(m.name, m.help, m.h.bounds).merge(m.h)
		}
	}
}

// Timer measures a wall-clock duration into a histogram of seconds.
// StartTimer on a nil histogram returns an inert timer that never reads
// the clock, so disabled instrumentation costs a nil check only.
type Timer struct {
	start time.Time
	h     *Histogram
}

// StartTimer starts timing into h.
func StartTimer(h *Histogram) Timer {
	if h == nil {
		return Timer{}
	}
	return Timer{start: time.Now(), h: h}
}

// ObserveDuration records the elapsed seconds and returns the duration
// (0 for an inert timer).
func (t Timer) ObserveDuration() time.Duration {
	if t.h == nil {
		return 0
	}
	d := time.Since(t.start)
	t.h.Observe(d.Seconds())
	return d
}
