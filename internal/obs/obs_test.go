package obs

import (
	"math"
	"sync"
	"testing"
)

func TestCounterBasics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("x_total", "help")
	c.Inc()
	c.Add(4)
	if got := c.Value(); got != 5 {
		t.Fatalf("Value = %d, want 5", got)
	}
	if r.Counter("x_total", "ignored") != c {
		t.Fatal("second Counter call returned a different metric")
	}
	c.Reset()
	if got := c.Value(); got != 0 {
		t.Fatalf("after Reset Value = %d, want 0", got)
	}
}

func TestGaugeSetMax(t *testing.T) {
	r := NewRegistry()
	g := r.Gauge("depth", "help")
	g.SetMax(7)
	g.SetMax(3)
	if got := g.Value(); got != 7 {
		t.Fatalf("Value = %d, want 7", got)
	}
	g.Set(2)
	g.Add(5)
	if got := g.Value(); got != 7 {
		t.Fatalf("Value = %d, want 7", got)
	}
}

func TestNilRegistryAndMetricsAreInert(t *testing.T) {
	var r *Registry
	c := r.Counter("a", "")
	g := r.Gauge("b", "")
	h := r.Histogram("c", "", DurationBuckets)
	if c != nil || g != nil || h != nil {
		t.Fatal("nil registry accessors must return nil metrics")
	}
	// None of these may panic, and all reads are zero.
	c.Inc()
	c.Add(3)
	g.Set(1)
	g.SetMax(2)
	g.Add(1)
	h.Observe(1)
	h.Reset()
	if c.Value() != 0 || g.Value() != 0 || h.Count() != 0 || h.Sum() != 0 {
		t.Fatal("nil metrics must read as zero")
	}
	if r.Len() != 0 {
		t.Fatal("nil registry Len must be 0")
	}
	r.Reset()
	r.Merge(NewRegistry())
	if err := r.WritePrometheus(discard{}); err != nil {
		t.Fatal(err)
	}
	if got := len(r.Snapshot().Metrics); got != 0 {
		t.Fatalf("nil registry snapshot has %d metrics", got)
	}
	timer := StartTimer(nil)
	if d := timer.ObserveDuration(); d != 0 {
		t.Fatalf("inert timer observed %v", d)
	}
}

type discard struct{}

func (discard) Write(p []byte) (int, error) { return len(p), nil }

func TestKindClashPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("m", "")
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on kind clash")
		}
	}()
	r.Gauge("m", "")
}

func TestHistogramBuckets(t *testing.T) {
	h := NewHistogram([]float64{1, 2, 5})
	for _, v := range []float64{0.5, 1, 1.5, 3, 10} {
		h.Observe(v)
	}
	want := []uint64{2, 1, 1, 1} // ≤1: {0.5,1}; ≤2: {1.5}; ≤5: {3}; +Inf: {10}
	for i, w := range want {
		if got := h.counts[i].Load(); got != w {
			t.Fatalf("bucket %d = %d, want %d", i, got, w)
		}
	}
	if got := h.Count(); got != 5 {
		t.Fatalf("Count = %d, want 5", got)
	}
	if got := h.Sum(); got != 16 {
		t.Fatalf("Sum = %g, want 16", got)
	}
}

func TestLocalHistogramMergeAndAddLocal(t *testing.T) {
	bounds := []float64{1, 10}
	a := NewLocalHistogram(bounds)
	b := NewLocalHistogram(bounds)
	a.Observe(0.5)
	a.Observe(5)
	b.Observe(100)
	a.Merge(b)
	if got := a.Count(); got != 3 {
		t.Fatalf("merged Count = %d, want 3", got)
	}
	if got := a.Sum(); got != 105.5 {
		t.Fatalf("merged Sum = %g, want 105.5", got)
	}
	h := NewHistogram(bounds)
	h.AddLocal(a)
	if got := h.Count(); got != 3 {
		t.Fatalf("AddLocal Count = %d, want 3", got)
	}
	if got := h.counts[2].Load(); got != 1 {
		t.Fatalf("overflow bucket = %d, want 1", got)
	}
}

func TestAddLocalBucketMismatchPanics(t *testing.T) {
	h := NewHistogram([]float64{1})
	l := NewLocalHistogram([]float64{1, 2})
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on bucket mismatch")
		}
	}()
	h.AddLocal(l)
}

func TestValidateBoundsPanics(t *testing.T) {
	for _, bad := range [][]float64{{}, {1, 1}, {2, 1}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("bounds %v: expected panic", bad)
				}
			}()
			NewHistogram(bad)
		}()
	}
}

func TestMergeSemantics(t *testing.T) {
	dst, src := NewRegistry(), NewRegistry()
	dst.Counter("c", "h").Add(2)
	src.Counter("c", "h").Add(3)
	dst.Gauge("g", "h").Set(5)
	src.Gauge("g", "h").Set(9)
	src.Histogram("hist", "h", []float64{1}).Observe(0.5)
	src.Counter("only_src", "h").Inc()
	dst.Merge(src)
	if got := dst.Counter("c", "").Value(); got != 5 {
		t.Fatalf("counter merge = %d, want 5", got)
	}
	if got := dst.Gauge("g", "").Value(); got != 9 {
		t.Fatalf("gauge merge = %d, want 9 (max)", got)
	}
	if got := dst.Histogram("hist", "", []float64{1}).Count(); got != 1 {
		t.Fatalf("histogram merge count = %d, want 1", got)
	}
	if got := dst.Counter("only_src", "").Value(); got != 1 {
		t.Fatalf("missing-metric merge = %d, want 1", got)
	}
}

func TestRegistryConcurrency(t *testing.T) {
	r := NewRegistry()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				r.Counter("shared_total", "h").Inc()
				r.Gauge("peak", "h").SetMax(int64(j))
				r.Histogram("lat", "h", DurationBuckets).Observe(float64(j) * 1e-4)
			}
		}()
	}
	wg.Wait()
	if got := r.Counter("shared_total", "").Value(); got != 8000 {
		t.Fatalf("concurrent counter = %d, want 8000", got)
	}
	if got := r.Gauge("peak", "").Value(); got != 999 {
		t.Fatalf("concurrent gauge max = %d, want 999", got)
	}
	if got := r.Histogram("lat", "", DurationBuckets).Count(); got != 8000 {
		t.Fatalf("concurrent histogram count = %d, want 8000", got)
	}
}

func TestTimerObservesIntoHistogram(t *testing.T) {
	h := NewHistogram(DurationBuckets)
	tm := StartTimer(h)
	if d := tm.ObserveDuration(); d <= 0 {
		t.Fatalf("ObserveDuration = %v, want > 0", d)
	}
	if got := h.Count(); got != 1 {
		t.Fatalf("histogram count = %d, want 1", got)
	}
}

func TestDefaultRegistryIsSingleton(t *testing.T) {
	if Default() != Default() {
		t.Fatal("Default must return the same registry")
	}
}

// Reset zeroes counts, sum, and exemplar, keeping the bucket layout.
func (h *Histogram) Reset() {
	if h == nil {
		return
	}
	for i := range h.counts {
		h.counts[i].Store(0)
	}
	h.sum.Store(0)
	h.exMu.Lock()
	h.exID, h.exVal, h.exSet = "", 0, false
	h.exMu.Unlock()
}

func (f *atomicFloat) Store(v float64) { f.bits.Store(math.Float64bits(v)) }

// Reset zeroes the gauge.
func (g *Gauge) Reset() {
	if g != nil {
		g.v.Store(0)
	}
}

// Reset zeroes every registered metric, keeping the registrations. It
// exists for tests; nil receiver is a no-op.
func (r *Registry) Reset() {
	if r == nil {
		return
	}
	for _, m := range r.metrics() {
		switch m.kind {
		case kindCounter:
			m.c.Reset()
		case kindGauge:
			m.g.Reset()
		case kindHistogram:
			m.h.Reset()
		}
	}
}

// TestLatencyQuantileInterpolation pins LocalHistogram.Quantile on
// hand-built histograms over MinuteBuckets: interpolation inside the
// crossing bucket, the overflow-bucket clamp, and the empty case.
func TestLatencyQuantileInterpolation(t *testing.T) {
	l := NewLocalHistogram(MinuteBuckets)
	for i := 0; i < 10; i++ {
		l.Observe(0.25) // bucket (0.1, 0.25]
		l.Observe(1.5)  // bucket (1, 1.5]
	}
	for _, c := range []struct{ q, want float64 }{
		{0, 0.1},      // rank 0 sits at the lower edge of the first occupied bucket
		{0.25, 0.175}, // rank 5 of 10 in (0.1, 0.25]
		{0.5, 0.25},   // rank 10: the top of (0.1, 0.25]
		{0.9, 1.4},    // rank 18: 8 of 10 into (1, 1.5]
		{0.99, 1.49},  // rank 19.8
		{1, 1.5},
	} {
		got, ok := l.Quantile(c.q)
		if !ok || got != c.want {
			t.Errorf("Quantile(%g) = %v, %v; want %v", c.q, got, ok, c.want)
		}
	}

	// Ranks past the last finite bound clamp to it: the overflow bucket
	// has no upper edge to interpolate towards.
	over := NewLocalHistogram(MinuteBuckets)
	over.Observe(5)
	over.Observe(60)
	over.Observe(math.NaN())
	for _, c := range []struct{ q, want float64 }{{0.3, 4.9}, {0.5, 10}, {0.99, 10}} {
		got, ok := over.Quantile(c.q)
		if !ok || got != c.want {
			t.Errorf("overflow: Quantile(%g) = %v, %v; want %v", c.q, got, ok, c.want)
		}
	}

	for name, empty := range map[string]*LocalHistogram{
		"empty": NewLocalHistogram(MinuteBuckets),
		"nil":   nil,
	} {
		if got, ok := empty.Quantile(0.5); ok || got != 0 {
			t.Errorf("%s histogram: Quantile = %v, %v; want 0, false", name, got, ok)
		}
	}
}
