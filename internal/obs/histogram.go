package obs

import (
	"fmt"
	"math"
	"strconv"
	"sync"
	"sync/atomic"
)

// Histogram is a fixed-bucket distribution: cumulative-style bucket
// counts over explicit upper bounds plus an overflow (+Inf) bucket, a
// float sum, and a total count. Observations are atomic, so concurrent
// observers are safe; note that concurrent float-sum updates commute
// only approximately (CAS-add order is scheduler-dependent), which is
// why the deterministic engines accumulate into per-shard
// LocalHistograms and publish once in shard order instead.
//
// All methods are no-ops (or zero) on a nil receiver.
type Histogram struct {
	bounds []float64       // strictly increasing upper bounds
	counts []atomic.Uint64 // len(bounds)+1; last is the +Inf bucket
	sum    atomicFloat
	// exemplar links the distribution to a trace: the ID of an episode
	// that produced a maximal observation (see SetExemplar). Mutex-free
	// reads are not needed on the hot path — exemplars are installed at
	// publish time, not per observation — so a plain mutexed pair is
	// enough.
	exMu  sync.Mutex
	exID  string
	exVal float64
	exSet bool
}

// validateBounds panics unless the upper bounds are finite, non-empty,
// and strictly increasing — histogram construction is wiring, and a bad
// bucket layout is a programming error.
func validateBounds(bounds []float64) {
	if len(bounds) == 0 {
		panic("obs: histogram needs at least one bucket bound")
	}
	for i, b := range bounds {
		if math.IsNaN(b) || math.IsInf(b, 0) {
			panic(fmt.Sprintf("obs: non-finite bucket bound %g", b))
		}
		if i > 0 && b <= bounds[i-1] {
			panic(fmt.Sprintf("obs: bucket bounds not strictly increasing at %g", b))
		}
	}
}

// NewHistogram builds a histogram over the given upper bounds (the
// overflow bucket is implicit). The bounds slice is copied.
func NewHistogram(bounds []float64) *Histogram {
	validateBounds(bounds)
	return &Histogram{
		bounds: append([]float64(nil), bounds...),
		counts: make([]atomic.Uint64, len(bounds)+1),
	}
}

// bucketIndex returns the index of the first bound >= v (the overflow
// bucket when none is). Bucket arrays here are small (tens of bounds at
// most), so a linear scan beats binary search in practice.
func bucketIndex(bounds []float64, v float64) int {
	for i, b := range bounds {
		if v <= b {
			return i
		}
	}
	return len(bounds)
}

// Observe records one value. A non-finite value (NaN or ±Inf) is
// counted in the overflow bucket but excluded from the sum: one such
// observation would otherwise poison the sum forever and make the JSON
// snapshot unmarshalable (encoding/json rejects non-finite floats).
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	if math.IsNaN(v) || math.IsInf(v, 0) {
		h.counts[len(h.counts)-1].Add(1)
		return
	}
	h.counts[bucketIndex(h.bounds, v)].Add(1)
	h.sum.Add(v)
}

// Count returns the total number of observations.
func (h *Histogram) Count() uint64 {
	if h == nil {
		return 0
	}
	var n uint64
	for i := range h.counts {
		n += h.counts[i].Load()
	}
	return n
}

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return h.sum.Load()
}

// SetExemplar links the histogram to the trace ID of an observation,
// keeping the exemplar with the largest value across calls (ties keep
// the incumbent, so folding shards in order is deterministic).
func (h *Histogram) SetExemplar(id string, v float64) {
	if h == nil || id == "" || math.IsNaN(v) || math.IsInf(v, 0) {
		return
	}
	h.exMu.Lock()
	if !h.exSet || v > h.exVal {
		h.exID, h.exVal, h.exSet = id, v, true
	}
	h.exMu.Unlock()
}

// Exemplar returns the linked trace ID and value, if any.
func (h *Histogram) Exemplar() (id string, v float64, ok bool) {
	if h == nil {
		return "", 0, false
	}
	h.exMu.Lock()
	defer h.exMu.Unlock()
	return h.exID, h.exVal, h.exSet
}

// AddLocal folds a per-shard LocalHistogram into h. The local histogram
// must have been created over the same bounds; a mismatch is a wiring
// bug and panics. Calling AddLocal once per shard, in shard order, keeps
// the float sum identical to a sequential run's.
func (h *Histogram) AddLocal(l *LocalHistogram) {
	if h == nil || l == nil {
		return
	}
	if len(l.bounds) != len(h.bounds) {
		panic(fmt.Sprintf("obs: AddLocal bucket mismatch: %d vs %d", len(l.bounds), len(h.bounds)))
	}
	for i, n := range l.buckets() {
		if n > 0 {
			h.counts[i].Add(n)
		}
	}
	h.sum.Add(l.sum)
	if l.exSet {
		h.SetExemplar("ep-"+strconv.FormatUint(l.exOrd, 10), l.exVal)
	}
}

// merge folds another Histogram (same layout) into h; used by
// Registry.Merge.
func (h *Histogram) merge(o *Histogram) {
	if h == nil || o == nil {
		return
	}
	if len(o.counts) != len(h.counts) {
		panic(fmt.Sprintf("obs: merge bucket mismatch: %d vs %d", len(o.counts)-1, len(h.counts)-1))
	}
	for i := range o.counts {
		if n := o.counts[i].Load(); n > 0 {
			h.counts[i].Add(n)
		}
	}
	h.sum.Add(o.sum.Load())
	if id, v, ok := o.Exemplar(); ok {
		h.SetExemplar(id, v)
	}
}

// LocalHistogram is the single-goroutine counterpart of Histogram: plain
// fields, no atomics, no locks. Each Monte-Carlo shard owns its locals
// and the engine folds them in shard order (Merge) before one AddLocal
// into the shared registry — the pattern that keeps metric snapshots
// bit-identical at any worker count. Observe performs no allocations, and
// the counts live inline, so an accumulator can hold a LocalHistogram by
// value (*NewLocalHistogram(b)) at no allocation of its own.
type LocalHistogram struct {
	bounds []float64
	counts [maxLocalBounds + 1]uint64 // buckets() holds the live ones
	sum    float64
	// Exemplar state: the episode ordinal of the largest finite
	// observation so far (see ObserveExemplar). Strictly-greater updates
	// keep the first-seen ordinal on ties, so folding shards in shard
	// order yields the same exemplar at any worker count.
	exSet bool
	exVal float64
	exOrd uint64
}

// maxLocalBounds is the most bucket bounds a LocalHistogram takes.
const maxLocalBounds = 31

// NewLocalHistogram builds a local histogram over the given upper
// bounds, at most maxLocalBounds of them. The bounds slice is retained
// (not copied): shards share one package-level bounds slice so their
// locals are mergeable by construction.
func NewLocalHistogram(bounds []float64) *LocalHistogram {
	validateBounds(bounds)
	if len(bounds) > maxLocalBounds {
		panic("obs: too many bucket bounds for a local histogram")
	}
	return &LocalHistogram{bounds: bounds}
}

// buckets returns the live counts: one per bound, then the overflow
// bucket.
func (l *LocalHistogram) buckets() []uint64 { return l.counts[:len(l.bounds)+1] }

// Observe records one value. Non-finite values are counted in the
// overflow bucket and excluded from the sum, as in Histogram.Observe.
func (l *LocalHistogram) Observe(v float64) {
	if l == nil {
		return
	}
	if math.IsNaN(v) || math.IsInf(v, 0) {
		l.counts[len(l.bounds)]++
		return
	}
	l.counts[bucketIndex(l.bounds, v)]++
	l.sum += v
}

// ObserveExemplar records one value like Observe and additionally
// tracks the episode ordinal of the largest finite observation, which
// AddLocal publishes as the histogram's trace exemplar ("ep-<ordinal>").
// The comparison is strictly greater-than: on equal values the earliest
// recorded ordinal wins, which (with shard-ordered merges) makes the
// exemplar independent of the worker count. No allocations.
func (l *LocalHistogram) ObserveExemplar(v float64, ord uint64) {
	if l == nil {
		return
	}
	l.Observe(v)
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return
	}
	if !l.exSet || v > l.exVal {
		l.exSet, l.exVal, l.exOrd = true, v, ord
	}
}

// Count returns the total number of observations.
func (l *LocalHistogram) Count() uint64 {
	if l == nil {
		return 0
	}
	var n uint64
	for _, c := range l.buckets() {
		n += c
	}
	return n
}

// Sum returns the sum of observed values.
func (l *LocalHistogram) Sum() float64 {
	if l == nil {
		return 0
	}
	return l.sum
}

// Quantile returns the q-quantile estimate, linearly interpolated
// inside the bucket that crosses rank q·Count(); the first bucket starts
// at 0. The overflow bucket clamps to its lower bound, the honest answer
// when the histogram cannot see past it. ok is false when l is empty.
func (l *LocalHistogram) Quantile(q float64) (v float64, ok bool) {
	total := l.Count()
	if total == 0 {
		return 0, false
	}
	rank := q * float64(total)
	var cum uint64
	lower := 0.0
	for i, b := range l.bounds {
		n := l.counts[i]
		if n > 0 && float64(cum+n) >= rank {
			frac := min(max((rank-float64(cum))/float64(n), 0), 1)
			return lower + (b-lower)*frac, true
		}
		cum += n
		lower = b
	}
	return lower, true
}

// Merge folds another local histogram (same bucket layout) into l.
func (l *LocalHistogram) Merge(o *LocalHistogram) {
	if l == nil || o == nil {
		return
	}
	if len(o.bounds) != len(l.bounds) {
		panic(fmt.Sprintf("obs: Merge bucket mismatch: %d vs %d", len(o.bounds), len(l.bounds)))
	}
	for i, n := range o.buckets() {
		l.counts[i] += n
	}
	l.sum += o.sum
	if o.exSet && (!l.exSet || o.exVal > l.exVal) {
		l.exSet, l.exVal, l.exOrd = true, o.exVal, o.exOrd
	}
}

// atomicFloat is a float64 with atomic add via CAS on its bits.
type atomicFloat struct{ bits atomic.Uint64 }

func (f *atomicFloat) Add(v float64) {
	for {
		old := f.bits.Load()
		if f.bits.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+v)) {
			return
		}
	}
}

func (f *atomicFloat) Load() float64 { return math.Float64frombits(f.bits.Load()) }

// DurationBuckets is the default bucket layout for wall-clock seconds:
// half-decade steps from 100µs to 100s. Callers must not mutate it.
var DurationBuckets = []float64{1e-4, 3e-4, 1e-3, 3e-3, 1e-2, 3e-2, 0.1, 0.3, 1, 3, 10, 30, 100}

// MinuteBuckets is the default bucket layout for simulated minutes
// (alert latencies, crosslink delays under the paper's τ = 5 scale).
// Callers must not mutate it.
var MinuteBuckets = []float64{0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 1.5, 2, 3, 4, 5, 7.5, 10}
