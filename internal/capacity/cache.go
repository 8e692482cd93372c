package capacity

import (
	"sync"

	"satqos/internal/obs"
)

// The memoized Analytic cache. Params is a small comparable value (three
// ints, two floats) and serves directly as the key, so any two calls
// with the same plane design, policies, λ and φ share one solve. A
// Distribution is immutable after construction, which makes the cached
// pointer safe to hand to every caller, including concurrent sweep
// workers.
//
// The cache is unbounded by design: a sweep touches one entry per grid
// point (tens, not millions), and each entry is a few hundred bytes.
// Long-running processes that generate unbounded distinct Params can
// call ResetAnalyticCache to release the entries.
var analyticCache = struct {
	sync.RWMutex
	m map[Params]*Distribution
}{m: make(map[Params]*Distribution)}

// The hit/miss counters live on the process-global metric registry
// (scraped by the CLIs' -metrics/-pprof surfaces); AnalyticCacheStats
// remains as a shim over them.
var (
	cacheHits = obs.Default().Counter("capacity_analytic_cache_hits_total",
		"Memoized Analytic capacity solves served from the cache.")
	cacheMisses = obs.Default().Counter("capacity_analytic_cache_misses_total",
		"Analytic capacity solves performed (cache misses).")
)

// analyticCached consults the memo before solving. Under a concurrent
// first miss for the same Params both goroutines solve, but only one
// result is installed and both return it — the loser's duplicate work is
// the price of not holding a lock across a solve.
func (p Params) analyticCached() (*Distribution, error) {
	analyticCache.RLock()
	d, ok := analyticCache.m[p]
	analyticCache.RUnlock()
	if ok {
		cacheHits.Inc()
		return d, nil
	}
	d, _, err := p.uniformized()
	if err != nil {
		// Invalid Params fail fast on every call; not worth caching.
		return nil, err
	}
	cacheMisses.Inc()
	analyticCache.Lock()
	if prev, ok := analyticCache.m[p]; ok {
		d = prev
	} else {
		analyticCache.m[p] = d
	}
	analyticCache.Unlock()
	return d, nil
}

// AnalyticCacheStats returns the cumulative hit and miss counters of the
// memoized Analytic cache (a miss is a completed solve). It is a shim
// over the capacity_analytic_cache_{hits,misses}_total counters of
// obs.Default(), kept for callers predating the metrics registry.
func AnalyticCacheStats() (hits, misses uint64) {
	return cacheHits.Value(), cacheMisses.Value()
}

// ResetAnalyticCache drops every memoized distribution and zeroes the
// hit/miss counters.
func ResetAnalyticCache() {
	analyticCache.Lock()
	analyticCache.m = make(map[Params]*Distribution)
	analyticCache.Unlock()
	cacheHits.Reset()
	cacheMisses.Reset()
}
