package capacity

import (
	"math"
	"sync"
	"testing"
)

func TestAnalyticCacheHitsAndMisses(t *testing.T) {
	ResetAnalyticCache()
	defer ResetAnalyticCache()

	p := ReferenceParams(10, 5e-5, 30000)
	first, err := p.Analytic()
	if err != nil {
		t.Fatal(err)
	}
	if hits, misses := AnalyticCacheStats(); hits != 0 || misses != 1 {
		t.Fatalf("after first solve: hits=%d misses=%d, want 0/1", hits, misses)
	}
	second, err := p.Analytic()
	if err != nil {
		t.Fatal(err)
	}
	if hits, misses := AnalyticCacheStats(); hits != 1 || misses != 1 {
		t.Fatalf("after repeat: hits=%d misses=%d, want 1/1", hits, misses)
	}
	if first != second {
		t.Fatal("repeat call did not return the shared cached distribution")
	}
	// A distinct parameter point is a fresh miss.
	if _, err := ReferenceParams(10, 6e-5, 30000).Analytic(); err != nil {
		t.Fatal(err)
	}
	if hits, misses := AnalyticCacheStats(); hits != 1 || misses != 2 {
		t.Fatalf("after distinct λ: hits=%d misses=%d, want 1/2", hits, misses)
	}
}

func TestAnalyticCacheMatchesUncached(t *testing.T) {
	ResetAnalyticCache()
	defer ResetAnalyticCache()

	p := ReferenceParams(12, 3e-5, 30000)
	cached, err := p.Analytic()
	if err != nil {
		t.Fatal(err)
	}
	fresh, _, err := p.uniformized()
	if err != nil {
		t.Fatal(err)
	}
	for k := p.Eta; k <= p.ActivePerPlane; k++ {
		if d := math.Abs(cached.P(k) - fresh.P(k)); d != 0 {
			t.Errorf("P(%d): cached %v vs fresh %v", k, cached.P(k), fresh.P(k))
		}
	}
}

func TestAnalyticCacheConcurrent(t *testing.T) {
	ResetAnalyticCache()
	defer ResetAnalyticCache()

	p := ReferenceParams(10, 7e-5, 30000)
	const goroutines = 16
	dists := make([]*Distribution, goroutines)
	var wg sync.WaitGroup
	for i := 0; i < goroutines; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			d, err := p.Analytic()
			if err != nil {
				t.Error(err)
				return
			}
			dists[i] = d
		}()
	}
	wg.Wait()
	// All callers see one consistent distribution, and every call is
	// accounted as a hit or a completed solve.
	for i, d := range dists {
		if d == nil {
			t.Fatalf("goroutine %d got nil", i)
		}
		if math.Abs(d.P(p.ActivePerPlane)-dists[0].P(p.ActivePerPlane)) != 0 {
			t.Fatalf("goroutine %d saw a different distribution", i)
		}
	}
	hits, misses := AnalyticCacheStats()
	if hits+misses != goroutines || misses < 1 {
		t.Fatalf("hits=%d misses=%d, want them to sum to %d with ≥1 miss", hits, misses, goroutines)
	}
	if _, ok := func() (*Distribution, bool) {
		analyticCache.RLock()
		defer analyticCache.RUnlock()
		d, ok := analyticCache.m[p]
		return d, ok
	}(); !ok {
		t.Fatal("distribution not installed in the cache")
	}

	// Invalid params error on every call and never pollute the cache.
	bad := p
	bad.Eta = 0
	if _, err := bad.Analytic(); err == nil {
		t.Fatal("invalid params accepted")
	}
}
