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

// TestAnalyticCacheBounded: a long-running caller cycling distinct λ
// keeps at most analyticCacheCap entries in the memo, and every answer,
// whether freshly solved or served from the memo, equals a direct solve.
func TestAnalyticCacheBounded(t *testing.T) {
	ResetAnalyticCache()
	defer ResetAnalyticCache()

	const n = 100_000
	for i := 0; i < n; i++ {
		p := ReferenceParams(10, 1e-5*(1+float64(i)/n), 100)
		got, err := p.Analytic()
		if err != nil {
			t.Fatal(err)
		}
		want, _, err := p.uniformized()
		if err != nil {
			t.Fatal(err)
		}
		if again, err := p.Analytic(); err != nil || again != got {
			t.Fatalf("λ %v: repeat call did not return the memoized distribution (err %v)", p.LambdaPerHour, err)
		}
		if got.Eta != want.Eta || got.N != want.N {
			t.Fatalf("λ %v: support [%d, %d], direct solve [%d, %d]", p.LambdaPerHour, got.Eta, got.N, want.Eta, want.N)
		}
		for k := want.Eta; k <= want.N; k++ {
			if got.P(k) != want.P(k) {
				t.Fatalf("λ %v: P(%d) = %v, direct solve %v", p.LambdaPerHour, k, got.P(k), want.P(k))
			}
		}
		analyticCache.RLock()
		size := len(analyticCache.m)
		analyticCache.RUnlock()
		if size > analyticCacheCap {
			t.Fatalf("after %d distinct λ the memo holds %d entries, cap %d", i+1, size, analyticCacheCap)
		}
	}
	if hits, misses := AnalyticCacheStats(); hits != n || misses != n {
		t.Errorf("hits=%d misses=%d, want one solve and one memo hit per distinct λ (%d)", hits, misses, n)
	}
}
