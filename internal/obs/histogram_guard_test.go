package obs

import (
	"encoding/json"
	"math"
	"testing"
)

// Regression: a single NaN (or ±Inf) observation used to poison the
// histogram sum, making every subsequent JSON snapshot fail to marshal
// (encoding/json rejects non-finite floats). Non-finite observations
// now land in the overflow bucket and leave the sum untouched.
func TestObserveNonFiniteGuard(t *testing.T) {
	bounds := []float64{1, 2}
	for _, build := range []struct {
		name    string
		observe func(...float64) (count uint64, sum float64, overflow uint64)
	}{
		{"Histogram", func(vs ...float64) (uint64, float64, uint64) {
			h := NewHistogram(bounds)
			for _, v := range vs {
				h.Observe(v)
			}
			return h.Count(), h.Sum(), h.counts[len(h.counts)-1].Load()
		}},
		{"LocalHistogram", func(vs ...float64) (uint64, float64, uint64) {
			l := NewLocalHistogram(bounds)
			for _, v := range vs {
				l.Observe(v)
			}
			return l.Count(), l.Sum(), l.counts[len(l.bounds)]
		}},
	} {
		count, sum, overflow := build.observe(0.5, math.NaN(), math.Inf(1), math.Inf(-1), 1.5)
		if count != 5 {
			t.Errorf("%s: Count = %d, want 5 (non-finite observations still counted)", build.name, count)
		}
		if sum != 2 {
			t.Errorf("%s: Sum = %v, want 2 (non-finite observations excluded)", build.name, sum)
		}
		if overflow != 3 {
			t.Errorf("%s: overflow bucket = %d, want 3", build.name, overflow)
		}
	}
}

func TestSnapshotMarshalsAfterNaNObservation(t *testing.T) {
	r := NewRegistry()
	r.Histogram("poisoned_minutes", "h", []float64{1}).Observe(math.NaN())
	js, err := r.JSON()
	if err != nil {
		t.Fatalf("JSON after NaN observation: %v", err)
	}
	var snap any
	if err := json.Unmarshal(js, &snap); err != nil {
		t.Fatalf("snapshot is not valid JSON: %v", err)
	}
}
