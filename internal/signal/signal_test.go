package signal

import (
	"math"
	"sort"
	"testing"
	"testing/quick"

	"satqos/internal/orbit"
	"satqos/internal/stats"
)

func expDist(t *testing.T, rate float64) stats.Exponential {
	t.Helper()
	d, err := stats.NewExponential(rate)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestSignalActive(t *testing.T) {
	s := Signal{Start: 10, Duration: 5}
	if s.End() != 15 {
		t.Errorf("End = %v", s.End())
	}
	cases := []struct {
		t    float64
		want bool
	}{
		{9.99, false}, {10, true}, {12, true}, {14.999, true}, {15, false}, {20, false},
	}
	for _, c := range cases {
		if got := s.ActiveAt(c.t); got != c.want {
			t.Errorf("ActiveAt(%v) = %v, want %v", c.t, got, c.want)
		}
	}
	zero := Signal{Start: 1, Duration: 0}
	if zero.ActiveAt(1) {
		t.Error("zero-duration signal should never be active")
	}
}

func TestNewWorkloadValidation(t *testing.T) {
	d := expDist(t, 0.5)
	pos := FixedPosition{}
	if _, err := NewWorkload(1, d, pos); err != nil {
		t.Fatalf("valid workload rejected: %v", err)
	}
	if _, err := NewWorkload(0, d, pos); err == nil {
		t.Error("zero rate accepted")
	}
	if _, err := NewWorkload(math.NaN(), d, pos); err == nil {
		t.Error("NaN rate accepted")
	}
	if _, err := NewWorkload(1, nil, pos); err == nil {
		t.Error("nil duration accepted")
	}
	if _, err := NewWorkload(1, d, nil); err == nil {
		t.Error("nil position sampler accepted")
	}
}

func TestGeneratePoissonStatistics(t *testing.T) {
	w, err := NewWorkload(0.5, expDist(t, 0.5), FixedPosition{})
	if err != nil {
		t.Fatal(err)
	}
	r := stats.NewRNG(42, 0)
	const horizon = 40000.0
	signals, err := w.Generate(horizon, r)
	if err != nil {
		t.Fatal(err)
	}
	// Count ≈ rate × horizon.
	wantCount := 0.5 * horizon
	if math.Abs(float64(len(signals))-wantCount) > 4*math.Sqrt(wantCount) {
		t.Errorf("generated %d signals, want ≈%v", len(signals), wantCount)
	}
	// Ordered by start, IDs sequential, all inside the horizon.
	var durSum float64
	for i, s := range signals {
		if s.ID != i {
			t.Fatalf("ID %d at index %d", s.ID, i)
		}
		if i > 0 && s.Start < signals[i-1].Start {
			t.Fatal("signals not ordered by start")
		}
		if s.Start < 0 || s.Start >= horizon {
			t.Fatalf("start %v outside horizon", s.Start)
		}
		if s.Duration < 0 {
			t.Fatalf("negative duration %v", s.Duration)
		}
		durSum += s.Duration
	}
	if mean := durSum / float64(len(signals)); math.Abs(mean-2) > 0.1 {
		t.Errorf("mean duration = %v, want 2", mean)
	}
}

func TestGenerateValidation(t *testing.T) {
	w, _ := NewWorkload(1, expDist(t, 1), FixedPosition{})
	r := stats.NewRNG(1, 0)
	if _, err := w.Generate(0, r); err == nil {
		t.Error("zero horizon accepted")
	}
	if _, err := w.Generate(10, nil); err == nil {
		t.Error("nil RNG accepted")
	}
}

func TestFixedPosition(t *testing.T) {
	p, err := orbit.FromDegrees(30, -100)
	if err != nil {
		t.Fatal(err)
	}
	f := FixedPosition{At: p}
	got, err := f.Sample(nil)
	if err != nil {
		t.Fatal(err)
	}
	if got != p {
		t.Errorf("Sample = %v, want %v", got, p)
	}
}

func TestLatitudeBand(t *testing.T) {
	b := LatitudeBand{MinLatDeg: 25, MaxLatDeg: 35}
	r := stats.NewRNG(7, 0)
	for i := 0; i < 2000; i++ {
		p, err := b.Sample(r)
		if err != nil {
			t.Fatal(err)
		}
		lat, lon := p.Deg()
		if lat < 25 || lat > 35 {
			t.Fatalf("latitude %v outside band", lat)
		}
		if lon < -180 || lon > 180 {
			t.Fatalf("longitude %v outside range", lon)
		}
	}
	bad := []LatitudeBand{
		{MinLatDeg: 35, MaxLatDeg: 25},
		{MinLatDeg: -95, MaxLatDeg: 0},
		{MinLatDeg: 0, MaxLatDeg: 95},
	}
	for _, bb := range bad {
		if _, err := bb.Sample(r); err == nil {
			t.Errorf("band %+v accepted", bb)
		}
	}
}

func TestLatitudeBandAreaUniform(t *testing.T) {
	// Sampling the full sphere, mean sin(lat) must be ≈ 0 and the
	// fraction above 30°N ≈ (1 − sin30°)/2 = 0.25.
	b := LatitudeBand{MinLatDeg: -90, MaxLatDeg: 90}
	r := stats.NewRNG(11, 0)
	const n = 40000
	var sinSum float64
	var above int
	for i := 0; i < n; i++ {
		p, err := b.Sample(r)
		if err != nil {
			t.Fatal(err)
		}
		sinSum += math.Sin(p.Lat)
		if p.Lat > math.Pi/6 {
			above++
		}
	}
	if math.Abs(sinSum/n) > 0.01 {
		t.Errorf("mean sin(lat) = %v, want ≈0", sinSum/n)
	}
	if frac := float64(above) / n; math.Abs(frac-0.25) > 0.01 {
		t.Errorf("fraction above 30°N = %v, want 0.25", frac)
	}
}

func TestActiveCount(t *testing.T) {
	signals := []Signal{
		{Start: 0, Duration: 10},
		{Start: 5, Duration: 10},
		{Start: 20, Duration: 1},
	}
	cases := []struct {
		t    float64
		want int
	}{
		{0, 1}, {6, 2}, {12, 1}, {16, 0}, {20.5, 1},
	}
	for _, c := range cases {
		if got := ActiveCount(signals, c.t); got != c.want {
			t.Errorf("ActiveCount(%v) = %d, want %d", c.t, got, c.want)
		}
	}
}

func TestSortByStart(t *testing.T) {
	signals := []Signal{
		{ID: 0, Start: 5},
		{ID: 1, Start: 1},
		{ID: 2, Start: 3},
	}
	SortByStart(signals)
	if signals[0].ID != 1 || signals[1].ID != 2 || signals[2].ID != 0 {
		t.Errorf("sorted order: %+v", signals)
	}
}

// Inter-arrival gaps of the generated process are exponential with the
// workload rate: their empirical mean matches 1/rate for arbitrary rates.
func TestGenerateInterArrivalProperty(t *testing.T) {
	prop := func(seed uint64, rawRate float64) bool {
		rate := 0.1 + math.Mod(math.Abs(rawRate), 3)
		w, err := NewWorkload(rate, stats.Exponential{Rate: 1}, FixedPosition{})
		if err != nil {
			return false
		}
		r := stats.NewRNG(seed, 0)
		signals, err := w.Generate(5000/rate, r)
		if err != nil || len(signals) < 100 {
			return false
		}
		if !sort.SliceIsSorted(signals, func(i, j int) bool { return signals[i].Start < signals[j].Start }) {
			return false
		}
		var gapSum float64
		prev := 0.0
		for _, s := range signals {
			gapSum += s.Start - prev
			prev = s.Start
		}
		mean := gapSum / float64(len(signals))
		return math.Abs(mean-1/rate) < 0.2/rate
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// ActiveAt reports whether the signal is emitting at time t. The start
// instant is inclusive and the end instant exclusive, so a zero-duration
// signal is never active.
func (s Signal) ActiveAt(t float64) bool { return t >= s.Start && t < s.End() }

// ActiveCount returns how many of the given signals are emitting at time
// t. The slice may be in any order.
func ActiveCount(signals []Signal, t float64) int {
	n := 0
	for _, s := range signals {
		if s.ActiveAt(t) {
			n++
		}
	}
	return n
}

// SortByStart orders signals by start time in place (stable for equal
// starts by ID).
func SortByStart(signals []Signal) {
	sort.SliceStable(signals, func(i, j int) bool {
		return signals[i].Start < signals[j].Start
	})
}
