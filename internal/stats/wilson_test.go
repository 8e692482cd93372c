package stats

import (
	"math"
	"testing"
)

func TestWilsonCITable(t *testing.T) {
	cases := []struct {
		name   string
		pHat   float64
		n      int
		z      float64
		lo, hi float64 // expected bounds, checked to 1e-3
	}{
		// Classical reference value: 10/100 at 95%.
		{"p=0.1 n=100", 0.1, 100, 1.96, 0.0552, 0.1744},
		// Symmetric point: interval is symmetric around 0.5.
		{"p=0.5 n=100", 0.5, 100, 1.96, 0.4038, 0.5962},
		// Empirical zero keeps positive width (the Wald interval
		// would collapse to a point here).
		{"p=0 n=50", 0, 50, 1.96, 0, 0.0713},
		{"p=1 n=50", 1, 50, 1.96, 0.9287, 1},
	}
	for _, c := range cases {
		lo, hi := WilsonCI(c.pHat, c.n, c.z)
		if math.Abs(lo-c.lo) > 1e-3 || math.Abs(hi-c.hi) > 1e-3 {
			t.Errorf("%s: got [%.4f, %.4f], want [%.4f, %.4f]", c.name, lo, hi, c.lo, c.hi)
		}
	}
}

func TestWilsonCIProperties(t *testing.T) {
	rng := NewRNG(42, 0)
	for i := 0; i < 200; i++ {
		p := rng.Float64()
		n := 1 + rng.Intn(100000)
		lo, hi := WilsonCI(p, n, 1.96)
		if lo < 0 || hi > 1 || lo > hi {
			t.Fatalf("interval [%v, %v] malformed for p=%v n=%d", lo, hi, p, n)
		}
		if p < lo-1e-9 || p > hi+1e-9 {
			t.Fatalf("point estimate %v outside its own interval [%v, %v] (n=%d)", p, lo, hi, n)
		}
	}
}

func TestWilsonCIDegenerate(t *testing.T) {
	if lo, hi := WilsonCI(0.5, 0, 1.96); lo != 0 || hi != 1 {
		t.Errorf("n=0 interval [%v, %v], want [0, 1]", lo, hi)
	}
	if lo, hi := WilsonCI(math.NaN(), 100, 1.96); lo != 0 || hi != 1 {
		t.Errorf("NaN estimate interval [%v, %v], want [0, 1]", lo, hi)
	}
	// Out-of-range estimates clamp rather than propagate.
	if lo, hi := WilsonCI(1.5, 100, 1.96); math.IsNaN(lo) || math.IsNaN(hi) || hi > 1 {
		t.Errorf("clamped estimate produced [%v, %v]", lo, hi)
	}
	prop := &Proportion{Successes: 10, Trials: 100}
	lo, hi := prop.Wilson95()
	wlo, whi := WilsonCI(0.1, 100, 1.96)
	if lo != wlo || hi != whi {
		t.Errorf("Proportion.Wilson95 [%v, %v] != WilsonCI [%v, %v]", lo, hi, wlo, whi)
	}
}

// Wilson95 returns the node's 95% Wilson score interval.
func (p *Proportion) Wilson95() (lo, hi float64) {
	return WilsonCI(p.Estimate(), p.Trials, 1.96)
}
