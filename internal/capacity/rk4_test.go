package capacity

// The RK4 referee: the classical fourth-order Runge–Kutta integrator and
// the transient solve Analytic used before uniformization, RK4 on the
// Kolmogorov forward equations plus an exact flow-balance recursion for
// the time integrals. It is independent of package san, so the tests
// hold the uniformized solve against it as well as against the SAN route.

import (
	"fmt"
	"math"
	"testing"

	"satqos/internal/numeric"
)

// Derivative computes dy/dt at time t for state y, writing the result
// into dydt. dydt and y always have the same length and do not alias.
type Derivative func(t float64, y, dydt []float64)

// RK4Stepper is the reusable form of the classical fourth-order
// Runge–Kutta integrator: the stage buffers k1..k4 and the trial state
// are allocated once and reused across Integrate calls, so repeated
// transient solves (the grid intervals of RK4Path) do not churn the
// allocator. A stepper is not safe for concurrent use;
// give each goroutine its own.
type RK4Stepper struct {
	k1, k2, k3, k4, tmp []float64
}

// NewRK4Stepper returns a stepper with buffers sized for states of
// dimension n. Integrate resizes on demand, so n is a capacity hint.
func NewRK4Stepper(n int) *RK4Stepper {
	st := &RK4Stepper{}
	st.resize(n)
	return st
}

func (st *RK4Stepper) resize(n int) {
	if cap(st.k1) < n {
		st.k1 = make([]float64, n)
		st.k2 = make([]float64, n)
		st.k3 = make([]float64, n)
		st.k4 = make([]float64, n)
		st.tmp = make([]float64, n)
		return
	}
	st.k1 = st.k1[:n]
	st.k2 = st.k2[:n]
	st.k3 = st.k3[:n]
	st.k4 = st.k4[:n]
	st.tmp = st.tmp[:n]
}

// Integrate advances y' = f(t, y) from t0 to t1 with fixed steps of size
// at most h (the final step is shortened to land exactly on t1),
// updating y in place and returning it. It is RK4 with the scratch
// buffers hoisted into the stepper.
func (st *RK4Stepper) Integrate(f Derivative, y []float64, t0, t1, h float64) ([]float64, error) {
	if h <= 0 {
		return nil, fmt.Errorf("RK4 step %g must be positive", h)
	}
	if t1 < t0 {
		return nil, fmt.Errorf("RK4 interval [%g, %g] is reversed", t0, t1)
	}
	st.resize(len(y))
	k1, k2, k3, k4, tmp := st.k1, st.k2, st.k3, st.k4, st.tmp

	t := t0
	for t < t1 {
		step := h
		if t+step > t1 {
			step = t1 - t
		}
		f(t, y, k1)
		for i := range tmp {
			tmp[i] = y[i] + step/2*k1[i]
		}
		f(t+step/2, tmp, k2)
		for i := range tmp {
			tmp[i] = y[i] + step/2*k2[i]
		}
		f(t+step/2, tmp, k3)
		for i := range tmp {
			tmp[i] = y[i] + step*k3[i]
		}
		f(t+step, tmp, k4)
		for i := range y {
			y[i] += step / 6 * (k1[i] + 2*k2[i] + 2*k3[i] + k4[i])
		}
		t += step
	}
	return y, nil
}

// RK4 integrates y' = f(t, y) from t0 to t1 with the classical
// fixed-step fourth-order Runge–Kutta method using steps of size at most
// h. The final step is shortened to land exactly on t1. The state y is
// updated in place and also returned.
//
// Here it referees the uniformized capacity solve. Callers with repeated
// solves should hold an RK4Stepper instead, which reuses the stage
// buffers.
func RK4(f Derivative, y []float64, t0, t1, h float64) ([]float64, error) {
	var st RK4Stepper
	return st.Integrate(f, y, t0, t1, h)
}

// RK4Path integrates like RK4 but records the state at each of the
// points+1 uniformly spaced grid times over [t0, t1] (inclusive of both
// endpoints), using internal steps of size at most h between grid points.
// The returned slice has points+1 rows; row i is the state at
// t0 + i*(t1-t0)/points. The input state y is consumed.
func RK4Path(f Derivative, y []float64, t0, t1, h float64, points int) ([][]float64, error) {
	if points < 1 {
		return nil, fmt.Errorf("RK4Path needs at least 1 interval, got %d", points)
	}
	out := make([][]float64, 0, points+1)
	snap := func() {
		row := make([]float64, len(y))
		copy(row, y)
		out = append(out, row)
	}
	snap()
	dt := (t1 - t0) / float64(points)
	st := NewRK4Stepper(len(y))
	for i := 0; i < points; i++ {
		a := t0 + float64(i)*dt
		b := t0 + float64(i+1)*dt
		if _, err := st.Integrate(f, y, a, b, h); err != nil {
			return nil, err
		}
		snap()
	}
	return out, nil
}

// analyticRK4 is the referee solve: the transient distribution p(φ)
// integrated with RK4, and the time integrals I_f = ∫₀^φ p_f(t) dt
// exactly from flow balance,
//
//	p_f(φ) − p_f(0) = r_{f−1} I_{f−1} − r_f I_f,
//
// which needs no further quadrature. P(K=k) = Σ_{f : k(f)=k} I_f / φ.
// Its cost grows as 20·N·λ·φ steps.
func analyticRK4(p Params) (*Distribution, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	nStates := p.maxFailures() + 1
	rates := make([]float64, nStates) // r_f, with r_F = 0 (absorbing)
	for f := 0; f < nStates-1; f++ {
		rates[f] = float64(p.capacityAt(f)) * p.LambdaPerHour
	}
	deriv := func(t float64, y, dydt []float64) {
		for f := range y {
			dydt[f] = -rates[f] * y[f]
			if f > 0 {
				dydt[f] += rates[f-1] * y[f-1]
			}
		}
	}
	pT := make([]float64, nStates)
	pT[0] = 1
	// Step resolution: resolve both the fastest rate and the horizon.
	step := math.Min(p.PhiHours/2000, 0.05/rates[0])
	if _, err := RK4(deriv, pT, 0, p.PhiHours, step); err != nil {
		return nil, fmt.Errorf("capacity: transient solve: %w", err)
	}
	integrals := make([]float64, nStates)
	var consumed float64
	for f := 0; f < nStates-1; f++ {
		inflow := 0.0
		if f > 0 {
			inflow = rates[f-1] * integrals[f-1]
		}
		p0 := 0.0
		if f == 0 {
			p0 = 1
		}
		integrals[f] = (inflow + p0 - pT[f]) / rates[f]
		consumed += integrals[f]
	}
	integrals[nStates-1] = p.PhiHours - consumed
	probs := make(map[int]float64)
	for f, integral := range integrals {
		probs[p.capacityAt(f)] += integral / p.PhiHours
	}
	return NewDistribution(p.Eta, p.ActivePerPlane, probs)
}

func TestRK4ExponentialDecay(t *testing.T) {
	// y' = -y, y(0) = 1 → y(t) = e^{-t}.
	f := func(t float64, y, dydt []float64) { dydt[0] = -y[0] }
	y, err := RK4(f, []float64{1}, 0, 2, 1e-3)
	if err != nil {
		t.Fatalf("RK4: %v", err)
	}
	if !numeric.ApproxEqual(y[0], math.Exp(-2), 1e-9) {
		t.Errorf("y(2) = %v, want %v", y[0], math.Exp(-2))
	}
}

func TestRK4Harmonic(t *testing.T) {
	// y'' = -y as a 2-d system; energy and solution both checked.
	f := func(t float64, y, dydt []float64) {
		dydt[0] = y[1]
		dydt[1] = -y[0]
	}
	y, err := RK4(f, []float64{1, 0}, 0, 2*math.Pi, 1e-3)
	if err != nil {
		t.Fatalf("RK4: %v", err)
	}
	if !numeric.ApproxEqual(y[0], 1, 1e-8) || math.Abs(y[1]) > 1e-8 {
		t.Errorf("after full period y = %v, want [1 0]", y)
	}
}

func TestRK4TwoStateMarkov(t *testing.T) {
	// dp/dt = p Q for a two-state chain with rates a=1 (0→1), b=2 (1→0).
	// Steady state is (b, a)/(a+b) = (2/3, 1/3).
	a, b := 1.0, 2.0
	f := func(t float64, p, dpdt []float64) {
		dpdt[0] = -a*p[0] + b*p[1]
		dpdt[1] = a*p[0] - b*p[1]
	}
	p, err := RK4(f, []float64{1, 0}, 0, 50, 1e-2)
	if err != nil {
		t.Fatalf("RK4: %v", err)
	}
	if !numeric.ApproxEqual(p[0], 2.0/3, 1e-8) || !numeric.ApproxEqual(p[1], 1.0/3, 1e-8) {
		t.Errorf("steady state = %v, want [2/3 1/3]", p)
	}
	if !numeric.ApproxEqual(p[0]+p[1], 1, 1e-10) {
		t.Errorf("probability mass not conserved: %v", p[0]+p[1])
	}
}

func TestRK4Path(t *testing.T) {
	f := func(t float64, y, dydt []float64) { dydt[0] = -y[0] }
	path, err := RK4Path(f, []float64{1}, 0, 1, 1e-3, 10)
	if err != nil {
		t.Fatalf("RK4Path: %v", err)
	}
	if len(path) != 11 {
		t.Fatalf("len(path) = %d, want 11", len(path))
	}
	for i, row := range path {
		want := math.Exp(-float64(i) / 10)
		if !numeric.ApproxEqual(row[0], want, 1e-9) {
			t.Errorf("path[%d] = %v, want %v", i, row[0], want)
		}
	}
}

func TestRK4Errors(t *testing.T) {
	f := func(t float64, y, dydt []float64) { dydt[0] = 0 }
	if _, err := RK4(f, []float64{1}, 0, 1, 0); err == nil {
		t.Error("expected error for zero step")
	}
	if _, err := RK4(f, []float64{1}, 1, 0, 0.1); err == nil {
		t.Error("expected error for reversed interval")
	}
	if _, err := RK4Path(f, []float64{1}, 0, 1, 0.1, 0); err == nil {
		t.Error("expected error for zero grid points")
	}
}

// The stepper must reproduce RK4 exactly (same arithmetic, hoisted
// buffers) and survive reuse across solves of different dimensions.
func TestRK4StepperMatchesRK4(t *testing.T) {
	decay := func(t float64, y, dydt []float64) {
		for i := range y {
			dydt[i] = -float64(i+1) * y[i]
		}
	}
	ref := []float64{1, 2, 3}
	if _, err := RK4(decay, ref, 0, 1.5, 1e-3); err != nil {
		t.Fatal(err)
	}

	st := NewRK4Stepper(3)
	// Warm the buffers on an unrelated solve of another dimension first.
	warm := []float64{1}
	if _, err := st.Integrate(decay, warm, 0, 1, 1e-2); err != nil {
		t.Fatal(err)
	}
	got := []float64{1, 2, 3}
	if _, err := st.Integrate(decay, got, 0, 1.5, 1e-3); err != nil {
		t.Fatal(err)
	}
	for i := range ref {
		if got[i] != ref[i] {
			t.Errorf("component %d: stepper %v vs RK4 %v", i, got[i], ref[i])
		}
		want := []float64{1, 2, 3}[i] * math.Exp(-float64(i+1)*1.5)
		if math.Abs(got[i]-want) > 1e-6 {
			t.Errorf("component %d: %v, want %v", i, got[i], want)
		}
	}
}

func TestRK4StepperRejectsBadArguments(t *testing.T) {
	st := NewRK4Stepper(1)
	f := func(t float64, y, dydt []float64) { dydt[0] = 0 }
	if _, err := st.Integrate(f, []float64{1}, 0, 1, 0); err == nil {
		t.Error("zero step accepted")
	}
	if _, err := st.Integrate(f, []float64{1}, 1, 0, 0.1); err == nil {
		t.Error("reversed interval accepted")
	}
}
