package san

import (
	"fmt"
	"math"
	"testing"

	"satqos/internal/stats"
)

func approx(a, b, tol float64) bool {
	d := math.Abs(a - b)
	if d <= tol {
		return true
	}
	return d <= tol*math.Max(math.Abs(a), math.Abs(b))
}

// twoStateModel is a birth–death chain on {0, 1} with up-rate a and
// down-rate b: the canonical analytically solvable CTMC.
func twoStateModel(a, b float64) *Model {
	return &Model{
		Places: []Place{{Name: "up", Initial: 0}},
		Activities: []Activity{
			{
				Name:   "rise",
				Timing: TimingExponential,
				Rate: func(m Marking) float64 {
					if m[0] == 0 {
						return a
					}
					return 0
				},
				Effect: func(m Marking) Marking {
					n := m.Clone()
					n[0] = 1
					return n
				},
			},
			{
				Name:   "fall",
				Timing: TimingExponential,
				Rate: func(m Marking) float64 {
					if m[0] == 1 {
						return b
					}
					return 0
				},
				Effect: func(m Marking) Marking {
					n := m.Clone()
					n[0] = 0
					return n
				},
			},
		},
	}
}

func TestMarkingBasics(t *testing.T) {
	m := Marking{1, 2, 3}
	c := m.Clone()
	c[0] = 9
	if m[0] != 1 {
		t.Error("Clone aliases the original")
	}
	if m.Key() != "1,2,3" {
		t.Errorf("Key = %q", m.Key())
	}
	if !m.Equal(Marking{1, 2, 3}) || m.Equal(Marking{1, 2}) || m.Equal(Marking{1, 2, 4}) {
		t.Error("Equal wrong")
	}
}

func TestModelValidate(t *testing.T) {
	valid := twoStateModel(1, 2)
	if err := valid.Validate(); err != nil {
		t.Fatalf("valid model rejected: %v", err)
	}
	cases := map[string]*Model{
		"no places":     {Activities: valid.Activities},
		"no activities": {Places: valid.Places},
		"negative tokens": {
			Places:     []Place{{Name: "p", Initial: -1}},
			Activities: valid.Activities,
		},
		"nil effect": {
			Places: valid.Places,
			Activities: []Activity{{
				Name: "x", Timing: TimingExponential,
				Rate: func(Marking) float64 { return 1 },
			}},
		},
		"nil rate": {
			Places: valid.Places,
			Activities: []Activity{{
				Name: "x", Timing: TimingExponential,
				Effect: func(m Marking) Marking { return m.Clone() },
			}},
		},
		"bad delay": {
			Places: valid.Places,
			Activities: []Activity{{
				Name: "x", Timing: TimingDeterministic, Delay: 0,
				Effect: func(m Marking) Marking { return m.Clone() },
			}},
		},
		"unknown timing": {
			Places: valid.Places,
			Activities: []Activity{{
				Name:   "x",
				Effect: func(m Marking) Marking { return m.Clone() },
			}},
		},
	}
	for name, m := range cases {
		if err := m.Validate(); err == nil {
			t.Errorf("%s: Validate accepted an invalid model", name)
		}
	}
}

func TestBuildCTMCReachability(t *testing.T) {
	m := twoStateModel(1, 2)
	c, err := BuildCTMC(m, 0)
	if err != nil {
		t.Fatal(err)
	}
	if c.NumStates() != 2 {
		t.Fatalf("NumStates = %d, want 2", c.NumStates())
	}
	if c.StateIndex(Marking{0}) != 0 || c.StateIndex(Marking{1}) != 1 {
		t.Error("state indexing wrong")
	}
	if c.StateIndex(Marking{7}) != -1 {
		t.Error("unreachable marking should map to -1")
	}
	tr := c.Transitions(0)
	if len(tr) != 1 || tr[0].To != 1 || tr[0].Rate != 1 {
		t.Errorf("Transitions(0) = %+v", tr)
	}
	if got := c.State(1); !got.Equal(Marking{1}) {
		t.Errorf("State(1) = %v", got)
	}
}

func TestBuildCTMCRejectsDeterministic(t *testing.T) {
	m := twoStateModel(1, 2)
	m.Activities = append(m.Activities, Activity{
		Name: "reset", Timing: TimingDeterministic, Delay: 10,
		Effect: func(mk Marking) Marking { return mk.Clone() },
	})
	if _, err := BuildCTMC(m, 0); err == nil {
		t.Error("expected rejection of deterministic activities")
	}
}

func TestBuildCTMCStateLimit(t *testing.T) {
	// Unbounded counter model exceeds any finite state limit.
	m := &Model{
		Places: []Place{{Name: "n", Initial: 0}},
		Activities: []Activity{{
			Name: "inc", Timing: TimingExponential,
			Rate: func(Marking) float64 { return 1 },
			Effect: func(mk Marking) Marking {
				n := mk.Clone()
				n[0]++
				return n
			},
		}},
	}
	if _, err := BuildCTMC(m, 50); err == nil {
		t.Error("expected state-limit error")
	}
}

func TestTransientMatchesTwoStateClosedForm(t *testing.T) {
	a, b := 0.7, 1.3
	m := twoStateModel(a, b)
	c, err := BuildCTMC(m, 0)
	if err != nil {
		t.Fatal(err)
	}
	p0, err := c.InitialDistribution(Marking{0})
	if err != nil {
		t.Fatal(err)
	}
	// p1(t) = a/(a+b) (1 − e^{−(a+b)t}) starting from state 0.
	for _, tm := range []float64{0, 0.1, 0.5, 1, 3, 10} {
		p, err := c.TransientAt(p0, tm, 1e-13)
		if err != nil {
			t.Fatal(err)
		}
		want := a / (a + b) * (1 - math.Exp(-(a+b)*tm))
		if !approx(p[1], want, 1e-10) {
			t.Errorf("p1(%v) = %v, want %v", tm, p[1], want)
		}
		if !approx(p[0]+p[1], 1, 1e-12) {
			t.Errorf("mass at t=%v is %v", tm, p[0]+p[1])
		}
	}
}

func TestTransientAverageMatchesClosedForm(t *testing.T) {
	a, b := 0.7, 1.3
	m := twoStateModel(a, b)
	c, _ := BuildCTMC(m, 0)
	p0, _ := c.InitialDistribution(Marking{0})
	// (1/T)∫ p1 = a/(a+b) [1 − (1 − e^{−(a+b)T})/((a+b)T)].
	for _, T := range []float64{0.5, 2, 20} {
		avg, err := c.TransientAverage(p0, T, 1e-13)
		if err != nil {
			t.Fatal(err)
		}
		s := a + b
		want := a / s * (1 - (1-math.Exp(-s*T))/(s*T))
		if !approx(avg[1], want, 1e-9) {
			t.Errorf("avg p1 over [0,%v] = %v, want %v", T, avg[1], want)
		}
	}
}

func TestSteadyStateTwoState(t *testing.T) {
	a, b := 0.7, 1.3
	m := twoStateModel(a, b)
	c, _ := BuildCTMC(m, 0)
	pi, err := c.SteadyState(1e-13, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !approx(pi[0], b/(a+b), 1e-8) || !approx(pi[1], a/(a+b), 1e-8) {
		t.Errorf("steady state = %v, want [%v %v]", pi, b/(a+b), a/(a+b))
	}
}

func TestTransientValidation(t *testing.T) {
	c, _ := BuildCTMC(twoStateModel(1, 1), 0)
	if _, err := c.TransientAt([]float64{1}, 1, 0); err == nil {
		t.Error("expected length mismatch error")
	}
	if _, err := c.TransientAt([]float64{0.5, 0.2}, 1, 0); err == nil {
		t.Error("expected mass error")
	}
	if _, err := c.TransientAt([]float64{1, 0}, -1, 0); err == nil {
		t.Error("expected negative-time error")
	}
	if _, err := c.TransientAverage([]float64{1, 0}, 0, 0); err == nil {
		t.Error("expected non-positive-horizon error")
	}
	// NaN fails every comparison, so a `t < 0` test would let it through
	// to a Poisson window whose right point is never found.
	if _, err := c.TransientAt([]float64{1, 0}, math.NaN(), 0); err == nil {
		t.Error("expected NaN-time error")
	}
	if _, err := c.TransientAverage([]float64{1, 0}, math.NaN(), 0); err == nil {
		t.Error("expected NaN-horizon error")
	}
	if _, err := c.InitialDistribution(Marking{42}); err == nil {
		t.Error("expected unreachable-marking error")
	}
}

func TestExpectedReward(t *testing.T) {
	c, _ := BuildCTMC(twoStateModel(1, 1), 0)
	p := []float64{0.25, 0.75}
	r, err := c.ExpectedReward(p, func(m Marking) float64 { return float64(m[0]) })
	if err != nil {
		t.Fatal(err)
	}
	if !approx(r, 0.75, 1e-12) {
		t.Errorf("reward = %v, want 0.75", r)
	}
	if _, err := c.ExpectedReward([]float64{1}, func(Marking) float64 { return 0 }); err == nil {
		t.Error("expected length mismatch error")
	}
}

// poissonTail returns P(Pois(m) > n) from the average weights, which
// are that tail divided by m.
func poissonTail(m float64, n int) float64 {
	w, ok := newPoisson(m, 1e-15, true).at(n)
	if !ok {
		return 0
	}
	return w * m
}

func TestPoissonTail(t *testing.T) {
	// P(Pois(2) > 1) = 1 − e^{-2}(1 + 2).
	want := 1 - math.Exp(-2)*3
	if got := poissonTail(2, 1); !approx(got, want, 1e-12) {
		t.Errorf("poissonTail(2, 1) = %v, want %v", got, want)
	}
	if got := poissonTail(5, 1000); got != 0 {
		t.Errorf("deep tail = %v, want 0", got)
	}
}

// logPoissonPMF is log P(Pois(m) = n) in Loader's saddle-point form
// ("Fast and accurate computation of binomial probabilities", 2000),
// which keeps full relative precision at large means, where
// −m + n·log m − lgamma(n+1) cancels away about log10(m) digits.
func logPoissonPMF(m float64, n int) float64 {
	if n == 0 {
		return -m
	}
	x := float64(n)
	var stirlerr float64 // log n! − log(√(2πx)·(x/e)^x)
	if n <= 15 {
		lg, _ := math.Lgamma(x + 1)
		stirlerr = lg - (x+0.5)*math.Log(x) + x - 0.5*math.Log(2*math.Pi)
	} else {
		x2 := x * x
		stirlerr = (1.0/12 - (1.0/360-(1.0/1260-1/(1680*x2))/x2)/x2) / x
	}
	// bd0 = x·log(x/m) + m − x, by its series when x ≈ m.
	var bd0 float64
	if math.Abs(x-m) < 0.1*(x+m) {
		v := (x - m) / (x + m)
		bd0 = (x - m) * v
		ej := 2 * x * v
		for j := 1; ; j++ {
			ej *= v * v
			next := bd0 + ej/float64(2*j+1)
			if next == bd0 {
				break
			}
			bd0 = next
		}
	} else {
		bd0 = x*math.Log(x/m) + m - x
	}
	return -stirlerr - bd0 - 0.5*math.Log(2*math.Pi*x)
}

// The Fox–Glynn weights match a direct sum of log-space probabilities,
// both the PMF and the tails, from tiny to large means; tails are
// compared relative to their own size, so a deep tail lost to 1 − cdf
// cancellation would fail.
func TestPoissonMatchesLogSpaceSum(t *testing.T) {
	const eps = 1e-14
	for _, m := range []float64{1e-3, 0.1, 1, 7.5, 100, 4284, 1e5, 1e6, 1e7} {
		pmf := newPoisson(m, eps, false)
		avg := newPoisson(m, eps, true)
		// The reference tail P(N > n) for every n in the window, summed
		// from far beyond it.
		hi := int(m + 60*math.Sqrt(m) + 60)
		ref := make([]float64, hi+2)
		for n := hi; n >= 0; n-- {
			ref[n] = ref[n+1] + math.Exp(logPoissonPMF(m, n+1))
		}
		var worstPMF, worstTail float64
		for n := pmf.left; ; n++ {
			w, ok := pmf.at(n)
			if !ok {
				break
			}
			worstPMF = math.Max(worstPMF, math.Abs(w-math.Exp(logPoissonPMF(m, n))))
		}
		for n := avg.left; ; n++ {
			a, ok := avg.at(n)
			if !ok {
				break
			}
			// Relative to the tail itself, beyond the truncated mass.
			worstTail = math.Max(worstTail, (math.Abs(a*m-ref[n])-avg.eps)/ref[n])
		}
		if worstPMF > 1e-14 || worstTail > 1e-13 {
			t.Errorf("m=%g: max |ΔP(N=n)| %.3g, max relative Δtail %.3g", m, worstPMF, worstTail)
		}
	}
}

// A chain that never absorbs needs about ΛT steps; past maxSteps the
// series is refused with an error instead of being cut short, and an
// absorbed chain stops at once whatever the mean.
func TestUniformizeRefusesUnboundedSeries(t *testing.T) {
	stay := func(v, next []float64) { next[0] = v[0] }
	never := func([]float64) float64 { return 1 }
	if _, steps, err := Uniformize([]float64{1}, 1e12, 1e-12, false, stay, never); err == nil {
		t.Errorf("a never-absorbing series at mean 1e12 ran %d steps without error", steps)
	}
	absorbed := func([]float64) float64 { return 0 }
	v, steps, err := Uniformize([]float64{1}, math.Inf(1), 1e-12, true, stay, absorbed)
	if err != nil || steps != 0 || v[0] != 1 {
		t.Errorf("absorbed at infinite mean: %v after %d steps, %v", v, steps, err)
	}
}

func TestSimulateTwoStateOccupancy(t *testing.T) {
	a, b := 0.7, 1.3
	m := twoStateModel(a, b)
	rng := stats.NewRNG(12345, 0)
	res, err := Simulate(m, 200000, rng)
	if err != nil {
		t.Fatal(err)
	}
	up := res.OccupancyOf(func(mk Marking) bool { return mk[0] == 1 })
	want := a / (a + b)
	if math.Abs(up-want) > 0.01 {
		t.Errorf("simulated up fraction = %v, want %v", up, want)
	}
	if res.Firings["rise"] == 0 || res.Firings["fall"] == 0 {
		t.Error("no firings recorded")
	}
}

func TestSimulateValidation(t *testing.T) {
	m := twoStateModel(1, 1)
	rng := stats.NewRNG(1, 0)
	if _, err := Simulate(m, 0, rng); err == nil {
		t.Error("expected horizon error")
	}
	if _, err := Simulate(m, 10, nil); err == nil {
		t.Error("expected nil-RNG error")
	}
	bad := &Model{}
	if _, err := Simulate(bad, 10, rng); err == nil {
		t.Error("expected validation error")
	}
}

func TestSimulateDeadMarking(t *testing.T) {
	// A single one-shot activity leads to a marking with nothing enabled;
	// the simulator must account the remaining time there.
	m := &Model{
		Places: []Place{{Name: "fired", Initial: 0}},
		Activities: []Activity{{
			Name: "once", Timing: TimingExponential,
			Rate: func(mk Marking) float64 {
				if mk[0] == 0 {
					return 100
				}
				return 0
			},
			Effect: func(mk Marking) Marking {
				n := mk.Clone()
				n[0] = 1
				return n
			},
		}},
	}
	rng := stats.NewRNG(7, 0)
	res, err := Simulate(m, 1000, rng)
	if err != nil {
		t.Fatal(err)
	}
	frac := res.OccupancyOf(func(mk Marking) bool { return mk[0] == 1 })
	if frac < 0.95 {
		t.Errorf("absorbing occupancy = %v, want ≈1", frac)
	}
}

// renewalModel is the canonical deterministic-restart pattern: tokens
// accumulate at an exponential rate and a deterministic clock clears them
// every period.
func renewalModel(rate, period float64, cap int) *Model {
	return &Model{
		Places: []Place{{Name: "count", Initial: 0}},
		Activities: []Activity{
			{
				Name: "arrive", Timing: TimingExponential,
				Rate: func(mk Marking) float64 {
					if mk[0] < cap {
						return rate
					}
					return 0
				},
				Effect: func(mk Marking) Marking {
					n := mk.Clone()
					n[0]++
					return n
				},
			},
			{
				Name: "reset", Timing: TimingDeterministic, Delay: period,
				Effect: func(mk Marking) Marking {
					n := mk.Clone()
					n[0] = 0
					return n
				},
			},
		},
	}
}

func TestRenewalAverageMatchesSimulation(t *testing.T) {
	const (
		rate   = 0.8
		period = 5.0
		cap    = 6
	)
	m := renewalModel(rate, period, cap)
	ctmc, avg, err := RenewalAverage(m, period, 0, 1e-12)
	if err != nil {
		t.Fatal(err)
	}
	rng := stats.NewRNG(99, 3)
	sim, err := Simulate(m, 400000, rng)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < ctmc.NumStates(); i++ {
		mk := ctmc.State(i)
		simFrac := sim.OccupancyOf(func(x Marking) bool { return x.Equal(mk) })
		if math.Abs(simFrac-avg[i]) > 0.01 {
			t.Errorf("state %s: renewal %v vs simulated %v", mk.Key(), avg[i], simFrac)
		}
	}
}

func TestRenewalAverageMatchesErlangApproximation(t *testing.T) {
	const (
		rate   = 0.8
		period = 5.0
		cap    = 6
	)
	m := renewalModel(rate, period, cap)
	_, exact, err := RenewalAverage(m, period, 0, 1e-12)
	if err != nil {
		t.Fatal(err)
	}
	// Erlang(64) phase approximation of the deterministic clock.
	expanded, err := m.ExpandDeterministic(64)
	if err != nil {
		t.Fatal(err)
	}
	ctmc, err := BuildCTMC(expanded, 0)
	if err != nil {
		t.Fatal(err)
	}
	pi, err := ctmc.SteadyState(1e-12, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Marginalize the stage place: sum over all states with count = n.
	for n := 0; n <= cap; n++ {
		var phased float64
		for i := 0; i < ctmc.NumStates(); i++ {
			if ctmc.State(i)[0] == n {
				phased += pi[i]
			}
		}
		// Index n in the exact chain corresponds to count = n (the
		// subordinate chain enumerates counts in discovery order 0..cap).
		var exactN float64
		for i := 0; i < cap+1; i++ {
			mk := Marking{n}
			if idx := indexOfMarking(t, m, i, mk); idx >= 0 {
				exactN = exact[idx]
				break
			}
		}
		if math.Abs(phased-exactN) > 0.02 {
			t.Errorf("count %d: Erlang approx %v vs exact renewal %v", n, phased, exactN)
		}
	}
}

// indexOfMarking finds the exact-chain index of a marking via a rebuilt
// subordinate CTMC (helper for the Erlang comparison).
func indexOfMarking(t *testing.T, m *Model, _ int, mk Marking) int {
	t.Helper()
	ctmc, err := BuildCTMC(m.ExponentialOnly(), 0)
	if err != nil {
		t.Fatal(err)
	}
	return ctmc.StateIndex(mk)
}

func TestRenewalAverageValidation(t *testing.T) {
	m := renewalModel(1, 5, 3)
	if _, _, err := RenewalAverage(m, 0, 0, 0); err == nil {
		t.Error("expected period error")
	}
	noExp := &Model{
		Places: []Place{{Name: "p", Initial: 0}},
		Activities: []Activity{{
			Name: "d", Timing: TimingDeterministic, Delay: 1,
			Effect: func(mk Marking) Marking { return mk.Clone() },
		}},
	}
	if _, _, err := RenewalAverage(noExp, 5, 0, 0); err == nil {
		t.Error("expected no-exponential-activities error")
	}
}

func TestExpandDeterministicValidation(t *testing.T) {
	m := renewalModel(1, 5, 3)
	if _, err := m.ExpandDeterministic(0); err == nil {
		t.Error("expected stage-count error")
	}
	out, err := m.ExpandDeterministic(4)
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Places) != len(m.Places)+1 {
		t.Errorf("expanded places = %d, want %d", len(out.Places), len(m.Places)+1)
	}
	if out.HasDeterministic() {
		t.Error("expansion left deterministic activities behind")
	}
}

func TestExponentialOnlyStripsDeterministic(t *testing.T) {
	m := renewalModel(1, 5, 3)
	sub := m.ExponentialOnly()
	if len(sub.Activities) != 1 || sub.Activities[0].Name != "arrive" {
		t.Errorf("ExponentialOnly = %+v", sub.Activities)
	}
}

func BenchmarkTransientAverage(b *testing.B) {
	m := renewalModel(0.8, 5, 20)
	ctmc, err := BuildCTMC(m.ExponentialOnly(), 0)
	if err != nil {
		b.Fatal(err)
	}
	p0, _ := ctmc.InitialDistribution(Marking{0})
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := ctmc.TransientAverage(p0, 5, 1e-12); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSimulate(b *testing.B) {
	m := renewalModel(0.8, 5, 20)
	rng := stats.NewRNG(1, 0)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Simulate(m, 1000, rng); err != nil {
			b.Fatal(err)
		}
	}
}

// Transitions returns the outgoing edges of state i.
func (c *CTMC) Transitions(i int) []Transition {
	out := make([]Transition, len(c.edges[i]))
	copy(out, c.edges[i])
	return out
}

// TransientAt returns the state distribution at time t starting from p0,
// computed by uniformization with truncation error below eps (1e-12 when
// eps <= 0).
func (c *CTMC) TransientAt(p0 []float64, t, eps float64) ([]float64, error) {
	if err := c.checkDist(p0); err != nil {
		return nil, err
	}
	if !(t >= 0) {
		return nil, fmt.Errorf("san: TransientAt negative time %g", t)
	}
	return c.uniformize(p0, t, eps, false)
}

// SteadyState returns the stationary distribution of an irreducible CTMC
// by power iteration on the uniformized DTMC. For chains with absorbing
// states the iteration converges to the absorption distribution from the
// initial marking's row — callers working with absorbing chains should
// prefer TransientAt with a large t.
func (c *CTMC) SteadyState(tol float64, maxIter int) ([]float64, error) {
	if tol <= 0 {
		tol = 1e-12
	}
	if maxIter <= 0 {
		maxIter = 2_000_000
	}
	lambda := c.uniformizationRate()
	n := len(c.states)
	cur := make([]float64, n)
	next := make([]float64, n)
	for i := range cur {
		cur[i] = 1 / float64(n)
	}
	for iter := 0; iter < maxIter; iter++ {
		c.dtmcStep(lambda, cur, next)
		var delta float64
		for i := range cur {
			if d := math.Abs(next[i] - cur[i]); d > delta {
				delta = d
			}
		}
		cur, next = next, cur
		if delta < tol {
			normalize(cur)
			return cur, nil
		}
	}
	return nil, fmt.Errorf("san: SteadyState power iteration did not converge in %d iterations", maxIter)
}

// ExpectedReward returns Σᵢ p(i)·reward(state i).
func (c *CTMC) ExpectedReward(p []float64, reward func(Marking) float64) (float64, error) {
	if err := c.checkDist(p); err != nil {
		return 0, err
	}
	var s float64
	for i, pi := range p {
		if pi == 0 {
			continue
		}
		s += pi * reward(c.states[i])
	}
	return s, nil
}

func normalize(p []float64) {
	var sum float64
	for _, v := range p {
		sum += v
	}
	if sum <= 0 {
		return
	}
	for i := range p {
		p[i] /= sum
	}
}

// ExpandDeterministic rewrites every deterministic activity as an
// Erlang(k) chain of exponential stages with total mean equal to the
// deterministic delay (stage rate k/Delay). The coefficient of variation
// of the firing time drops as 1/√k, so the rewritten model converges to
// the deterministic one as k grows. A fresh counter place is appended per
// rewritten activity to hold the current stage.
//
// The rewrite assumes the activity is enabled in every tangible marking
// (true for the paper's scheduled-deployment clock); a disable/re-enable
// of the activity would need the stage place to be reset, which this
// engine does not attempt.
func (m *Model) ExpandDeterministic(k int) (*Model, error) {
	if k < 1 {
		return nil, fmt.Errorf("san: ExpandDeterministic stages %d must be >= 1", k)
	}
	out := &Model{Places: append([]Place(nil), m.Places...)}
	for _, a := range m.Activities {
		if a.Timing != TimingDeterministic {
			out.Activities = append(out.Activities, a)
			continue
		}
		stageIdx := len(out.Places)
		out.Places = append(out.Places, Place{Name: a.Name + "_stage", Initial: 0})
		rate := float64(k) / a.Delay
		inner := a // capture
		stages := k
		out.Activities = append(out.Activities, Activity{
			Name:   a.Name + "_erlang",
			Timing: TimingExponential,
			Rate:   func(Marking) float64 { return rate },
			Enabled: func(mk Marking) bool {
				if inner.Enabled != nil && !inner.Enabled(mk) {
					return false
				}
				return true
			},
			Effect: func(mk Marking) Marking {
				next := mk.Clone()
				if next[stageIdx] < stages-1 {
					next[stageIdx]++
					return next
				}
				// Final stage: fire the original effect and reset the
				// stage counter.
				fired := inner.Effect(mk)
				out2 := fired.Clone()
				out2[stageIdx] = 0
				return out2
			},
		})
	}
	return out, nil
}

// OccupancyOf sums the occupancy of all markings for which sel returns
// true — e.g. "all markings with k active satellites".
func (r *SimResult) OccupancyOf(sel func(Marking) bool) float64 {
	var s float64
	for key, frac := range r.Occupancy {
		if sel(r.Markings[key]) {
			s += frac
		}
	}
	return s
}
