package validate

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"

	"satqos/internal/experiment"
	"satqos/internal/fault"
	"satqos/internal/route"
	"satqos/internal/stats"
)

// Golden kinds select the comparison discipline. Analytic outputs are
// deterministic functions of the configuration: encoding/json
// round-trips float64 exactly (shortest-representation encoding), so
// the committed snapshot must match bit for bit. Monte-Carlo outputs
// are only reproduced bit-identically under the same seed and episode
// budget; across budgets they are compared statistically, requiring
// the Wilson score intervals of the stored and regenerated estimates
// to overlap.
const (
	KindAnalytic   = "analytic"
	KindMonteCarlo = "montecarlo"
)

// wilsonZ is the critical value for golden Monte-Carlo comparison.
// 99.7% per point keeps the family-wise false-alarm rate negligible
// over the corpus' few dozen points while still flagging drifts of a
// few interval half-widths.
const wilsonZ = 3.0

// GoldenSeries is one named curve of a snapshot.
type GoldenSeries struct {
	Name   string    `json:"name"`
	Values []float64 `json:"values"`
}

// Golden is a committed experiment snapshot: the sweep axis and series
// plus the metadata the comparator needs (kind, and for Monte-Carlo
// snapshots the per-point episode budget behind each estimate).
type Golden struct {
	Name     string         `json:"name"`
	Kind     string         `json:"kind"`
	Episodes int            `json:"episodes,omitempty"`
	XLabel   string         `json:"xlabel"`
	X        []float64      `json:"x"`
	Series   []GoldenSeries `json:"series"`
}

// GoldenFromSweep snapshots a sweep.
func GoldenFromSweep(name, kind string, episodes int, s *experiment.Sweep) *Golden {
	g := &Golden{Name: name, Kind: kind, Episodes: episodes, XLabel: s.XLabel, X: s.X}
	for _, ser := range s.Series {
		g.Series = append(g.Series, GoldenSeries{Name: ser.Name, Values: ser.Values})
	}
	return g
}

// WriteFile writes the snapshot as indented JSON.
func (g *Golden) WriteFile(path string) error {
	data, err := json.MarshalIndent(g, "", "  ")
	if err != nil {
		return fmt.Errorf("validate: encode golden %q: %w", g.Name, err)
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// LoadGolden reads a snapshot file.
func LoadGolden(path string) (*Golden, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("validate: %w", err)
	}
	var g Golden
	if err := json.Unmarshal(data, &g); err != nil {
		return nil, fmt.Errorf("validate: decode golden %s: %w", path, err)
	}
	if g.Kind != KindAnalytic && g.Kind != KindMonteCarlo {
		return nil, fmt.Errorf("validate: golden %s: unknown kind %q", path, g.Kind)
	}
	if g.Kind == KindMonteCarlo && g.Episodes <= 0 {
		return nil, fmt.Errorf("validate: golden %s: Monte-Carlo snapshot needs a positive episode budget, got %d", path, g.Episodes)
	}
	return &g, nil
}

// CompareGolden checks a regenerated snapshot against the committed
// one. Axes and series names must match exactly — they are
// configuration, not measurement. Values are compared exactly for
// analytic snapshots and by Wilson-interval overlap for Monte-Carlo
// snapshots (each estimate is a binomial proportion over its episode
// budget; disjoint intervals at z = 3 flag a real drift).
func CompareGolden(got, want *Golden) error {
	if got == nil || want == nil {
		return fmt.Errorf("validate: nil golden")
	}
	if got.Kind != want.Kind {
		return fmt.Errorf("validate: golden %q: kind %q, committed %q", want.Name, got.Kind, want.Kind)
	}
	if len(got.X) != len(want.X) {
		return fmt.Errorf("validate: golden %q: %d sweep points, committed %d", want.Name, len(got.X), len(want.X))
	}
	for i := range want.X {
		if got.X[i] != want.X[i] {
			return fmt.Errorf("validate: golden %q: x[%d] = %g, committed %g", want.Name, i, got.X[i], want.X[i])
		}
	}
	if len(got.Series) != len(want.Series) {
		return fmt.Errorf("validate: golden %q: %d series, committed %d", want.Name, len(got.Series), len(want.Series))
	}
	for j := range want.Series {
		gs, ws := got.Series[j], want.Series[j]
		if gs.Name != ws.Name {
			return fmt.Errorf("validate: golden %q: series %d named %q, committed %q", want.Name, j, gs.Name, ws.Name)
		}
		if len(gs.Values) != len(ws.Values) {
			return fmt.Errorf("validate: golden %q: series %q has %d values, committed %d",
				want.Name, ws.Name, len(gs.Values), len(ws.Values))
		}
		for i := range ws.Values {
			gv, wv := gs.Values[i], ws.Values[i]
			switch want.Kind {
			case KindAnalytic:
				if gv != wv && !(math.IsNaN(gv) && math.IsNaN(wv)) {
					return fmt.Errorf("validate: golden %q: series %q point %d (x=%g): got %v, committed %v (analytic outputs must match exactly)",
						want.Name, ws.Name, i, want.X[i], gv, wv)
				}
			case KindMonteCarlo:
				gLo, gHi := stats.WilsonCI(gv, got.Episodes, wilsonZ)
				wLo, wHi := stats.WilsonCI(wv, want.Episodes, wilsonZ)
				if gLo > wHi || wLo > gHi {
					return fmt.Errorf("validate: golden %q: series %q point %d (x=%g): got %v (CI [%.4g, %.4g] at n=%d), committed %v (CI [%.4g, %.4g] at n=%d) — intervals disjoint",
						want.Name, ws.Name, i, want.X[i], gv, gLo, gHi, got.Episodes, wv, wLo, wHi, want.Episodes)
				}
			}
		}
	}
	return nil
}

// Golden corpus parameters: Monte-Carlo snapshots use a modest episode
// budget so regeneration stays fast in CI (five sweep points, two
// evaluations each); seed 2003 nods to the paper's publication year.
const (
	GoldenEpisodes = 3000
	GoldenSeed     = 2003
	// RoutedGoldenEpisodes is the smaller per-point budget of the routed
	// snapshots: a routed episode also simulates every background packet
	// hop by hop, so the same wall-clock budget buys fewer episodes.
	RoutedGoldenEpisodes = 1500
)

// routedGoldenLoads is the traffic-load axis of the routed snapshots:
// idle, moderately, and heavily congested. At the snapshot's 3 pkt/min
// link rate the top load saturates the fabric — delivery by deadline
// falls from ~0.996 to ~0.48 across the axis, so the curve actually
// exercises queueing, not just the routed delivery path.
func routedGoldenLoads() []float64 { return []float64{0, 60, 180} }

// RoutedGoldenScenario is the degraded-mode fault timeline layered on
// the routed Q-learning snapshot: a loss burst over the early episode
// (applied per hop on the fabric) plus a fail-silent relay window.
func RoutedGoldenScenario() *fault.Scenario {
	return &fault.Scenario{
		Name:       "routed-degraded",
		FailSilent: []fault.FailSilentWindow{{Sat: 3, StartMin: 1, EndMin: 6}},
		LossBursts: []fault.LossBurst{{StartMin: 0, EndMin: 4, Prob: 0.3}},
	}
}

// routedGoldenSpec builds one routed Monte-Carlo spec: a 7×10
// Walker-star fabric under the given policy with links throttled to
// 3 pkt/min, swept over the routed load axis with hardened retries = 2.
// k = 10 matches the corpus' other degraded-mode sweeps and keeps the
// sequential-dual level reachable.
func routedGoldenSpec(policy string, scenario *fault.Scenario) GoldenSpec {
	return GoldenSpec{
		Name: "routed-" + policy, Kind: KindMonteCarlo, Episodes: RoutedGoldenEpisodes,
		Generate: func() (*experiment.Sweep, error) {
			rc := route.Default(policy, 10)
			rc.ISLRatePerMin = 3
			return experiment.RoutedLoadSweep(routedGoldenLoads(), rc, scenario, 10, 2, RoutedGoldenEpisodes, GoldenSeed)
		},
	}
}

// GoldenSpec couples a snapshot name to its regeneration recipe so the
// golden test's -update flow, the in-repo regression test, and
// cmd/goldencheck all rebuild the corpus identically.
type GoldenSpec struct {
	Name     string
	Kind     string
	Episodes int // per-point budget; zero for analytic specs
	Generate func() (*experiment.Sweep, error)
}

// File returns the snapshot's file name inside the corpus directory.
func (s GoldenSpec) File() string { return s.Name + ".json" }

// Regenerate runs the recipe and snapshots the result.
func (s GoldenSpec) Regenerate() (*Golden, error) {
	sweep, err := s.Generate()
	if err != nil {
		return nil, fmt.Errorf("validate: regenerate golden %q: %w", s.Name, err)
	}
	return GoldenFromSweep(s.Name, s.Kind, s.Episodes, sweep), nil
}

// GoldenSpecs returns the corpus: the paper's three reproduced figures
// (analytic) and the two degraded-mode sweeps (Monte-Carlo, common
// random numbers, hardened retries = 2 against the no-retry baseline).
func GoldenSpecs() []GoldenSpec {
	return []GoldenSpec{
		{
			Name: "fig7", Kind: KindAnalytic,
			Generate: func() (*experiment.Sweep, error) { return experiment.Figure7(nil, 12, 30000) },
		},
		{
			Name: "fig8", Kind: KindAnalytic,
			Generate: func() (*experiment.Sweep, error) { return experiment.Figure8(nil) },
		},
		{
			Name: "fig9", Kind: KindAnalytic,
			Generate: func() (*experiment.Sweep, error) { return experiment.Figure9(nil) },
		},
		{
			Name: "degraded-loss", Kind: KindMonteCarlo, Episodes: GoldenEpisodes,
			Generate: func() (*experiment.Sweep, error) {
				return experiment.DegradedLossSweep(nil, nil, 10, 2, GoldenEpisodes, GoldenSeed)
			},
		},
		{
			Name: "degraded-failsilent", Kind: KindMonteCarlo, Episodes: GoldenEpisodes,
			Generate: func() (*experiment.Sweep, error) {
				return experiment.DegradedFailSilentSweep(nil, 10, 2, GoldenEpisodes, GoldenSeed)
			},
		},
		// One routed snapshot per forwarding policy. The Q-learning one
		// carries a degraded-mode fault scenario so per-hop loss bursts
		// and fail-silent relays are covered by the corpus too.
		routedGoldenSpec(route.PolicyStatic, nil),
		routedGoldenSpec(route.PolicyProbabilistic, nil),
		routedGoldenSpec(route.PolicyQLearning, RoutedGoldenScenario()),
	}
}

// GoldenDir is the corpus location relative to the repository root —
// the default for cmd/goldencheck and the location the package's own
// tests resolve via testdata.
const GoldenDir = "internal/validate/testdata/golden"

// CheckCorpus regenerates every spec (or only those whose names appear
// in only, when non-empty) and compares against the snapshots in dir.
// perturb, when nonzero, is added to every regenerated value before
// comparison — a self-test hook proving the comparator detects drift.
func CheckCorpus(dir string, only map[string]bool, perturb float64) error {
	checked := 0
	for _, spec := range GoldenSpecs() {
		if len(only) > 0 && !only[spec.Name] {
			continue
		}
		checked++
		want, err := LoadGolden(filepath.Join(dir, spec.File()))
		if err != nil {
			return err
		}
		got, err := spec.Regenerate()
		if err != nil {
			return err
		}
		if perturb != 0 {
			for i := range got.Series {
				for j := range got.Series[i].Values {
					got.Series[i].Values[j] += perturb
				}
			}
		}
		if err := CompareGolden(got, want); err != nil {
			return err
		}
	}
	if checked == 0 {
		return fmt.Errorf("validate: no golden specs matched the filter")
	}
	return nil
}
