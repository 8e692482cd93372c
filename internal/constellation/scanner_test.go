package constellation

import (
	"math"
	"sync"
	"testing"

	"satqos/internal/orbit"
	"satqos/internal/parallel"
	"satqos/internal/stats"
)

// scannerPresets returns a fresh constellation per named design,
// including the paper's reference layout.
func scannerPresets(t *testing.T) map[string]*Constellation {
	t.Helper()
	out := make(map[string]*Constellation)
	for _, name := range PresetNames() {
		cfg, err := PresetConfig(name)
		if err != nil {
			t.Fatalf("preset %s: %v", name, err)
		}
		c, err := New(cfg)
		if err != nil {
			t.Fatalf("preset %s: %v", name, err)
		}
		out[name] = c
	}
	return out
}

const deg = math.Pi / 180

// bruteCovering filters the per-orbit reference path down to the refs
// the scanner reports.
func bruteCovering(c *Constellation, target orbit.LatLon, t float64) []SatRef {
	var refs []SatRef
	for _, v := range c.CoveringSatellites(target, t) {
		if v.Covers {
			refs = append(refs, SatRef{Plane: v.Plane, Index: v.Index})
		}
	}
	return refs
}

// TestScannerMatchesBruteForce: across every preset, random targets,
// times, and degradation states, the fast scan's covering set equals the
// per-orbit path's Covers bits exactly (same refs, same order), its
// count matches SimultaneousCoverageCount, and its unit-vector
// separations agree with the haversine path to 1e-9 — at 1 worker and at
// 8 workers querying one shared scanner.
func TestScannerMatchesBruteForce(t *testing.T) {
	for _, workers := range []int{1, 8} {
		for name, c := range scannerPresets(t) {
			rng := stats.NewRNG(0x5ca27e5, uint64(workers))
			// Degrade a few planes past their spares so re-phased rings
			// (shrunk k, shifted Δ) are exercised too, then restore one so
			// version-tracking after a restore is covered.
			for pi := 0; pi < c.Planes(); pi += 3 {
				p, err := c.Plane(pi)
				if err != nil {
					t.Fatal(err)
				}
				fails := p.SpareCount() + 1 + int(rng.Uint64()%2)
				for f := 0; f < fails; f++ {
					if err := p.FailActive(); err != nil {
						t.Fatal(err)
					}
				}
			}
			if p, _ := c.Plane(0); p != nil {
				p.RestoreFull()
			}

			type trial struct {
				target orbit.LatLon
				t      float64
			}
			trials := make([]trial, 64)
			for i := range trials {
				trials[i] = trial{
					target: orbit.LatLon{
						Lat: (rng.Float64() - 0.5) * math.Pi,
						Lon: (rng.Float64() - 0.5) * 2 * math.Pi,
					},
					t: rng.Float64() * 3000,
				}
			}

			// One scanner serves every worker: queries read its shared
			// immutable snapshot.
			s := NewScanner(c)
			err := parallel.Map(workers, len(trials), func(i int) error {
				tr := trials[i]
				want := bruteCovering(c, tr.target, tr.t)
				got := s.AppendCovering(nil, tr.target, tr.t)
				if len(got) != len(want) {
					t.Errorf("%s workers=%d trial %d: fast scan found %d covering, brute force %d",
						name, workers, i, len(got), len(want))
					return nil
				}
				for j := range got {
					if got[j] != want[j] {
						t.Errorf("%s workers=%d trial %d: ref %d = %+v, want %+v",
							name, workers, i, j, got[j], want[j])
					}
					sep := s.Separation(got[j], tr.target, tr.t)
					p, err := c.Plane(got[j].Plane)
					if err != nil {
						return err
					}
					ref := orbit.GreatCircle(p.ActiveOrbit(got[j].Index).SubSatellite(tr.t), tr.target)
					if d := math.Abs(sep - ref); d > 1e-9 {
						t.Errorf("%s workers=%d trial %d: separation %g vs per-orbit %g (off by %g)",
							name, workers, i, sep, ref, d)
					}
				}
				if n := s.CoverageCount(tr.target, tr.t); n != c.SimultaneousCoverageCount(tr.target, tr.t) {
					t.Errorf("%s workers=%d trial %d: CoverageCount %d, want %d",
						name, workers, i, n, c.SimultaneousCoverageCount(tr.target, tr.t))
				}
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
		}
	}
}

// TestScannerTracksDegradation: a scanner built before failures picks up
// re-phased rings (and restores) via the plane version counter, without
// being rebuilt.
func TestScannerTracksDegradation(t *testing.T) {
	cfg := DefaultConfig()
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s := NewScanner(c)
	target := orbit.LatLon{Lat: 0.6, Lon: -1.2}

	check := func(stage string) {
		t.Helper()
		for _, tm := range []float64{0, 7.3, 41.9, 200.5} {
			got := s.AppendCovering(nil, target, tm)
			want := bruteCovering(c, target, tm)
			if len(got) != len(want) {
				t.Fatalf("%s t=%g: fast %d vs brute %d", stage, tm, len(got), len(want))
			}
			for j := range got {
				if got[j] != want[j] {
					t.Fatalf("%s t=%g: ref %d = %+v, want %+v", stage, tm, j, got[j], want[j])
				}
			}
		}
	}

	check("fresh")
	p, err := c.Plane(2)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < cfg.SparesPerPlane+3; i++ {
		if err := p.FailActive(); err != nil {
			t.Fatal(err)
		}
	}
	check("degraded")
	c.DeployScheduled()
	check("restored")
}

// TestScannerSteadyStateAllocs: once the destination slice has reached
// the covering set's high-water mark, AppendCovering and CoverageCount
// allocate nothing.
func TestScannerSteadyStateAllocs(t *testing.T) {
	cfg, err := PresetConfig(PresetStarlink)
	if err != nil {
		t.Fatal(err)
	}
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s := NewScanner(c)
	target := orbit.LatLon{Lat: 0.4, Lon: 0.9}
	dst := s.AppendCovering(nil, target, 0)
	tm := 0.0
	allocs := testing.AllocsPerRun(100, func() {
		tm += 0.05
		dst = s.AppendCovering(dst[:0], target, tm)
		_ = s.CoverageCount(target, tm)
	})
	if allocs != 0 {
		t.Errorf("steady-state scan allocates %.1f allocs/op, want 0", allocs)
	}
}

// TestScannerBandRejectionIsConservative: a target near the pole of an
// inclined delta shell is never covered; the band must reject every
// plane without the dot product ever disagreeing.
func TestScannerBandRejectionIsConservative(t *testing.T) {
	cfg, err := PresetConfig(PresetStarlink)
	if err != nil {
		t.Fatal(err)
	}
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s := NewScanner(c)
	pole := orbit.LatLon{Lat: 88 * math.Pi / 180, Lon: 0.3}
	for _, tm := range []float64{0, 33.3, 777.7} {
		if got := s.AppendCovering(nil, pole, tm); len(got) != 0 {
			t.Fatalf("t=%g: 53-degree shell covers an 88-degree target: %v", tm, got)
		}
		if n := c.SimultaneousCoverageCount(pole, tm); n != 0 {
			t.Fatalf("t=%g: brute force disagrees: %d", tm, n)
		}
	}
}

// TestScannerUpdateMatchesBruteForce: after every Update-driven fail and
// restore step, on every preset, the scanner's covering set and count
// equal the per-orbit brute-force path on the mutated constellation.
func TestScannerUpdateMatchesBruteForce(t *testing.T) {
	target := orbit.LatLon{Lat: 30 * deg, Lon: 0.4}
	for name, c := range scannerPresets(t) {
		s := NewScanner(c)
		check := func(stage string) {
			t.Helper()
			var got []SatRef
			for _, tm := range []float64{0, 13.7, 55.25, 101.9} {
				got = s.AppendCovering(got[:0], target, tm)
				want := bruteCovering(c, target, tm)
				if len(got) != len(want) {
					t.Fatalf("%s %s t=%g: %d covering, want %d", name, stage, tm, len(got), len(want))
				}
				for i := range got {
					if got[i] != want[i] {
						t.Fatalf("%s %s t=%g: sat %d = %+v, want %+v", name, stage, tm, i, got[i], want[i])
					}
				}
				if n := s.CoverageCount(target, tm); n != len(want) {
					t.Fatalf("%s %s t=%g: CoverageCount %d, want %d", name, stage, tm, n, len(want))
				}
			}
		}
		check("full")

		// Degrade plane 0 past its spares, so its ring re-phases.
		s.Update(func(c *Constellation) {
			p, err := c.Plane(0)
			if err != nil {
				t.Fatal(err)
			}
			fails := p.SpareCount() + 2
			for i := 0; i < fails; i++ {
				if err := p.FailActive(); err != nil {
					t.Fatal(err)
				}
			}
		})
		check("degraded")

		s.Update(func(c *Constellation) { c.DeployScheduled() })
		check("restored")
	}
}

// TestSharedScannerConcurrent: concurrent readers race a writer that
// fails and restores planes through Update. Run under -race this is the memory-safety gate; the
// invariant checked is that every count a reader observes matches one
// of the constellation states the writer publishes.
func TestSharedScannerConcurrent(t *testing.T) {
	cfg, err := PresetConfig("kepler")
	if err != nil {
		t.Fatal(err)
	}
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s := NewScanner(c)
	target := orbit.LatLon{Lat: 50 * deg, Lon: 1.1}
	const tm = 42.5

	// The writer alternates between exactly two published states:
	// full strength and plane 0 degraded by spares+1 failures. Compute
	// both expected counts up front from private constellations.
	full, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	wantFull := NewScanner(full).CoverageCount(target, tm)
	degr, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	dp, err := degr.Plane(0)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i <= cfg.SparesPerPlane; i++ {
		if err := dp.FailActive(); err != nil {
			t.Fatal(err)
		}
	}
	wantDegraded := NewScanner(degr).CoverageCount(target, tm)

	var wg sync.WaitGroup
	stop := make(chan struct{})
	errs := make(chan string, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var dst []SatRef
			for {
				select {
				case <-stop:
					return
				default:
				}
				n := s.CoverageCount(target, tm)
				if n != wantFull && n != wantDegraded {
					select {
					case errs <- "count matches neither published state":
					default:
					}
					return
				}
				dst = s.AppendCovering(dst[:0], target, tm)
				if len(dst) != wantFull && len(dst) != wantDegraded {
					select {
					case errs <- "covering set matches neither published state":
					default:
					}
					return
				}
			}
		}()
	}
	for round := 0; round < 200; round++ {
		s.Update(func(c *Constellation) {
			p, err := c.Plane(0)
			if err != nil {
				t.Error(err)
				return
			}
			for i := 0; i <= cfg.SparesPerPlane; i++ {
				if err := p.FailActive(); err != nil {
					t.Error(err)
					return
				}
			}
		})
		s.Update(func(c *Constellation) { c.DeployScheduled() })
	}
	close(stop)
	wg.Wait()
	select {
	case msg := <-errs:
		t.Fatal(msg)
	default:
	}
	if n := s.CoverageCount(target, tm); n != wantFull {
		t.Fatalf("count after the final restore = %d, want %d", n, wantFull)
	}
}
