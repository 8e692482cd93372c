package constellation

import (
	"fmt"
	"math"
	"slices"
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

// degradeScanned fails every third plane past its spares, so re-phased
// rings (shrunk k, shifted Δ) break the two-plane pairing next to full
// planes, then restores plane 0 so a restored ring is scanned as well.
func degradeScanned(t *testing.T, c *Constellation, rng *stats.RNG) {
	t.Helper()
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
			degradeScanned(t, c, rng)

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

// TestScannerPairingMatchesBruteForce covers the plane layouts that
// decide how scan pairs planes: an odd plane count and a single plane
// (the last plane scans alone), degraded planes whose shrunk k breaks
// the pairing next to full planes, a 64-satellite plane whose hits fill
// the whole pair mask, and 70-satellite planes too large to pair. Every
// layout must match the per-orbit path exactly, in plane-major order.
func TestScannerPairingMatchesBruteForce(t *testing.T) {
	odd := DefaultConfig()
	odd.Planes = 5
	single := DefaultConfig()
	single.Planes = 1
	wide := DefaultConfig()
	wide.Planes, wide.ActivePerPlane, wide.CoverageTimeMin = 4, 64, 40
	big := wide
	big.ActivePerPlane = 70
	for _, tc := range []struct {
		name    string
		cfg     Config
		degrade []int // planes failed past their spares
	}{
		{"odd-planes", odd, nil},
		{"single-plane", single, nil},
		{"degraded-neighbors", DefaultConfig(), []int{1, 4}},
		{"degraded-odd", odd, []int{2}},
		{"wide-64", wide, nil},
		{"wide-70", big, nil},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c, err := New(tc.cfg)
			if err != nil {
				t.Fatal(err)
			}
			for _, pi := range tc.degrade {
				p, err := c.Plane(pi)
				if err != nil {
					t.Fatal(err)
				}
				fails := p.SpareCount() + 2
				for f := 0; f < fails; f++ {
					if err := p.FailActive(); err != nil {
						t.Fatal(err)
					}
				}
				if p.ActiveCount() == tc.cfg.ActivePerPlane {
					t.Fatalf("plane %d still has %d active satellites", pi, p.ActiveCount())
				}
			}
			s := NewScanner(c)
			rng := stats.NewRNG(0x9a12, 0)
			prefix := SatRef{Plane: -1, Index: -1}
			maxHits := 0
			for i := 0; i < 400; i++ {
				target := orbit.LatLon{
					Lat: (rng.Float64() - 0.5) * math.Pi,
					Lon: (rng.Float64() - 0.5) * 2 * math.Pi,
				}
				tm := rng.Float64() * 3000
				want := bruteCovering(c, target, tm)
				got := s.AppendCovering([]SatRef{prefix}, target, tm)
				if len(got) != len(want)+1 || got[0] != prefix {
					t.Fatalf("trial %d: %d refs after the prefix, brute force %d", i, len(got)-1, len(want))
				}
				for j := range want {
					if got[j+1] != want[j] {
						t.Fatalf("trial %d: ref %d = %+v, want %+v", i, j, got[j+1], want[j])
					}
				}
				if n := s.CoverageCount(target, tm); n != len(want) {
					t.Fatalf("trial %d: CoverageCount %d, want %d", i, n, len(want))
				}
				maxHits = max(maxHits, len(want))
			}
			if maxHits == 0 {
				t.Fatal("no trial found a covering satellite")
			}
		})
	}
}

// TestScannerRingMatchesPoints: on every preset, at full strength and in
// TestScannerMatchesBruteForce's degradation state, CoverageCounts over a
// ring of longitudes gives every target exactly its CoverageCount, for
// rings that fill a block of 16, fall one short of or one past it, span
// several blocks, or hold a single target, at latitudes from pole to
// pole.
func TestScannerRingMatchesPoints(t *testing.T) {
	for _, degraded := range []bool{false, true} {
		for name, c := range scannerPresets(t) {
			rng := stats.NewRNG(0x21a9, 0)
			if degraded {
				degradeScanned(t, c, rng)
			}
			s := NewScanner(c)
			for _, latDeg := range []float64{-89.9, -60, 0, 30, 53, 89.9} {
				lat := latDeg * deg
				for _, size := range []int{1, 15, 16, 17, 40} {
					lons := make([]float64, size)
					counts := make([]int, size)
					for trial := 0; trial < 50; trial++ {
						for j := range lons {
							lons[j] = (rng.Float64() - 0.5) * 2 * math.Pi
						}
						tm := rng.Float64() * 3000
						s.CoverageCounts(counts, lat, lons, tm)
						for j, lon := range lons {
							want := s.CoverageCount(orbit.LatLon{Lat: lat, Lon: lon}, tm)
							if counts[j] != want {
								t.Fatalf("%s degraded=%t lat %g° ring %d trial %d: counts[%d] = %d, CoverageCount %d",
									name, degraded, latDeg, size, trial, j, counts[j], want)
							}
						}
					}
				}
			}
		}
	}
}

// TestScannerSteadyStateAllocs: once the destination slice has reached
// the covering set's high-water mark, AppendCovering, CoverageCount and
// a multi-block CoverageCounts allocate nothing.
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
	lons := make([]float64, 40)
	for j := range lons {
		lons[j] = float64(j) * 0.15
	}
	counts := make([]int, len(lons))
	tm := 0.0
	allocs := testing.AllocsPerRun(100, func() {
		tm += 0.05
		dst = s.AppendCovering(dst[:0], target, tm)
		_ = s.CoverageCount(target, tm)
		s.CoverageCounts(counts, target.Lat, lons, tm)
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

// TestSharedScannerConcurrent: eight goroutines query one full-strength
// and one degraded scanner at once, with no writer. Run under -race this
// is the memory-safety gate for sharing a Scanner; every count and
// covering set a reader observes must equal the per-orbit path on that
// scanner's constellation.
func TestSharedScannerConcurrent(t *testing.T) {
	cfg, err := PresetConfig("kepler")
	if err != nil {
		t.Fatal(err)
	}
	full, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
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
	target := orbit.LatLon{Lat: 50 * deg, Lon: 1.1}
	const tm = 42.5
	type shared struct {
		s    *Scanner
		want []SatRef
	}
	scanners := []shared{
		{NewScanner(full), bruteCovering(full, target, tm)},
		{NewScanner(degr), bruteCovering(degr, target, tm)},
	}

	var wg sync.WaitGroup
	errs := make(chan string, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var dst []SatRef
			for round := 0; round < 400; round++ {
				sc := scanners[(g+round)%len(scanners)]
				if n := sc.s.CoverageCount(target, tm); n != len(sc.want) {
					errs <- fmt.Sprintf("count %d, want %d", n, len(sc.want))
					return
				}
				dst = sc.s.AppendCovering(dst[:0], target, tm)
				if !slices.Equal(dst, sc.want) {
					errs <- fmt.Sprintf("covering set %v, want %v", dst, sc.want)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for msg := range errs {
		t.Error(msg)
	}
}

// Separation returns the great-circle angle (radians) between satellite
// ref's sub-point and the target at time t, computed from the scanner's
// unit-vector geometry. It is the validation hook that pins the fast
// scan's positions to the per-orbit path (the one acos here is off the
// scan hot path).
func (s *Scanner) Separation(ref SatRef, target orbit.LatLon, t float64) float64 {
	ps := &s.planes[ref.Plane]
	u := ps.phaseRef + 2*math.Pi*float64(ref.Index)/float64(ps.k) + ps.n*t
	sin, cos := math.Sincos(u)
	pos := ps.frame.UnitPosition(cos, sin)
	d := pos.Dot(target.UnitECI(t))
	if d > 1 {
		d = 1
	} else if d < -1 {
		d = -1
	}
	return math.Acos(d)
}
