package constellation

import (
	"math"
	"testing"
)

// TestWalkerConfig: the i:T/P/F mapping — RAAN spread by kind, phase
// offset F/planes, period from altitude — and its validation errors.
func TestWalkerConfig(t *testing.T) {
	cfg, err := WalkerConfig(WalkerDelta, 72, 22, 1, 53, 550, 4.5)
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Planes != 72 || cfg.ActivePerPlane != 22 || cfg.SparesPerPlane != 0 {
		t.Fatalf("unexpected shape: %+v", cfg)
	}
	if cfg.Walker != WalkerDelta {
		t.Fatalf("Walker = %v, want delta", cfg.Walker)
	}
	if want := 1.0 / 72; math.Abs(cfg.InterPlanePhaseFrac-want) > 1e-15 {
		t.Fatalf("phase frac %g, want F/P = %g", cfg.InterPlanePhaseFrac, want)
	}
	if cfg.PeriodMin < 94 || cfg.PeriodMin > 97 {
		t.Fatalf("550 km period = %g min, want ~95.6", cfg.PeriodMin)
	}

	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Delta: planes span the full 2π; plane 36 of 72 sits at π.
	p36, err := c.Plane(36)
	if err != nil {
		t.Fatal(err)
	}
	if d := math.Abs(p36.RAAN() - math.Pi); d > 1e-12 {
		t.Errorf("delta plane 36/72 RAAN = %g, want π", p36.RAAN())
	}

	star, err := WalkerConfig(WalkerStar, 6, 11, 1, 86.4, 780, 11)
	if err != nil {
		t.Fatal(err)
	}
	cs, err := New(star)
	if err != nil {
		t.Fatal(err)
	}
	// Star: planes span π; plane 3 of 6 sits at π/2.
	p3, err := cs.Plane(3)
	if err != nil {
		t.Fatal(err)
	}
	if d := math.Abs(p3.RAAN() - math.Pi/2); d > 1e-12 {
		t.Errorf("star plane 3/6 RAAN = %g, want π/2", p3.RAAN())
	}

	for _, bad := range []struct {
		name string
		fn   func() (Config, error)
	}{
		{"zero planes", func() (Config, error) { return WalkerConfig(WalkerStar, 0, 11, 0, 86.4, 780, 11) }},
		{"F out of range", func() (Config, error) { return WalkerConfig(WalkerStar, 6, 11, 6, 86.4, 780, 11) }},
		{"negative F", func() (Config, error) { return WalkerConfig(WalkerStar, 6, 11, -1, 86.4, 780, 11) }},
		{"zero altitude", func() (Config, error) { return WalkerConfig(WalkerStar, 6, 11, 1, 86.4, 0, 11) }},
		{"Tc too long", func() (Config, error) { return WalkerConfig(WalkerStar, 6, 11, 1, 86.4, 780, 1e6) }},
	} {
		if _, err := bad.fn(); err == nil {
			t.Errorf("%s: expected error", bad.name)
		}
	}
}

// TestPresetCatalog: every named preset validates, builds, and has the
// advertised satellite count; unknown names are rejected.
func TestPresetCatalog(t *testing.T) {
	wantTotals := map[string]int{
		PresetReference:   7 * (14 + 2),
		PresetIridiumNEXT: 6 * (11 + 1),
		PresetKepler:      7 * 20,
		PresetOneWeb:      18 * 36,
		PresetStarlink:    72 * 22,
	}
	names := PresetNames()
	if len(names) != len(wantTotals) {
		t.Fatalf("PresetNames() = %v, want %d entries", names, len(wantTotals))
	}
	for _, name := range names {
		cfg, err := PresetConfig(name)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if err := cfg.Validate(); err != nil {
			t.Fatalf("%s: invalid config: %v", name, err)
		}
		if got := cfg.TotalSatellites(); got != wantTotals[name] {
			t.Errorf("%s: %d total satellites, want %d", name, got, wantTotals[name])
		}
		if _, err := New(cfg); err != nil {
			t.Errorf("%s: New: %v", name, err)
		}
	}
	if _, err := PresetConfig("no-such-design"); err == nil {
		t.Error("unknown preset: expected error")
	}
	if cfg, _ := PresetConfig(PresetStarlink); cfg.Walker != WalkerDelta {
		t.Error("starlink preset should be a Walker delta")
	}
}

// TestDefaultPlaneCapacity: the reference design answers at the
// paper's k = 10, any other preset at its per-plane capacity clamped to
// the given ceiling.
func TestDefaultPlaneCapacity(t *testing.T) {
	for _, tc := range []struct {
		preset string
		maxK   int
		want   int
	}{
		{PresetReference, 20, 10},
		{PresetReference, 5, 10},
		{PresetKepler, 30, 20},
		{PresetOneWeb, 27, 27},
	} {
		cfg, err := PresetConfig(tc.preset)
		if err != nil {
			t.Fatal(err)
		}
		if got := DefaultPlaneCapacity(tc.preset, cfg, tc.maxK); got != tc.want {
			t.Errorf("%s, maxK %d: k = %d, want %d", tc.preset, tc.maxK, got, tc.want)
		}
	}
}

// TestWalkerKindStrings pins the flag-facing names.
func TestWalkerKindStrings(t *testing.T) {
	if WalkerStar.String() != "star" || WalkerDelta.String() != "delta" {
		t.Fatalf("kind strings: %q, %q", WalkerStar, WalkerDelta)
	}
	if WalkerKind(7).Valid() {
		t.Error("WalkerKind(7) should be invalid")
	}
	if err := (Config{Planes: 1, ActivePerPlane: 1, PeriodMin: 90, CoverageTimeMin: 9, Walker: WalkerKind(7)}).Validate(); err == nil {
		t.Error("Validate should reject unknown Walker kind")
	}
}

// RAAN returns the plane's right ascension of the ascending node in
// radians.
func (p *Plane) RAAN() float64 { return p.raan }
