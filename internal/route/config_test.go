package route

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"satqos/internal/constellation"
)

// validConfig is a small, fully valid configuration tests perturb.
func validConfig() Config {
	return Config{
		Policy:        PolicyStatic,
		Planes:        3,
		PerPlane:      4,
		ISLRatePerMin: 60,
		PropDelayMin:  0.001,
		QueueCap:      4,
	}
}

func TestValidateAccepts(t *testing.T) {
	for _, policy := range PolicyNames() {
		c := validConfig()
		c.Policy = policy
		if err := c.Validate(); err != nil {
			t.Errorf("policy %s: %v", policy, err)
		}
	}
	c := validConfig()
	c.PlaneWrap = true
	c.TrafficLoadPerMin = 30
	c.GatewayPlane = 2
	c.GatewayIndex = 3
	c.Epsilon = 0.5
	c.Alpha = 1
	c.ExtraISLs = []ISL{{A: 0, B: 11}}
	c.DisabledISLs = []ISL{{A: 0, B: 1}}
	if err := c.Validate(); err != nil {
		t.Errorf("full config: %v", err)
	}
}

func TestValidateRejects(t *testing.T) {
	inf, nan := math.Inf(1), math.NaN()
	cases := []struct {
		name    string
		mutate  func(*Config)
		errPart string
	}{
		{"unknown policy", func(c *Config) { c.Policy = "flooding" }, "unknown policy"},
		{"empty policy", func(c *Config) { c.Policy = "" }, "unknown policy"},
		{"zero planes", func(c *Config) { c.Planes = 0 }, "planes"},
		{"zero per-plane", func(c *Config) { c.PerPlane = 0 }, "per plane"},
		{"too many nodes", func(c *Config) { c.Planes, c.PerPlane = 65, 64 }, "ceiling"},
		{"plane count overflow", func(c *Config) { c.Planes, c.PerPlane = 1<<62, 4 }, "ceiling"},
		{"zero capacity", func(c *Config) { c.ISLRatePerMin = 0 }, "ISL rate"},
		{"negative capacity", func(c *Config) { c.ISLRatePerMin = -5 }, "ISL rate"},
		{"NaN capacity", func(c *Config) { c.ISLRatePerMin = nan }, "ISL rate"},
		{"infinite capacity", func(c *Config) { c.ISLRatePerMin = inf }, "ISL rate"},
		{"negative prop delay", func(c *Config) { c.PropDelayMin = -1 }, "propagation delay"},
		{"NaN prop delay", func(c *Config) { c.PropDelayMin = nan }, "propagation delay"},
		{"zero queue cap", func(c *Config) { c.QueueCap = 0 }, "queue capacity"},
		{"negative load", func(c *Config) { c.TrafficLoadPerMin = -1 }, "traffic load"},
		{"NaN load", func(c *Config) { c.TrafficLoadPerMin = nan }, "traffic load"},
		{"gateway plane high", func(c *Config) { c.GatewayPlane = 3 }, "gateway plane"},
		{"gateway plane negative", func(c *Config) { c.GatewayPlane = -1 }, "gateway plane"},
		{"gateway index high", func(c *Config) { c.GatewayIndex = 4 }, "gateway index"},
		{"epsilon high", func(c *Config) { c.Epsilon = 1.5 }, "epsilon"},
		{"epsilon NaN", func(c *Config) { c.Epsilon = nan }, "epsilon"},
		{"alpha negative", func(c *Config) { c.Alpha = -0.1 }, "alpha"},
		{"extra ISL out of range", func(c *Config) { c.ExtraISLs = []ISL{{A: 0, B: 12}} }, "extra_isls"},
		{"extra ISL negative", func(c *Config) { c.ExtraISLs = []ISL{{A: -1, B: 2}} }, "extra_isls"},
		{"extra ISL self-link", func(c *Config) { c.ExtraISLs = []ISL{{A: 3, B: 3}} }, "self-link"},
		{"disabled ISL out of range", func(c *Config) { c.DisabledISLs = []ISL{{A: 99, B: 0}} }, "disabled_isls"},
		{"disabled ISL self-link", func(c *Config) { c.DisabledISLs = []ISL{{A: 1, B: 1}} }, "self-link"},
		{"disconnected planes", func(c *Config) { c.NoCrossPlane = true }, "disconnected"},
		{"disconnected by disabling", func(c *Config) {
			// Cutting every link of node 0 strands it.
			c.Planes = 1
			c.PerPlane = 4
			c.DisabledISLs = []ISL{{A: 0, B: 1}, {A: 3, B: 0}}
		}, "disconnected"},
	}
	for _, tc := range cases {
		c := validConfig()
		tc.mutate(&c)
		err := c.Validate()
		if err == nil {
			t.Errorf("%s: accepted", tc.name)
			continue
		}
		if !strings.Contains(err.Error(), tc.errPart) {
			t.Errorf("%s: error %q does not mention %q", tc.name, err, tc.errPart)
		}
	}
}

func TestParse(t *testing.T) {
	c, err := Parse([]byte(`{"policy":"qlearning","planes":2,"per_plane":3,"isl_rate_per_min":10,"queue_cap":2,"epsilon":0.2}`))
	if err != nil {
		t.Fatal(err)
	}
	if c.Policy != PolicyQLearning || c.Nodes() != 6 || c.Epsilon != 0.2 {
		t.Fatalf("parsed %+v", c)
	}
	if _, err := Parse([]byte(`{"policy":"static","planes":1,"per_plane":4,"isl_rate_per_min":10,"queue_cap":2,"warp_drive":true}`)); err == nil {
		t.Fatal("unknown field accepted")
	}
	if _, err := Parse([]byte(`not json`)); err == nil {
		t.Fatal("malformed JSON accepted")
	}
	if _, err := Parse([]byte(`{"policy":"static","planes":2,"per_plane":3}`)); err == nil {
		t.Fatal("zero-capacity config accepted")
	}
}

func TestLoad(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "net.json")
	c := validConfig()
	c.Name = "test-net"
	data, err := json.Marshal(c)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	got, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Name != "test-net" || got.Nodes() != 12 {
		t.Fatalf("loaded %+v", got)
	}
	if _, err := Load(filepath.Join(dir, "absent.json")); err == nil {
		t.Fatal("missing file accepted")
	}
}

func TestDefault(t *testing.T) {
	for _, policy := range PolicyNames() {
		c := Default(policy, 10)
		if err := c.Validate(); err != nil {
			t.Errorf("Default(%s, 10): %v", policy, err)
		}
		if c.Planes != 7 || c.PerPlane != 10 {
			t.Errorf("Default(%s, 10): grid %dx%d", policy, c.Planes, c.PerPlane)
		}
	}
	if c := Default(PolicyStatic, 0); c.PerPlane != 1 {
		t.Errorf("Default with perPlane 0: PerPlane=%d", c.PerPlane)
	}
}

func TestFromConstellation(t *testing.T) {
	cc := constellation.Config{Planes: 5, ActivePerPlane: 8, Walker: constellation.WalkerDelta}
	c := FromConstellation(cc, PolicyProbabilistic)
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
	if c.Planes != 5 || c.PerPlane != 8 || !c.PlaneWrap {
		t.Fatalf("delta-derived config %+v", c)
	}
	cc.Walker = constellation.WalkerStar
	if c := FromConstellation(cc, PolicyStatic); c.PlaneWrap {
		t.Fatal("star constellation must leave the seam open")
	}
}

func TestCLIConfig(t *testing.T) {
	if c, err := CLIConfig("", 10, 0, 0); c != nil || err != nil {
		t.Fatalf("empty arg: (%v, %v), want routing off", c, err)
	}
	c, err := CLIConfig(PolicyProbabilistic, 10, 40, 25)
	if err != nil {
		t.Fatal(err)
	}
	if c.Policy != PolicyProbabilistic || c.ISLRatePerMin != 40 || c.TrafficLoadPerMin != 25 {
		t.Fatalf("overrides not applied: %+v", c)
	}
	if _, err := CLIConfig("warp", 10, 0, 0); err == nil {
		t.Fatal("unknown policy accepted")
	}
	// A path argument loads a file.
	dir := t.TempDir()
	path := filepath.Join(dir, "net.json")
	vc := validConfig()
	data, _ := json.Marshal(vc)
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	got, err := CLIConfig(path, 10, 0, 12)
	if err != nil {
		t.Fatal(err)
	}
	if got.Planes != 3 || got.TrafficLoadPerMin != 12 {
		t.Fatalf("file config %+v", got)
	}
	if _, err := CLIConfig(filepath.Join(dir, "absent.json"), 10, 0, 0); err == nil {
		t.Fatal("missing file accepted")
	}
	// An override can invalidate a config; CLIConfig must re-validate.
	if _, err := CLIConfig(PolicyStatic, 0, 0, 0); err != nil {
		t.Fatalf("perPlane floor: %v", err)
	}
}

// FromConstellation derives a routed topology from a constellation
// design: one node per active satellite, plane wrap for Walker-delta
// layouts (their ascending nodes close the ring; star seams stay open),
// and the Default link parameters.
func FromConstellation(cc constellation.Config, policy string) Config {
	c := Default(policy, cc.ActivePerPlane)
	c.Name = fmt.Sprintf("walker-%dx%d", cc.Planes, cc.ActivePerPlane)
	c.Planes = cc.Planes
	c.PlaneWrap = cc.Walker == constellation.WalkerDelta && cc.Planes > 2
	c.GatewayPlane = cc.Planes / 2
	return c
}
