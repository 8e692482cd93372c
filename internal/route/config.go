// Package route is the multi-hop inter-satellite-link (ISL) network:
// a constellation topology of intra-plane rings and cross-plane links,
// per-node FIFO egress queues with finite link capacity, transmission
// and propagation delay on the shared des kernel, and pluggable
// forwarding policies (static shortest-path, load-aware probabilistic
// local forwarding after Distributed Probabilistic Congestion Control,
// and a Q-learning distributed adaptive policy after Boyan–Littman
// Q-routing).
//
// The package plugs into internal/crosslink as a Router: when a
// crosslink Network has a route.Fabric attached, every emitted message
// traverses the ISL graph hop by hop — queueing, transmitting, and
// risking per-link loss and fail-silent relays — instead of the ideal
// delay-δ channel. The crosslink layer keeps the envelope pooling,
// epoch fencing, and per-cause accounting either way.
//
// Determinism: all stochastic choices (per-hop loss draws, probabilistic
// and ε-greedy forwarding, background-traffic arrivals) come from the
// fabric's RNG in deterministic event order, so a routed Monte-Carlo
// evaluation remains bit-identical at any worker count when each shard
// owns its fabric (and therefore its policy state, including Q-tables).
package route

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"strings"
)

// Policy names accepted in Config.Policy.
const (
	PolicyStatic        = "static"
	PolicyProbabilistic = "probabilistic"
	PolicyQLearning     = "qlearning"
)

// PolicyNames lists the supported forwarding policies.
func PolicyNames() []string {
	return []string{PolicyStatic, PolicyProbabilistic, PolicyQLearning}
}

// MaxNodes bounds planes × per_plane: large enough for every committed
// preset, small enough that the all-pairs hop tables stay cheap.
const MaxNodes = 4096

// ISL names one inter-satellite link by its endpoint node indices
// (node = plane·per_plane + index within plane).
type ISL struct {
	A int `json:"a"`
	B int `json:"b"`
}

// Config is the JSON-loadable description of a routed ISL network.
// The zero value is invalid; build one with Default or Parse.
type Config struct {
	// Name labels the configuration in reports.
	Name string `json:"name,omitempty"`
	// Policy selects the forwarding policy: static | probabilistic |
	// qlearning.
	Policy string `json:"policy"`
	// Planes and PerPlane shape the grid: node p·PerPlane+j is satellite
	// j of plane p. Intra-plane neighbors form a ring; cross-plane links
	// connect same-index satellites of adjacent planes.
	Planes   int `json:"planes"`
	PerPlane int `json:"per_plane"`
	// NoCrossPlane drops the cross-plane links (single-plane designs set
	// Planes to 1 instead; with Planes > 1 this usually disconnects the
	// graph and is rejected by Validate).
	NoCrossPlane bool `json:"no_cross_plane,omitempty"`
	// PlaneWrap closes the cross-plane chain into a ring (Walker delta:
	// the last plane links back to the first). Star constellations leave
	// the seam open.
	PlaneWrap bool `json:"plane_wrap,omitempty"`
	// ISLRatePerMin is the link capacity: packets a node can transmit per
	// minute (the transmission time of one packet is 1/rate). Zero or
	// negative capacity is rejected.
	ISLRatePerMin float64 `json:"isl_rate_per_min"`
	// PropDelayMin is the per-hop propagation delay (minutes).
	PropDelayMin float64 `json:"prop_delay_min,omitempty"`
	// QueueCap bounds each node's egress FIFO; a packet arriving at a
	// full queue is dropped (DroppedQueue).
	QueueCap int `json:"queue_cap"`
	// TrafficLoadPerMin is the background cross-traffic intensity:
	// Poisson packet arrivals per minute, uniform random source and
	// destination, competing with protocol traffic for queues and links.
	TrafficLoadPerMin float64 `json:"traffic_load_per_min,omitempty"`
	// GatewayPlane/GatewayIndex locate the ground-gateway satellite:
	// traffic addressed to the ground station is routed to this node and
	// downlinked there.
	GatewayPlane int `json:"gateway_plane,omitempty"`
	GatewayIndex int `json:"gateway_index,omitempty"`
	// Epsilon is the Q-learning exploration rate; Alpha its learning
	// rate. Zero selects the package defaults (0.1 and 0.25). Both must
	// lie in [0, 1].
	Epsilon float64 `json:"epsilon,omitempty"`
	// Alpha is the Q-learning update step size.
	Alpha float64 `json:"alpha,omitempty"`
	// ExtraISLs adds links beyond the grid; DisabledISLs removes grid
	// links (the graph must stay connected).
	ExtraISLs    []ISL `json:"extra_isls,omitempty"`
	DisabledISLs []ISL `json:"disabled_isls,omitempty"`
}

// Nodes returns the node count of the grid.
func (c Config) Nodes() int { return c.Planes * c.PerPlane }

// Gateway returns the gateway's node index.
func (c Config) Gateway() int { return c.GatewayPlane*c.PerPlane + c.GatewayIndex }

// Parse decodes a route configuration from JSON and validates it.
// Unknown fields are rejected — a typo in a config file must not
// silently reshape the network.
func Parse(data []byte) (*Config, error) {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var c Config
	if err := dec.Decode(&c); err != nil {
		return nil, fmt.Errorf("route: parse config: %w", err)
	}
	if err := c.Validate(); err != nil {
		return nil, err
	}
	return &c, nil
}

// Load reads and parses a route configuration file.
func Load(path string) (*Config, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("route: %w", err)
	}
	c, err := Parse(data)
	if err != nil {
		return nil, fmt.Errorf("route: %s: %w", path, err)
	}
	return c, nil
}

func finiteInRange(v, lo, hi float64) bool {
	return v >= lo && v <= hi && !math.IsNaN(v) && !math.IsInf(v, 0)
}

// Validate checks the configuration for scripting errors: an unknown
// policy, a degenerate grid, zero-capacity links, out-of-range knobs,
// malformed ISL overrides, and — the structural one — a disconnected
// graph, which would strand packets with no route to their destination.
func (c *Config) Validate() error {
	switch c.Policy {
	case PolicyStatic, PolicyProbabilistic, PolicyQLearning:
	default:
		return fmt.Errorf("route: unknown policy %q (want %s)", c.Policy, strings.Join(PolicyNames(), " | "))
	}
	switch {
	case c.Planes < 1:
		return fmt.Errorf("route: %d planes, need at least 1", c.Planes)
	case c.PerPlane < 1:
		return fmt.Errorf("route: %d satellites per plane, need at least 1", c.PerPlane)
	case c.Planes > MaxNodes || c.PerPlane > MaxNodes || c.Nodes() > MaxNodes:
		// Bounding the factors first keeps Planes × PerPlane from
		// overflowing int before the product is compared.
		return fmt.Errorf("route: %dx%d grid exceeds the %d-node ceiling", c.Planes, c.PerPlane, MaxNodes)
	case !(c.ISLRatePerMin > 0) || math.IsInf(c.ISLRatePerMin, 0):
		// !(x > 0) also rejects NaN: a zero-capacity link can never
		// transmit, so it is a configuration error, not a slow link.
		return fmt.Errorf("route: ISL rate %g packets/min must be positive and finite", c.ISLRatePerMin)
	case !finiteInRange(c.PropDelayMin, 0, math.MaxFloat64):
		return fmt.Errorf("route: propagation delay %g min must be finite and ≥ 0", c.PropDelayMin)
	case c.QueueCap < 1:
		return fmt.Errorf("route: queue capacity %d must be at least 1", c.QueueCap)
	case !finiteInRange(c.TrafficLoadPerMin, 0, math.MaxFloat64):
		return fmt.Errorf("route: traffic load %g packets/min must be finite and ≥ 0", c.TrafficLoadPerMin)
	case c.GatewayPlane < 0 || c.GatewayPlane >= c.Planes:
		return fmt.Errorf("route: gateway plane %d outside [0, %d)", c.GatewayPlane, c.Planes)
	case c.GatewayIndex < 0 || c.GatewayIndex >= c.PerPlane:
		return fmt.Errorf("route: gateway index %d outside [0, %d)", c.GatewayIndex, c.PerPlane)
	case !finiteInRange(c.Epsilon, 0, 1):
		return fmt.Errorf("route: epsilon %g outside [0, 1]", c.Epsilon)
	case !finiteInRange(c.Alpha, 0, 1):
		return fmt.Errorf("route: alpha %g outside [0, 1]", c.Alpha)
	}
	n := c.Nodes()
	for i, l := range c.ExtraISLs {
		if l.A < 0 || l.A >= n || l.B < 0 || l.B >= n {
			return fmt.Errorf("route: extra_isls[%d]: endpoints (%d, %d) outside [0, %d)", i, l.A, l.B, n)
		}
		if l.A == l.B {
			return fmt.Errorf("route: extra_isls[%d]: self-link at node %d", i, l.A)
		}
	}
	for i, l := range c.DisabledISLs {
		if l.A < 0 || l.A >= n || l.B < 0 || l.B >= n {
			return fmt.Errorf("route: disabled_isls[%d]: endpoints (%d, %d) outside [0, %d)", i, l.A, l.B, n)
		}
		if l.A == l.B {
			return fmt.Errorf("route: disabled_isls[%d]: self-link at node %d", i, l.A)
		}
	}
	adj := buildAdjacency(*c)
	if unreached := firstUnreachable(adj); unreached >= 0 {
		return fmt.Errorf("route: graph is disconnected: node %d unreachable from node 0", unreached)
	}
	return nil
}

// Default returns the reference routed network for a plane of perPlane
// satellites: a 7-plane Walker-star grid with open seam, a gateway in
// the middle plane (so alerts genuinely cross planes), link capacity of
// 20 packets/min (a 3-second transmission — sensor payloads, not
// datagrams), and a 16-packet queue. The Q-learning knobs take the
// package defaults.
func Default(policy string, perPlane int) Config {
	if perPlane < 1 {
		perPlane = 1
	}
	return Config{
		Name:          fmt.Sprintf("walker-star-7x%d", perPlane),
		Policy:        policy,
		Planes:        7,
		PerPlane:      perPlane,
		ISLRatePerMin: 20,
		PropDelayMin:  0.005,
		QueueCap:      16,
		GatewayPlane:  3,
		GatewayIndex:  perPlane / 2,
	}
}

// CLIConfig resolves the -route / -isl-capacity / -traffic-load flag
// triple shared by oaqbench and constsim: arg is either a policy name
// (yielding Default(policy, perPlane)) or a path to a JSON config file
// (recognized by a path separator or .json suffix); rate and load
// override the capacity and background traffic when positive. An empty
// arg means routing is off (nil, nil).
func CLIConfig(arg string, perPlane int, rate, load float64) (*Config, error) {
	if arg == "" {
		return nil, nil
	}
	var cfg *Config
	if strings.ContainsAny(arg, "/\\") || strings.HasSuffix(arg, ".json") {
		c, err := Load(arg)
		if err != nil {
			return nil, err
		}
		cfg = c
	} else {
		c := Default(arg, perPlane)
		cfg = &c
	}
	if rate > 0 {
		cfg.ISLRatePerMin = rate
	}
	if load > 0 {
		cfg.TrafficLoadPerMin = load
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return cfg, nil
}
