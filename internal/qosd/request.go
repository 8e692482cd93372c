package qosd

import (
	"bytes"
	"cmp"
	"encoding/json"
	"fmt"
	"math"
	"math/bits"
	"strconv"
	"strings"

	"satqos/internal/capacity"
	"satqos/internal/constellation"
	"satqos/internal/fault"
	"satqos/internal/oaq"
	"satqos/internal/qos"
	"satqos/internal/stats"
	"satqos/internal/stochgeom"
)

// Deployment selects the plane-capacity model composed into the
// analytic answer: the threshold-triggered + scheduled ground-spare
// policies of §4.2.2, with N and S taken from the request's preset.
type Deployment struct {
	// Eta is the threshold η of the threshold-triggered policy.
	Eta int `json:"eta"`
	// LambdaPerHour is the per-satellite failure rate λ (hours⁻¹).
	LambdaPerHour float64 `json:"lambda_per_hour"`
	// PhiHours is the scheduled-deployment period φ (hours).
	PhiHours float64 `json:"phi_hours"`
}

// ShellSpec is one shell of an explicit stochastic-geometry design:
// N satellites at a common altitude and inclination, with the coverage
// half-angle derived from exactly one of a minimum-elevation mask or a
// coverage time; a negative value of either is an error. A request
// carrying shells bypasses the preset's geometry (LEO/MEO hybrids have
// no preset).
type ShellSpec struct {
	N               int     `json:"n"`
	AltitudeKm      float64 `json:"altitude_km"`
	InclinationDeg  float64 `json:"inclination_deg"`
	MinElevationDeg float64 `json:"min_elevation_deg,omitempty"`
	CoverageTimeMin float64 `json:"coverage_time_min,omitempty"`
}

// shell resolves the spec into a validated stochgeom.Shell.
func (sp ShellSpec) shell() (stochgeom.Shell, error) {
	s := stochgeom.Shell{
		N:              sp.N,
		AltitudeKm:     sp.AltitudeKm,
		InclinationDeg: sp.InclinationDeg,
	}
	var err error
	switch {
	case sp.MinElevationDeg < 0:
		return s, fmt.Errorf("shell: min_elevation_deg %g must be positive", sp.MinElevationDeg)
	case sp.CoverageTimeMin < 0:
		return s, fmt.Errorf("shell: coverage_time_min %g must be positive", sp.CoverageTimeMin)
	case sp.MinElevationDeg > 0 && sp.CoverageTimeMin > 0:
		return s, fmt.Errorf("shell: give min_elevation_deg or coverage_time_min, not both")
	case sp.MinElevationDeg > 0:
		if s.HalfAngle, err = stochgeom.HalfAngleFromElevationDeg(sp.AltitudeKm, sp.MinElevationDeg); err != nil {
			return s, fmt.Errorf("shell: min_elevation_deg: %v", err)
		}
	case sp.CoverageTimeMin > 0:
		if s.HalfAngle, err = stochgeom.HalfAngleFromCoverageTime(sp.AltitudeKm, sp.CoverageTimeMin); err != nil {
			return s, fmt.Errorf("shell: coverage_time_min: %v", err)
		}
	default:
		return s, fmt.Errorf("shell: needs min_elevation_deg or coverage_time_min")
	}
	return s, s.Validate()
}

// Request is the /v1/evaluate body: a constellation design + protocol
// operating point + fault scenario + deployment policy, and the answer
// mode. Zero values select the paper's §4.3 defaults.
type Request struct {
	// Mode is the evaluation path: "analytic" (closed-form, instant),
	// "montecarlo" (simulated episodes; sheds 429 under load),
	// "stochgeom" (closed-form binomial-point-process visibility,
	// instant at any fleet size), or "auto" (default), which takes the
	// first of stochgeom (shells or fleets of at least 1000 satellites),
	// montecarlo and analytic that models every field the request sets.
	// The backends table says which fields each backend models.
	Mode string `json:"mode"`
	// Preset names the constellation design (constellation.PresetNames);
	// default "reference".
	Preset string `json:"preset"`
	// K is the plane's active capacity; 0 derives it from the preset
	// (constellation.DefaultPlaneCapacity).
	K int `json:"k"`
	// Scheme is "oaq" (default) or "baq".
	Scheme string `json:"scheme"`
	// TauMin, Mu, Nu are τ, µ, ν (defaults 5, 0.5, 30).
	TauMin float64 `json:"tau_min"`
	Mu     float64 `json:"mu"`
	Nu     float64 `json:"nu"`
	// FailSilentProb, LossProb, Retries, Backward configure the protocol
	// simulation.
	FailSilentProb float64 `json:"fail_silent_prob"`
	LossProb       float64 `json:"loss_prob"`
	Retries        int     `json:"retries"`
	Backward       bool    `json:"backward"`
	// Faults is an inline fault-scenario document (the same JSON schema
	// the CLIs' -faults flag loads from a file).
	Faults json.RawMessage `json:"faults,omitempty"`
	// Deployment, when present, composes the answer over the
	// plane-capacity distribution P(k) instead of conditioning on K.
	Deployment *Deployment `json:"deployment,omitempty"`
	// Episodes is the Monte-Carlo budget (default 20000, capped by the
	// server's -max-episodes). Other backends ignore it.
	Episodes int `json:"episodes"`
	// Seed is the Monte-Carlo RNG seed (default 2003). Same params +
	// seed ⇒ bit-identical answer at any server worker count.
	Seed uint64 `json:"seed"`
	// TimeoutMS bounds this request's evaluation wall-clock; 0 uses the
	// server default. The deadline cancels the episode engine mid-run.
	TimeoutMS int `json:"timeout_ms"`

	// LatitudeDeg is the ground-target latitude of the visibility law
	// (default 30, the paper's mid-latitude band).
	LatitudeDeg *float64 `json:"latitude_deg,omitempty"`
	// MinElevationDeg, when set, must lie in (0, 90): it derives the
	// preset shell's coverage half-angle from an elevation mask instead
	// of the preset's coverage time. A request with shells sets the mask
	// on each shell instead.
	MinElevationDeg float64 `json:"min_elevation_deg,omitempty"`
	// MinSats is the localizability threshold L in P(K ≥ L) (default 4).
	MinSats int `json:"min_sats,omitempty"`
	// Shells replaces the preset's geometry with an explicit LEO/MEO
	// shell mixture.
	Shells []ShellSpec `json:"shells,omitempty"`
}

// fieldSet is a set of request model fields, one bit each in fieldNames
// order. It holds only the fields some backend does not model: every
// backend models k, scheme, tau_min, mu and nu, and episodes, seed and
// timeout_ms are budget fields. A field is set when it is non-zero or
// non-nil; a JSON null leaves it unset.
type fieldSet uint16

const (
	fieldDeployment fieldSet = 1 << iota
	fieldLossProb
	fieldFailSilentProb
	fieldRetries
	fieldBackward
	fieldFaults
	fieldShells
	fieldMinElevation
	fieldLatitude
	fieldMinSats
)

var fieldNames = [...]string{"deployment", "loss_prob", "fail_silent_prob", "retries",
	"backward", "faults", "shells", "min_elevation_deg", "latitude_deg", "min_sats"}

// modelFields returns the set of model fields the request sets, tested
// in fieldNames order.
func (req *Request) modelFields() (s fieldSet) {
	for i, set := range [...]bool{req.Deployment != nil, req.LossProb != 0, req.FailSilentProb != 0,
		req.Retries != 0, req.Backward, req.hasFaults(),
		len(req.Shells) > 0, req.MinElevationDeg != 0, req.LatitudeDeg != nil, req.MinSats != 0} {
		if set {
			s |= 1 << i
		}
	}
	return s
}

// hasFaults reports whether the request sets faults: a document other
// than JSON null. The backends table, the simulation parameters and the
// cache key all read faults through it.
func (req *Request) hasFaults() bool {
	return len(req.Faults) > 0 && string(req.Faults) != "null"
}

// String lists the set's field names: "a", "a and b", "a, b and c".
func (s fieldSet) String() string {
	var names []string
	for ; s != 0; s &= s - 1 {
		names = append(names, fieldNames[bits.TrailingZeros16(uint16(s))])
	}
	if len(names) < 2 {
		return strings.Join(names, "")
	}
	return strings.Join(names[:len(names)-1], ", ") + " and " + names[len(names)-1]
}

// backend is one row of the backends table.
type backend struct {
	mode      string
	models    fieldSet // the fields it models beyond the operating point
	capped    bool     // answers only k, or a deployment's N, up to the two-regime ceiling
	largeOnly bool     // auto takes it only for shells or at least enumLimit satellites
}

// backends is the one statement of which request fields each backend
// models, in the order auto tries them. pick and the degrade path of
// Server.evaluate read it; the package doc states their rules.
var backends = [...]backend{
	{mode: ModeStochGeom, models: fieldShells | fieldMinElevation | fieldLatitude | fieldMinSats, largeOnly: true},
	{mode: ModeMonteCarlo, models: fieldLossProb | fieldFailSilentProb | fieldRetries | fieldBackward | fieldFaults},
	{mode: ModeAnalytic, models: fieldDeployment, capped: true},
}

// row returns the table row of an explicit mode, or nil.
func row(mode string) *backend {
	for i := range backends {
		if backends[i].mode == mode {
			return &backends[i]
		}
	}
	return nil
}

// resolved is a validated request with every default applied: the
// simulation parameters, the analytic model, the optional capacity
// distribution parameters, and the canonical cache key.
type resolved struct {
	mode     string
	backend  string // the compute path the mode deterministically resolves to
	preset   string
	scheme   qos.Scheme
	k        int
	episodes int // the Monte-Carlo budget; 0 on other backends
	seed     uint64
	params   oaq.Params
	model    qos.Model
	capures  *capacity.Params // nil without a deployment policy
	maxK     int              // the analytic model's two-regime capacity ceiling
	topK     int              // k, or a deployment's N: the top capacity the analytic model would see
	fields   fieldSet         // the model fields the request sets
	key      string

	// Stochastic-geometry backend state (zero unless backend is
	// ModeStochGeom).
	design  stochgeom.Design
	lat     float64 // target latitude, radians
	minSats int
}

// enumLimit is the fleet size at which auto mode answers from the
// stochastic-geometry backend instead of position enumeration
// (Monte-Carlo). The choice is a pure function of the request, so it
// can key the response cache.
const enumLimit = 1000

// maxShellSatellites bounds the satellites of an explicit shell
// mixture: the visible-count law costs memory linear, and time
// quadratic, in the design's satellite count.
const maxShellSatellites = 50_000

// resolve validates the request against the server limits and fills in
// defaults, mirroring how cmd/constsim derives protocol parameters from
// a constellation preset, and picks the backend from the backends
// table. Every error it returns is the client's (HTTP 400).
func (req *Request) resolve(maxEpisodes int) (*resolved, error) {
	r := &resolved{
		mode:   cmp.Or(req.Mode, ModeAuto),
		preset: cmp.Or(req.Preset, constellation.PresetReference),
		fields: req.modelFields(),
	}
	if r.mode != ModeAuto && row(r.mode) == nil {
		return nil, fmt.Errorf("unknown mode %q (analytic | montecarlo | stochgeom | auto)", r.mode)
	}
	presetCfg, err := constellation.PresetConfig(r.preset)
	if err != nil {
		return nil, err
	}
	if r.scheme, err = qos.ParseScheme(cmp.Or(req.Scheme, "oaq")); err != nil {
		return nil, err
	}
	geom, err := qos.NewGeometry(presetCfg.PeriodMin, presetCfg.CoverageTimeMin)
	if err != nil {
		return nil, err
	}
	r.maxK = geom.MaxTwoRegimeCapacity()
	r.k = cmp.Or(req.K, constellation.DefaultPlaneCapacity(r.preset, presetCfg, r.maxK))
	r.topK = r.k
	if d := req.Deployment; d != nil {
		cp := capacity.Params{
			ActivePerPlane: presetCfg.ActivePerPlane,
			Spares:         presetCfg.SparesPerPlane,
			Eta:            d.Eta,
			LambdaPerHour:  d.LambdaPerHour,
			PhiHours:       d.PhiHours,
		}
		if err := cp.Validate(); err != nil {
			return nil, err
		}
		r.capures, r.topK = &cp, cp.ActivePerPlane
	}
	large := len(req.Shells) > 0 || presetCfg.Planes*presetCfg.ActivePerPlane >= enumLimit
	if err := r.pick(large); err != nil {
		return nil, err
	}

	tau, mu, nu := cmp.Or(req.TauMin, 5), cmp.Or(req.Mu, 0.5), cmp.Or(req.Nu, 30)

	p := oaq.ReferenceParams(r.k, r.scheme)
	p.Geom = geom
	p.TauMin = tau
	p.SignalDuration = stats.Exponential{Rate: mu}
	p.ComputeTime = stats.Exponential{Rate: nu}
	p.BackwardMessaging = req.Backward
	p.FailSilentProb = req.FailSilentProb
	p.MessageLossProb = req.LossProb
	p.RequestRetries = req.Retries
	if req.hasFaults() {
		s, err := fault.Parse(req.Faults)
		if err != nil {
			return nil, err
		}
		p.Faults = s
	}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	r.params = p

	if r.model, err = qos.NewModel(geom, tau, mu, nu); err != nil {
		return nil, err
	}

	if r.backend == ModeStochGeom {
		latDeg := 30.0
		if req.LatitudeDeg != nil {
			latDeg = *req.LatitudeDeg
		}
		if math.IsNaN(latDeg) || latDeg < -90 || latDeg > 90 {
			return nil, fmt.Errorf("latitude_deg %g outside [-90, 90]", latDeg)
		}
		r.lat = latDeg * math.Pi / 180
		if r.minSats = cmp.Or(req.MinSats, 4); r.minSats < 1 {
			return nil, fmt.Errorf("min_sats %d must be at least 1", r.minSats)
		}
		switch mask := req.MinElevationDeg; {
		case mask == 0:
		case len(req.Shells) > 0:
			return nil, fmt.Errorf("min_elevation_deg: a request with shells sets the mask on each shell")
		case !(mask > 0 && mask < 90):
			return nil, fmt.Errorf("min_elevation_deg %g outside (0, 90)", mask)
		}
		if len(req.Shells) > 0 {
			total := 0
			for i, sp := range req.Shells {
				s, err := sp.shell()
				if err != nil {
					return nil, fmt.Errorf("shell %d: %v", i, err)
				}
				if s.N > maxShellSatellites-total {
					return nil, fmt.Errorf("shells hold more than %d satellites", maxShellSatellites)
				}
				total += s.N
				r.design.Shells = append(r.design.Shells, s)
			}
		} else {
			s, err := stochgeom.ShellFromConfig(presetCfg)
			if err != nil {
				return nil, err
			}
			if req.MinElevationDeg > 0 {
				if s.HalfAngle, err = stochgeom.HalfAngleFromElevationDeg(s.AltitudeKm, req.MinElevationDeg); err != nil {
					return nil, fmt.Errorf("min_elevation_deg: %v", err)
				}
			}
			r.design.Shells = []stochgeom.Shell{s}
		}
		if err := r.design.Validate(); err != nil {
			return nil, err
		}
	}

	if req.Episodes < 0 {
		return nil, fmt.Errorf("episode budget %d must be positive", req.Episodes)
	}
	if r.backend == ModeMonteCarlo {
		if r.episodes = cmp.Or(req.Episodes, 20000); r.episodes > maxEpisodes {
			return nil, fmt.Errorf("episode budget %d exceeds the server cap %d", r.episodes, maxEpisodes)
		}
	}
	r.seed = cmp.Or(req.Seed, 2003)
	if req.TimeoutMS < 0 {
		return nil, fmt.Errorf("negative timeout_ms %d", req.TimeoutMS)
	}

	r.key = r.canonicalKey(req)
	return r, nil
}

// pick sets r.backend from the backends table: the explicit mode's row
// or, for auto, the first row that models the request. large says
// whether auto may take a largeOnly row.
func (r *resolved) pick(large bool) error {
	var ruledOut fieldSet             // the set fields that ruled a row out
	overCap, tooSmall := false, false // a row failed only on capacity or size
	for i := range backends {
		b := &backends[i]
		if r.mode != ModeAuto && r.mode != b.mode {
			continue
		}
		missing := r.fields &^ b.models
		switch {
		case missing != 0 && r.mode != ModeAuto:
			return fmt.Errorf("mode %s does not model %s", b.mode, missing)
		case missing != 0:
			ruledOut |= missing
		case !r.fits(b):
			overCap = true
		case b.largeOnly && !large && r.mode == ModeAuto:
			tooSmall = true
		default:
			r.backend = b.mode
			return nil
		}
	}
	switch {
	case overCap:
		name := "k"
		if r.capures != nil {
			name = "deployment"
		}
		return fmt.Errorf("%s: capacity %d exceeds the analytic model's two-regime ceiling %d for preset %s",
			name, r.topK, r.maxK, r.preset)
	case tooSmall:
		return fmt.Errorf("auto answers %s from stochgeom only for shells or designs of at least %d satellites; ask for mode stochgeom",
			r.fields, enumLimit)
	case bits.OnesCount16(uint16(ruledOut)) == 2:
		return fmt.Errorf("no backend models both %s", ruledOut)
	default:
		return fmt.Errorf("no backend models all of %s", ruledOut)
	}
}

// fits reports whether row b models the request: every set field, and
// its capacity when the row is capped.
func (r *resolved) fits(b *backend) bool {
	return r.fields&^b.models == 0 && (!b.capped || r.topK <= r.maxK)
}

// canonicalKey encodes every resolved evaluation parameter — after
// defaulting, so spelled-out and implied defaults collide — into a
// deterministic string. Floats enter as exact hex-float encodings (the
// qos G-table memo idiom), never formatted decimals, so two keys are
// equal exactly when the evaluations are.
//
// The key leads with the resolved backend, not the requested mode:
// stochgeom and montecarlo answers for the same design must never
// collide in the cache, while mode spellings that provably produce the
// same bits (auto resolving to montecarlo vs. explicit montecarlo)
// must share an entry.
func (r *resolved) canonicalKey(req *Request) string {
	var b strings.Builder
	hx := func(v float64) {
		b.WriteString(strconv.FormatUint(math.Float64bits(v), 16))
		b.WriteByte('|')
	}
	b.WriteString(r.backend)
	b.WriteByte('|')
	b.WriteString(r.preset)
	b.WriteByte('|')
	fmt.Fprintf(&b, "%d|%d|", r.k, int(r.scheme))
	hx(r.params.TauMin)
	hx(r.params.SignalDuration.(stats.Exponential).Rate)
	hx(r.params.ComputeTime.(stats.Exponential).Rate)
	hx(r.params.FailSilentProb)
	hx(r.params.MessageLossProb)
	fmt.Fprintf(&b, "%d|%t|", r.params.RequestRetries, r.params.BackwardMessaging)
	if req.hasFaults() {
		// Compact the raw scenario JSON so formatting differences don't
		// split the key (field order still matters; acceptable — a miss
		// only costs a recompute).
		b.WriteString(compactJSON(req.Faults))
	}
	b.WriteByte('|')
	if c := r.capures; c != nil {
		fmt.Fprintf(&b, "%d|%d|%d|", c.ActivePerPlane, c.Spares, c.Eta)
		hx(c.LambdaPerHour)
		hx(c.PhiHours)
	}
	b.WriteByte('|')
	fmt.Fprintf(&b, "%d|%d", r.episodes, r.seed)
	if r.backend == ModeStochGeom {
		b.WriteByte('|')
		hx(r.lat)
		fmt.Fprintf(&b, "%d|", r.minSats)
		for _, s := range r.design.Shells {
			fmt.Fprintf(&b, "%d|", s.N)
			hx(s.AltitudeKm)
			hx(s.InclinationDeg)
			hx(s.HalfAngle)
		}
	}
	return b.String()
}

// compactJSON returns the whitespace-compacted form of raw (or the raw
// string itself when compaction fails; validation already rejected
// malformed scenarios).
func compactJSON(raw json.RawMessage) string {
	var b bytes.Buffer
	if err := json.Compact(&b, raw); err != nil {
		return string(raw)
	}
	return b.String()
}
