package qosd

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
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
// coverage time. A request carrying shells bypasses the preset's
// geometry (LEO/MEO hybrids have no preset).
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
	case sp.MinElevationDeg > 0 && sp.CoverageTimeMin > 0:
		return s, fmt.Errorf("shell: give min_elevation_deg or coverage_time_min, not both")
	case sp.MinElevationDeg > 0:
		s.HalfAngle, err = stochgeom.HalfAngleFromElevationDeg(sp.AltitudeKm, sp.MinElevationDeg)
	case sp.CoverageTimeMin > 0:
		s.HalfAngle, err = stochgeom.HalfAngleFromCoverageTime(sp.AltitudeKm, sp.CoverageTimeMin)
	default:
		return s, fmt.Errorf("shell: needs min_elevation_deg or coverage_time_min")
	}
	if err != nil {
		return s, err
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
	// instant at any fleet size), or "auto" (analytic for a request
	// with a deployment, stochgeom for designs of at least 1000
	// satellites or with explicit shells, otherwise Monte-Carlo
	// degrading to analytic-only under queue pressure). Default "auto".
	Mode string `json:"mode"`
	// Preset names the constellation design (constellation.PresetNames);
	// default "reference".
	Preset string `json:"preset"`
	// K is the plane's active capacity; 0 derives it from the preset
	// (clamped to the analytic model's two-regime ceiling).
	K int `json:"k"`
	// Scheme is "oaq" (default) or "baq".
	Scheme string `json:"scheme"`
	// TauMin, Mu, Nu are τ, µ, ν (defaults 5, 0.5, 30).
	TauMin float64 `json:"tau_min"`
	Mu     float64 `json:"mu"`
	Nu     float64 `json:"nu"`
	// FailSilentProb, LossProb, Retries, Backward configure the protocol
	// simulation (Monte-Carlo only).
	FailSilentProb float64 `json:"fail_silent_prob"`
	LossProb       float64 `json:"loss_prob"`
	Retries        int     `json:"retries"`
	Backward       bool    `json:"backward"`
	// Faults is an inline fault-scenario document (the same JSON schema
	// the CLIs' -faults flag loads from a file). Monte-Carlo only.
	Faults json.RawMessage `json:"faults,omitempty"`
	// Deployment, when present, composes the analytic answer over the
	// plane-capacity distribution P(k) instead of conditioning on K.
	// Only the analytic backend models it, and it cannot be combined
	// with the protocol fields above or with Shells.
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

	// LatitudeDeg is the ground-target latitude for stochastic-geometry
	// answers (default 30, the paper's mid-latitude band).
	LatitudeDeg *float64 `json:"latitude_deg,omitempty"`
	// MinElevationDeg, when positive, derives the preset shell's
	// coverage half-angle from an elevation mask instead of the preset's
	// coverage time (stochgeom only).
	MinElevationDeg float64 `json:"min_elevation_deg,omitempty"`
	// MinSats is the localizability threshold L in P(K ≥ L) (default 4;
	// stochgeom only).
	MinSats int `json:"min_sats,omitempty"`
	// Shells replaces the preset's geometry with an explicit LEO/MEO
	// shell mixture (stochgeom only; forces the stochgeom backend in
	// auto mode).
	Shells []ShellSpec `json:"shells,omitempty"`
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
	key      string

	// Stochastic-geometry backend state (zero unless backend is
	// ModeStochGeom).
	design  stochgeom.Design
	lat     float64 // target latitude, radians
	minSats int
	maxK    int // the analytic model's two-regime capacity ceiling
}

// badRequestError marks client errors (HTTP 400) apart from server
// faults.
type badRequestError struct{ err error }

func (e badRequestError) Error() string { return e.err.Error() }
func (e badRequestError) Unwrap() error { return e.err }

func badRequest(format string, args ...any) error {
	return badRequestError{fmt.Errorf(format, args...)}
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
// a constellation preset. A deployment resolves auto mode to the
// analytic backend; otherwise designs with at least enumLimit
// satellites (or explicit shells) resolve it to the stochastic-geometry
// backend.
func (req *Request) resolve(maxEpisodes int) (*resolved, error) {
	r := &resolved{
		mode:   req.Mode,
		preset: req.Preset,
	}
	if r.mode == "" {
		r.mode = ModeAuto
	}
	switch r.mode {
	case ModeAnalytic, ModeMonteCarlo, ModeAuto, ModeStochGeom:
	default:
		return nil, badRequest("unknown mode %q (analytic | montecarlo | stochgeom | auto)", r.mode)
	}
	if r.preset == "" {
		r.preset = constellation.PresetReference
	}
	presetCfg, err := constellation.PresetConfig(r.preset)
	if err != nil {
		return nil, badRequestError{err}
	}

	if req.Deployment != nil {
		// The analytic composition over P(k) is the only backend that
		// models a deployment, and it models none of these fields.
		for _, f := range []struct {
			name string
			set  bool
		}{
			{"loss_prob", req.LossProb != 0},
			{"fail_silent_prob", req.FailSilentProb != 0},
			{"retries", req.Retries != 0},
			{"backward", req.Backward},
			{"faults", len(req.Faults) > 0},
			{"shells", len(req.Shells) > 0},
		} {
			if f.set {
				return nil, badRequest("deployment cannot be combined with %s: no backend models both", f.name)
			}
		}
	}

	// Resolve the mode to its compute backend. The choice is a pure
	// function of the request — never of load — so it can key the
	// response cache.
	switch {
	case r.mode != ModeAuto:
		r.backend = r.mode
	case req.Deployment != nil:
		r.backend = ModeAnalytic
	case len(req.Shells) > 0 || presetCfg.Planes*presetCfg.ActivePerPlane >= enumLimit:
		r.backend = ModeStochGeom
	default:
		r.backend = ModeMonteCarlo
	}
	if req.Deployment != nil && r.backend != ModeAnalytic {
		return nil, badRequest("deployment requires mode analytic (or auto); the %s backend does not model it", r.backend)
	}
	if r.backend != ModeStochGeom {
		if len(req.Shells) > 0 {
			return nil, badRequest("shells require mode stochgeom (or auto)")
		}
		if req.MinElevationDeg != 0 {
			return nil, badRequest("min_elevation_deg requires mode stochgeom (or auto resolving to it)")
		}
	}
	scheme := req.Scheme
	if scheme == "" {
		scheme = "oaq"
	}
	if r.scheme, err = qos.ParseScheme(scheme); err != nil {
		return nil, badRequestError{err}
	}
	geom, err := qos.NewGeometry(presetCfg.PeriodMin, presetCfg.CoverageTimeMin)
	if err != nil {
		return nil, badRequestError{err}
	}
	r.maxK = geom.MaxTwoRegimeCapacity()
	r.k = req.K
	if r.k == 0 {
		if r.preset == constellation.PresetReference {
			r.k = 10 // the paper's spot-check capacity
		} else {
			r.k = presetCfg.ActivePerPlane
			if maxK := geom.MaxTwoRegimeCapacity(); r.k > maxK {
				r.k = maxK
			}
		}
	}
	tau, mu, nu := req.TauMin, req.Mu, req.Nu
	if tau == 0 {
		tau = 5
	}
	if mu == 0 {
		mu = 0.5
	}
	if nu == 0 {
		nu = 30
	}

	p := oaq.ReferenceParams(r.k, r.scheme)
	p.Geom = geom
	p.TauMin = tau
	p.SignalDuration = stats.Exponential{Rate: mu}
	p.ComputeTime = stats.Exponential{Rate: nu}
	p.BackwardMessaging = req.Backward
	p.FailSilentProb = req.FailSilentProb
	p.MessageLossProb = req.LossProb
	p.RequestRetries = req.Retries
	if len(req.Faults) > 0 {
		s, err := fault.Parse(req.Faults)
		if err != nil {
			return nil, badRequestError{err}
		}
		p.Faults = s
	}
	if err := p.Validate(); err != nil {
		return nil, badRequestError{err}
	}
	r.params = p

	if r.model, err = qos.NewModel(geom, tau, mu, nu); err != nil {
		return nil, badRequestError{err}
	}
	if d := req.Deployment; d != nil {
		cp := capacity.Params{
			ActivePerPlane: presetCfg.ActivePerPlane,
			Spares:         presetCfg.SparesPerPlane,
			Eta:            d.Eta,
			LambdaPerHour:  d.LambdaPerHour,
			PhiHours:       d.PhiHours,
		}
		if err := cp.Validate(); err != nil {
			return nil, badRequestError{err}
		}
		r.capures = &cp
	}
	if r.backend == ModeAnalytic && r.analyticTopK() > r.maxK {
		return nil, badRequest("capacity %d exceeds the analytic model's two-regime ceiling %d for preset %s",
			r.analyticTopK(), r.maxK, r.preset)
	}

	if r.backend == ModeStochGeom {
		latDeg := 30.0
		if req.LatitudeDeg != nil {
			latDeg = *req.LatitudeDeg
		}
		if math.IsNaN(latDeg) || latDeg < -90 || latDeg > 90 {
			return nil, badRequest("latitude_deg %g outside [-90, 90]", latDeg)
		}
		r.lat = latDeg * math.Pi / 180
		r.minSats = req.MinSats
		if r.minSats == 0 {
			r.minSats = 4
		}
		if r.minSats < 1 {
			return nil, badRequest("min_sats %d must be at least 1", r.minSats)
		}
		if len(req.Shells) > 0 {
			total := 0
			for i, sp := range req.Shells {
				s, err := sp.shell()
				if err != nil {
					return nil, badRequest("shell %d: %v", i, err)
				}
				if s.N > maxShellSatellites-total {
					return nil, badRequest("shells hold more than %d satellites", maxShellSatellites)
				}
				total += s.N
				r.design.Shells = append(r.design.Shells, s)
			}
		} else {
			s, err := stochgeom.ShellFromConfig(presetCfg)
			if err != nil {
				return nil, badRequestError{err}
			}
			if req.MinElevationDeg > 0 {
				if s.HalfAngle, err = stochgeom.HalfAngleFromElevationDeg(s.AltitudeKm, req.MinElevationDeg); err != nil {
					return nil, badRequestError{err}
				}
			}
			r.design.Shells = []stochgeom.Shell{s}
		}
		if err := r.design.Validate(); err != nil {
			return nil, badRequestError{err}
		}
	}

	if req.Episodes < 0 {
		return nil, badRequest("episode budget %d must be positive", req.Episodes)
	}
	if r.backend == ModeMonteCarlo {
		r.episodes = req.Episodes
		if r.episodes == 0 {
			r.episodes = 20000
		}
		if r.episodes > maxEpisodes {
			return nil, badRequest("episode budget %d exceeds the server cap %d", r.episodes, maxEpisodes)
		}
	}
	r.seed = req.Seed
	if r.seed == 0 {
		r.seed = 2003
	}
	if req.TimeoutMS < 0 {
		return nil, badRequest("negative timeout_ms %d", req.TimeoutMS)
	}

	r.key = r.canonicalKey(req)
	return r, nil
}

// analyticTopK is the largest capacity the closed-form model would
// condition on: k, or the top of the deployment policy's support. The
// model admits only the two-regime capacities k ≤ maxK.
func (r *resolved) analyticTopK() int {
	if r.capures != nil {
		return r.capures.ActivePerPlane
	}
	return r.k
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
	if len(req.Faults) > 0 {
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
