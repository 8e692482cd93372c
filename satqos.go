// Package satqos is the public API of the OAQ reproduction: the
// opportunity-adaptive QoS enhancement framework for satellite
// constellations of Tai, Tso, Alkalai, Chau and Sanders (DSN 2003),
// together with every substrate its evaluation depends on.
//
// The implementation lives in internal packages; this package re-exports
// the curated surface a downstream user needs:
//
//   - the analytic QoS model (QoS levels, the OAQ/BAQ schemes, the
//     conditional measures P(Y = y | k), and the composition with the
//     plane-capacity distribution P(k) of Eq. (3));
//   - the plane-capacity model under failures and the two ground-spare
//     deployment policies, solved analytically, through the SAN engine,
//     or by simulation;
//   - the executable OAQ protocol (coordination requests, done
//     propagation, termination conditions TC-1/2/3, fail-silent
//     tolerance) evaluated by discrete-event simulation;
//   - the reference RF-geolocation constellation (7 planes of 14 active
//     satellites plus 2 spares) on a from-scratch orbital geometry
//     engine; and
//   - the Doppler sequential-localization estimator.
//
// Quickstart:
//
//	dist, _ := satqos.PlaneCapacity(10, 5e-5, 30000)
//	model, _ := satqos.NewAnalyticModel(satqos.ReferenceGeometry(), 5, 0.2, 30)
//	p, _ := model.Measure(satqos.SchemeOAQ, dist, satqos.LevelSequentialDual)
//	fmt.Printf("P(Y>=2) = %.3f\n", p)
package satqos

import (
	"satqos/internal/capacity"
	"satqos/internal/constellation"
	"satqos/internal/experiment"
	"satqos/internal/geoloc"
	"satqos/internal/membership"
	"satqos/internal/mission"
	"satqos/internal/oaq"
	"satqos/internal/obs/trace"
	"satqos/internal/orbit"
	"satqos/internal/qos"
	"satqos/internal/signal"
	"satqos/internal/stats"
)

// QoS spectrum and schemes (Table 1 of the paper).
type (
	// Level is a QoS level Y of the 4-level spectrum.
	Level = qos.Level
	// Scheme selects OAQ or the BAQ baseline.
	Scheme = qos.Scheme
	// PMF is a probability mass function over the QoS spectrum.
	PMF = qos.PMF
)

// Re-exported spectrum constants.
const (
	LevelMiss             = qos.LevelMiss
	LevelSingle           = qos.LevelSingle
	LevelSequentialDual   = qos.LevelSequentialDual
	LevelSimultaneousDual = qos.LevelSimultaneousDual
	SchemeBAQ             = qos.SchemeBAQ
	SchemeOAQ             = qos.SchemeOAQ
)

// Analytic model (§4.2).
type (
	// Geometry is the plane geometry (θ, Tc).
	Geometry = qos.Geometry
	// AnalyticModel is the closed-form QoS model with exponential signal
	// durations and computation times.
	AnalyticModel = qos.Model
	// GeneralModel is the quadrature path for arbitrary distributions.
	GeneralModel = qos.GeneralModel
)

// ReferenceGeometry returns the reference constellation's θ = 90 min and
// Tc = 9 min.
func ReferenceGeometry() Geometry { return qos.ReferenceGeometry() }

// NewGeometry validates and constructs a plane geometry.
func NewGeometry(thetaMin, tcMin float64) (Geometry, error) {
	return qos.NewGeometry(thetaMin, tcMin)
}

// NewAnalyticModel builds the closed-form QoS model with deadline τ,
// signal termination rate µ, and computation completion rate ν (minutes
// and inverse minutes).
func NewAnalyticModel(geom Geometry, tau, mu, nu float64) (AnalyticModel, error) {
	return qos.NewModel(geom, tau, mu, nu)
}

// Plane capacity model (§4.2.2).
type (
	// CapacityParams describes an orbital plane and its deployment
	// policies.
	CapacityParams = capacity.Params
	// CapacityDistribution is P(K = k).
	CapacityDistribution = capacity.Distribution
)

// PlaneCapacity computes P(k) for the reference plane (N = 14, S = 2)
// with threshold η, failure rate λ (per hour), and scheduled deployment
// period φ (hours), via the analytic route.
func PlaneCapacity(eta int, lambdaPerHour, phiHours float64) (*CapacityDistribution, error) {
	return capacity.ReferenceParams(eta, lambdaPerHour, phiHours).Analytic()
}

// ReferenceCapacityParams returns the paper's plane parameters (N = 14,
// S = 2) with the given policy settings; its methods expose the
// analytic/SAN/simulation routes and first-passage metrics.
func ReferenceCapacityParams(eta int, lambdaPerHour, phiHours float64) CapacityParams {
	return capacity.ReferenceParams(eta, lambdaPerHour, phiHours)
}

// ConstellationAtLeast returns P(total active satellites >= m) for a
// constellation of nPlanes independent planes with the given per-plane
// parameters.
func ConstellationAtLeast(p CapacityParams, nPlanes, m int) (float64, error) {
	return capacity.ConstellationAtLeast(p, nPlanes, m)
}

// Protocol simulation (§3).
type (
	// ProtocolParams configures the executable OAQ/BAQ protocol.
	ProtocolParams = oaq.Params
	// EpisodeResult is one simulated signal episode.
	EpisodeResult = oaq.EpisodeResult
	// Evaluation aggregates Monte-Carlo episodes.
	Evaluation = oaq.Evaluation
	// Termination identifies why coordination stopped.
	Termination = oaq.Termination
	// EpisodeTrace is the span tree of one traced episode.
	EpisodeTrace = trace.EpisodeTrace
)

// ReferenceProtocolParams returns the paper's evaluation setting for a
// plane with k active satellites.
func ReferenceProtocolParams(k int, scheme Scheme) ProtocolParams {
	return oaq.ReferenceParams(k, scheme)
}

// RunEpisode simulates one signal episode.
func RunEpisode(p ProtocolParams, rng *RNG) (EpisodeResult, error) {
	return oaq.RunEpisode(p, rng)
}

// EvaluateProtocol runs the protocol for the given number of episodes
// on the sharded Monte-Carlo engine: the episode budget splits into
// fixed-size shards independent of the worker count, shard i draws from
// the substream (seed, i), and tallies merge in shard order — so the
// result is bit-identical for any workers value. workers == 1 runs
// sequentially; workers <= 0 selects one worker per CPU.
func EvaluateProtocol(p ProtocolParams, episodes int, seed uint64, workers int) (*Evaluation, error) {
	return oaq.EvaluateParallel(p, episodes, seed, workers)
}

// PairedComparison is the outcome of a common-random-numbers comparison
// between two protocol configurations.
type PairedComparison = oaq.PairedComparison

// EvaluateProtocolPaired compares two configurations on the same random
// workload (common random numbers), optionally sharded across workers
// with the same determinism guarantee as EvaluateProtocol.
func EvaluateProtocolPaired(a, b ProtocolParams, episodes int, seed uint64, workers int) (*PairedComparison, error) {
	return oaq.EvaluatePairedParallel(a, b, episodes, seed, workers)
}

// CapacityCacheStats reports the hit/miss counters of the process-wide
// memoized capacity-distribution cache behind PlaneCapacity and every
// sweep driver.
func CapacityCacheStats() (hits, misses uint64) { return capacity.AnalyticCacheStats() }

// RunEpisodeTraced simulates one episode and returns its span trace
// alongside the outcome. Span times are absolute simulation minutes; the
// detection (t0) is the root span's Start plus res.DetectionDelay, the
// origin to pass to EpisodeTrace.WriteTree.
func RunEpisodeTraced(p ProtocolParams, rng *RNG) (EpisodeResult, EpisodeTrace, error) {
	return oaq.RunEpisodeTraced(p, rng)
}

// Constellation and geometry substrate.
type (
	// Constellation is the mutable reference constellation.
	Constellation = constellation.Constellation
	// ConstellationConfig parameterizes it.
	ConstellationConfig = constellation.Config
	// Plane is one orbital plane.
	Plane = constellation.Plane
	// LatLon is a surface position.
	LatLon = orbit.LatLon
	// CircularOrbit is a circular LEO orbit.
	CircularOrbit = orbit.CircularOrbit
	// Footprint is a satellite's coverage cap.
	Footprint = orbit.Footprint
)

// DefaultConstellationConfig returns the reference design: 7 planes ×
// (14 active + 2 in-orbit spares), θ = 90 min, Tc = 9 min.
func DefaultConstellationConfig() ConstellationConfig { return constellation.DefaultConfig() }

// NewConstellation builds a fully populated constellation.
func NewConstellation(cfg ConstellationConfig) (*Constellation, error) {
	return constellation.New(cfg)
}

// FromDegrees builds a surface position from degree inputs.
func FromDegrees(latDeg, lonDeg float64) (LatLon, error) {
	return orbit.FromDegrees(latDeg, lonDeg)
}

// Geolocation substrate.
type (
	// GeoEstimator is the iterative weighted-least-squares sequential
	// localizer.
	GeoEstimator = geoloc.Estimator
	// GeoEstimate is a geolocation solution.
	GeoEstimate = geoloc.Estimate
	// GeoMeasurement is one Doppler observation.
	GeoMeasurement = geoloc.Measurement
	// GeoSensor simulates the RF payload.
	GeoSensor = geoloc.Sensor
)

// Workloads and randomness.
type (
	// RNG is the deterministic random stream used across simulations.
	RNG = stats.RNG
	// Signal is one RF emission event.
	Signal = signal.Signal
	// Workload generates Poisson signal arrivals.
	Workload = signal.Workload
	// Distribution is a nonnegative continuous distribution.
	Distribution = stats.Distribution
	// Exponential is the Exp(rate) distribution.
	Exponential = stats.Exponential
)

// NewRNG returns a deterministic random stream for (seed, stream).
func NewRNG(seed, stream uint64) *RNG { return stats.NewRNG(seed, stream) }

// Experiment harness (the paper's tables and figures).
type (
	// ExperimentTable is a rendered experiment artifact.
	ExperimentTable = experiment.Table
	// ExperimentSweep is a family of curves over a shared axis.
	ExperimentSweep = experiment.Sweep
)

// End-to-end mission simulation (3-D integration).
type (
	// MissionConfig parameterizes a full-constellation mission run.
	MissionConfig = mission.Config
	// MissionReport aggregates a mission's QoS and accuracy outcomes.
	MissionReport = mission.Report
	// MissionOutcome is one signal's fate in a mission.
	MissionOutcome = mission.EpisodeOutcome
)

// DefaultMissionConfig returns a mission over the reference
// constellation with the paper's §4.3 QoS parameters.
func DefaultMissionConfig() MissionConfig { return mission.DefaultConfig() }

// RunMission executes a mission for the given horizon (minutes).
func RunMission(cfg MissionConfig, horizonMin float64) (*MissionReport, error) {
	return mission.Run(cfg, horizonMin)
}

// Group membership (the §5 follow-on direction).
type (
	// MembershipGroup runs the round-based membership protocol.
	MembershipGroup = membership.Group
	// MembershipConfig parameterizes it.
	MembershipConfig = membership.Config
	// MembershipView is one installed view.
	MembershipView = membership.View
)

// Figure7 regenerates Figure 7 (P(K=k) vs λ).
func Figure7(lambdas []float64, eta int, phiHours float64) (*ExperimentSweep, error) {
	return experiment.Figure7(lambdas, eta, phiHours)
}

// Figure8 regenerates Figure 8 (P(Y=3) vs λ, OAQ vs BAQ, µ ∈ {0.2, 0.5}).
func Figure8(lambdas []float64) (*ExperimentSweep, error) {
	return experiment.Figure8(lambdas)
}

// Figure9 regenerates Figure 9 (P(Y>=y) vs λ).
func Figure9(lambdas []float64) (*ExperimentSweep, error) {
	return experiment.Figure9(lambdas)
}

// Table1 regenerates Table 1 (QoS levels vs geometric properties).
func Table1() *ExperimentTable { return experiment.Table1() }
