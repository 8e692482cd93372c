// Command constsim runs the discrete-event simulations: the OAQ/BAQ
// protocol over a degraded orbital plane, and the long-horizon plane-
// capacity process under failures and deployment policies. Its
// visibility mode prints a design's closed-form visible-count law.
//
// Usage:
//
//	constsim -mode protocol -k 10 -scheme oaq -episodes 50000
//	constsim -mode protocol -loss 0.4 -retries 2 -faults testdata/faults.json
//	constsim -mode protocol -loss 0.4 -retries 1 -trace-chrome failures.json  # retain the anomalous episodes
//	constsim -mode protocol -preset starlink
//	constsim -mode capacity -eta 10 -lambda 5e-5 -periods 200
//	constsim -mode capacity -preset oneweb
//	constsim -mode visibility -preset starlink -lat 53
package main

import (
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"strings"

	"satqos/internal/capacity"
	"satqos/internal/constellation"
	"satqos/internal/crosslink"
	"satqos/internal/des"
	"satqos/internal/fault"
	"satqos/internal/membership"
	"satqos/internal/oaq"
	"satqos/internal/obs"
	"satqos/internal/obs/trace"
	"satqos/internal/qos"
	"satqos/internal/route"
	"satqos/internal/stats"
	"satqos/internal/stochgeom"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "constsim:", err)
		os.Exit(1)
	}
}

func run(args []string, w io.Writer) (err error) {
	fs := flag.NewFlagSet("constsim", flag.ContinueOnError)
	mode := fs.String("mode", "protocol", "simulation mode: protocol | capacity | visibility | membership")
	preset := fs.String("preset", constellation.PresetReference,
		"constellation design: "+strings.Join(constellation.PresetNames(), " | "))
	k := fs.Int("k", 10, "plane capacity (protocol mode; default derives from the preset)")
	schemeName := fs.String("scheme", "oaq", "scheme: oaq | baq")
	episodes := fs.Int("episodes", 20000, "signal episodes (protocol mode)")
	tau := fs.Float64("tau", 5, "alert deadline τ (minutes)")
	mu := fs.Float64("mu", 0.5, "signal termination rate µ (1/min)")
	nu := fs.Float64("nu", 30, "computation completion rate ν (1/min)")
	backward := fs.Bool("backward", false, "enable backward (coordination-done) messaging")
	failSilent := fs.Float64("failsilent", 0, "per-peer fail-silent probability")
	loss := fs.Float64("loss", 0, "crosslink message-loss probability (protocol mode)")
	retries := fs.Int("retries", 0, "bounded retransmissions per coordination request (protocol mode; 0 disables acks)")
	faultsPath := fs.String("faults", "", "fault-scenario JSON file replayed in every episode (protocol mode)")
	routeArg := fs.String("route", "", "route messages over a multi-hop ISL fabric: policy name (static|probabilistic|qlearning) or route-config JSON file (protocol mode; empty = ideal delay-δ channel)")
	islCapacity := fs.Float64("isl-capacity", 0, "override the routed ISL link capacity (packets/min)")
	trafficLoad := fs.Float64("traffic-load", 0, "override the routed background traffic load (packets/min)")
	lat := fs.Float64("lat", 30, "target latitude in degrees (visibility mode)")
	eta := fs.Int("eta", 10, "threshold capacity η (capacity mode) or visible count (visibility mode)")
	lambda := fs.Float64("lambda", 5e-5, "per-satellite failure rate λ (1/hour, capacity mode)")
	phi := fs.Float64("phi", 30000, "scheduled-deployment period φ (hours, capacity mode)")
	periods := fs.Int("periods", 200, "simulated deployment periods (capacity mode)")
	seed := fs.Uint64("seed", 1, "random seed")
	workers := fs.Int("workers", 0, "worker-pool size for the protocol Monte-Carlo (0 = GOMAXPROCS; results are identical at any setting)")
	metrics := fs.String("metrics", "", "dump the JSON metrics snapshot to this path at exit (\"-\" for stdout)")
	pprofAddr := fs.String("pprof", "", "serve net/http/pprof and a Prometheus /metrics endpoint on this address while running (e.g. localhost:6060)")
	var traceCLI trace.CLI
	traceCLI.Register(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	tracing, err := traceCLI.Config(fs)
	if err != nil {
		return err
	}
	presetCfg, err := constellation.PresetConfig(*preset)
	if err != nil {
		return err
	}
	explicit := map[string]bool{}
	fs.Visit(func(f *flag.Flag) { explicit[f.Name] = true })
	if *pprofAddr != "" {
		stop, err := obs.ServeDebug(*pprofAddr, obs.Default(), w)
		if err != nil {
			return err
		}
		defer stop()
	}
	if *metrics != "" {
		defer func() {
			if err == nil {
				err = obs.Default().DumpJSON(*metrics, w)
			}
		}()
	}
	defer func() {
		if err == nil {
			err = traceCLI.Export(tracing, w)
		}
	}()

	switch *mode {
	case "protocol":
		scheme, err := qos.ParseScheme(*schemeName)
		if err != nil {
			return err
		}
		geom, err := qos.NewGeometry(presetCfg.PeriodMin, presetCfg.CoverageTimeMin)
		if err != nil {
			return err
		}
		if !explicit["k"] {
			*k = constellation.DefaultPlaneCapacity(*preset, presetCfg, geom.MaxTwoRegimeCapacity())
		}
		p := oaq.ReferenceParams(*k, scheme)
		p.Geom = geom
		p.TauMin = *tau
		p.SignalDuration = stats.Exponential{Rate: *mu}
		p.ComputeTime = stats.Exponential{Rate: *nu}
		p.BackwardMessaging = *backward
		p.FailSilentProb = *failSilent
		p.MessageLossProb = *loss
		p.RequestRetries = *retries
		if *faultsPath != "" {
			s, err := fault.Load(*faultsPath)
			if err != nil {
				return err
			}
			p.Faults = s
		}
		rc, err := route.CLIConfig(*routeArg, *k, *islCapacity, *trafficLoad)
		if err != nil {
			return err
		}
		p.Route = rc
		if *metrics != "" {
			p.Metrics = obs.Default()
		}
		p.Tracing = tracing
		ev, err := oaq.EvaluateParallel(p, *episodes, *seed, *workers)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "%v protocol, preset %s (θ=%.1f min, Tc=%.2f min), k=%d, τ=%g, µ=%g, ν=%g, %d episodes\n",
			scheme, *preset, p.Geom.ThetaMin, p.Geom.TcMin, *k, *tau, *mu, *nu, *episodes)
		if !p.Faults.Empty() {
			fmt.Fprintf(w, "  fault scenario %q: %d fail-silent windows, %d loss bursts, spare delay %g min\n",
				p.Faults.Name, len(p.Faults.FailSilent), len(p.Faults.LossBursts), p.Faults.SpareDelayMin)
		}
		if p.Route != nil {
			fmt.Fprintf(w, "  routed ISL fabric %q: policy %s, %dx%d grid, rate %g pkt/min, queue cap %d, background load %g pkt/min\n",
				p.Route.Name, p.Route.Policy, p.Route.Planes, p.Route.PerPlane,
				p.Route.ISLRatePerMin, p.Route.QueueCap, p.Route.TrafficLoadPerMin)
		}
		for y := qos.LevelMiss; y <= qos.LevelSimultaneousDual; y++ {
			p := ev.PMF[y]
			ci := 1.96 * math.Sqrt(p*(1-p)/float64(ev.Episodes))
			fmt.Fprintf(w, "  P(Y=%d %-18s) = %.4f ± %.4f\n", int(y), y.String(), p, ci)
		}
		fmt.Fprintf(w, "  delivered by deadline: %.4f of episodes (detected: %.4f)\n",
			ev.DeliveredFraction, ev.DetectedFraction)
		fmt.Fprintf(w, "  mean chain length %.3f, mean messages %.2f, mean delivery latency %.3f min\n",
			ev.MeanChainLength, ev.MeanMessages, ev.MeanDeliveryLatency)
		fmt.Fprintf(w, "  terminations:")
		for term := oaq.TermNone; term <= oaq.TermRetriesExhausted; term++ {
			if n, ok := ev.Terminations[term]; ok {
				fmt.Fprintf(w, " %v=%d", term, n)
			}
		}
		fmt.Fprintln(w)
		return nil

	case "capacity":
		p := capacity.ReferenceParams(*eta, *lambda, *phi)
		p.ActivePerPlane = presetCfg.ActivePerPlane
		p.Spares = presetCfg.SparesPerPlane
		if !explicit["eta"] && *preset != constellation.PresetReference {
			// Keep the threshold the same distance below full capacity as
			// the paper's reference setting (η = 10 under N = 14).
			p.Eta = max(1, p.ActivePerPlane-4)
			*eta = p.Eta
		}
		ana, err := p.Analytic()
		if err != nil {
			return err
		}
		sim, err := p.Simulate(float64(*periods)**phi, stats.NewRNG(*seed, 0))
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "plane capacity, preset %s (N=%d, S=%d), η=%d, λ=%g/h, φ=%g h, %d periods simulated\n",
			*preset, p.ActivePerPlane, p.Spares, p.Eta, *lambda, *phi, *periods)
		fmt.Fprintf(w, "  %-4s %-10s %-10s\n", "k", "analytic", "simulated")
		for kk := p.Eta; kk <= p.ActivePerPlane; kk++ {
			fmt.Fprintf(w, "  %-4d %-10.4f %-10.4f\n", kk, ana.P(kk), sim.P(kk))
		}
		fmt.Fprintf(w, "  mean capacity: analytic %.3f, simulated %.3f\n", ana.Mean(), sim.Mean())
		return nil

	case "visibility":
		return runVisibility(w, *preset, presetCfg, *lat, *eta)

	case "membership":
		return runMembership(w, *k, *seed)

	default:
		return fmt.Errorf("unknown mode %q", *mode)
	}
}

// runVisibility prints the stochastic-geometry visible-count law: the
// law of K, the number of the whole fleet's satellites above one target
// latitude, in closed form at any fleet size. K is not a plane's
// capacity k; the closing line is only the law's tail P(K ≥ η) at the
// -eta count.
func runVisibility(w io.Writer, preset string, cfg constellation.Config, latDeg float64, eta int) error {
	if latDeg < -90 || latDeg > 90 {
		return fmt.Errorf("latitude %g out of range [-90, 90]", latDeg)
	}
	design, err := stochgeom.FromConfig(cfg)
	if err != nil {
		return err
	}
	v, err := design.Evaluate(latDeg * math.Pi / 180)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "stochastic-geometry visible-count law, preset %s (N=%d satellites), latitude %g°\n",
		preset, design.TotalSatellites(), latDeg)
	fmt.Fprintf(w, "  %-4s %-10s %-10s\n", "k", "P(K=k)", "P(K>=k)")
	for k := 0; k <= design.TotalSatellites(); k++ {
		ccdf := v.CCDF(k)
		if k > 0 && ccdf < 1e-6 {
			break
		}
		fmt.Fprintf(w, "  %-4d %-10.4f %-10.4f\n", k, v.P(k), ccdf)
	}
	fmt.Fprintf(w, "  mean visible %.3f, coverage fraction %.4f, localizability P(K>=4) %.4f\n",
		v.Mean(), v.CoverageFraction(), v.Localizability(4))
	fmt.Fprintf(w, "  visible-count tail at η=%d: P(K>=η) = %.4f\n", eta, v.CCDF(eta))
	return nil
}

// runMembership demonstrates the §5 follow-on: a plane of satellites
// maintaining an agreed membership view over crosslinks while peers
// fail and recover.
func runMembership(w io.Writer, k int, seed uint64) error {
	if k < 3 {
		return fmt.Errorf("membership demo needs at least 3 satellites, got %d", k)
	}
	sim := &des.Simulation{}
	net, err := crosslink.NewNetwork(sim, crosslink.Config{MaxDelayMin: 0.01}, stats.NewRNG(seed, 0))
	if err != nil {
		return err
	}
	candidates := make([]crosslink.NodeID, k)
	for i := range candidates {
		candidates[i] = crosslink.NodeID(i + 1)
	}
	group, err := membership.NewGroup(sim, net, candidates, membership.DefaultConfig())
	if err != nil {
		return err
	}
	group.Start()
	fmt.Fprintf(w, "membership over a %d-satellite plane (round 0.1 min, suspect 0.35 min, δ=0.01 min)\n", k)

	report := func(label string) error {
		v, err := group.ViewOf(candidates[0])
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "  t=%6.2f  %-28s observer view: %v\n", sim.Now(), label, v)
		return nil
	}
	sim.Run(2)
	if err := report("steady state"); err != nil {
		return err
	}
	victim := candidates[k/2]
	if err := group.Fail(victim); err != nil {
		return err
	}
	sim.Run(8)
	if err := report(fmt.Sprintf("satellite %d fail-silent", victim)); err != nil {
		return err
	}
	if err := group.Recover(victim); err != nil {
		return err
	}
	sim.Run(16)
	if err := report(fmt.Sprintf("satellite %d recovered", victim)); err != nil {
		return err
	}
	// Agreement check across all live members.
	ref, err := group.ViewOf(candidates[0])
	if err != nil {
		return err
	}
	for _, id := range candidates[1:] {
		v, err := group.ViewOf(id)
		if err != nil {
			return err
		}
		if !v.Equal(ref) {
			return fmt.Errorf("view disagreement: node %d has %v, node %d has %v", id, v, candidates[0], ref)
		}
	}
	fmt.Fprintf(w, "  all %d members agree on the final view\n", k)
	fmt.Fprintf(w, "  crosslink traffic: %d messages sent, %d delivered\n", net.Stats().Sent, net.Stats().Delivered)
	return nil
}
