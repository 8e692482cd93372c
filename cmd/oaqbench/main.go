// Command oaqbench regenerates every table and figure of the paper's
// evaluation (Tai et al., DSN 2003, §4.3) from the analytic model, plus
// this repository's validation experiments.
//
// Usage:
//
//	oaqbench -exp all                 # every experiment, text tables
//	oaqbench -exp fig9 -csv           # one experiment as CSV
//	oaqbench -exp fig8 -svg figures/  # also render an SVG chart
//	oaqbench -exp simvsana -episodes 50000
//	oaqbench -exp fig9,simvsana -metrics -   # several experiments + JSON metrics snapshot
//	oaqbench -exp all -pprof localhost:6060  # live pprof + Prometheus /metrics while running
//	oaqbench -exp degraded-loss -trace-chrome anomalies.json  # anomalous episodes of every cell
//
// Paper experiments: table1, fig7, fig8, fig9, spot, tau, duration.
// Validations: simvsana, geometry, capacity, coverage, stochgeom
// (coverage prints the scanned earth coverage and then the O(1)
// stochastic-geometry answer for the same constellation; stochgeom
// cross-validates that backend against the exact scanner on every
// preset).
// Extensions: scaling, ablation-backward, ablation-constants,
// ablation-tc1, membership, sensitivity, mission, availability,
// degraded-loss, degraded-failsilent, routed-load (the degraded pair
// and routed-load honor -retries; -faults layers a scripted fault
// scenario onto them and onto mission; routed-load honors -route/
// -isl-capacity/-traffic-load). Use -exp all for everything, in the
// order of the experiments table (the order -h lists).
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"strings"

	"satqos/internal/experiment"
	"satqos/internal/fault"
	"satqos/internal/mission"
	"satqos/internal/numeric"
	"satqos/internal/obs"
	"satqos/internal/obs/trace"
	"satqos/internal/plot"
	"satqos/internal/qos"
	"satqos/internal/route"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "oaqbench:", err)
		os.Exit(1)
	}
}

type options struct {
	exp      string
	csv      bool
	svgDir   string
	episodes int
	seed     uint64
	eta      int
	phi      float64
	lambdas  []float64
	workers  int
	metrics  string
	pprof    string
	retries  int
	faults   *fault.Scenario
	route    *route.Config
	trace    trace.CLI
	tracing  *trace.Config
}

// writeSVG renders a sweep as an SVG chart into the -svg directory.
// Series whose names start with "BAQ" or "no-backward" are dashed, so
// the scheme comparison reads like the paper's figures.
func (o options) writeSVG(id string, s *experiment.Sweep) error {
	if o.svgDir == "" {
		return nil
	}
	chart := &plot.Chart{
		Title:  s.Title,
		XLabel: s.XLabel,
		YLabel: "probability",
		YFixed: true, YMin: 0, YMax: 1,
	}
	allProb := true
	for _, ser := range s.Series {
		dashed := strings.HasPrefix(ser.Name, "BAQ") || strings.HasPrefix(ser.Name, "no-backward") ||
			strings.HasPrefix(ser.Name, "no-retry")
		chart.Series = append(chart.Series, plot.Series{
			Name: ser.Name, X: s.X, Y: ser.Values, Dashed: dashed,
		})
		for _, v := range ser.Values {
			if v < 0 || v > 1 {
				allProb = false
			}
		}
	}
	if !allProb {
		chart.YFixed = false
		chart.YLabel = "value"
	}
	path := filepath.Join(o.svgDir, id+".svg")
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := chart.Render(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func run(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("oaqbench", flag.ContinueOnError)
	opt := options{}
	fs.StringVar(&opt.exp, "exp", "all", "comma-separated experiment ids ("+strings.Join(experimentIDs(), "|")+"|all)")
	fs.BoolVar(&opt.csv, "csv", false, "emit CSV instead of aligned text")
	fs.StringVar(&opt.svgDir, "svg", "", "also write sweep experiments as SVG charts into this directory")
	fs.IntVar(&opt.episodes, "episodes", 20000, "episodes per cell for simulation experiments")
	seed := fs.Uint64("seed", 2003, "random seed for simulation experiments")
	fs.IntVar(&opt.eta, "eta", 10, "threshold capacity for fig7/capacity")
	fs.Float64Var(&opt.phi, "phi", 30000, "scheduled-deployment period (hours)")
	lambdaList := fs.String("lambdas", "", "comma-separated failure rates (default: the paper's 1e-5..1e-4 grid)")
	fs.IntVar(&opt.workers, "workers", 0, "worker-pool size for sweeps and simulations (0 = GOMAXPROCS; results are identical at any setting)")
	fs.StringVar(&opt.metrics, "metrics", "", "dump the JSON metrics snapshot to this path at exit (\"-\" for stdout)")
	fs.StringVar(&opt.pprof, "pprof", "", "serve net/http/pprof and a Prometheus /metrics endpoint on this address while running (e.g. localhost:6060)")
	fs.IntVar(&opt.retries, "retries", 2, "bounded retransmissions per coordination request in the degraded-mode experiments (0 disables the hardening)")
	faultsPath := fs.String("faults", "", "fault-scenario JSON file applied to the degraded-mode and mission experiments")
	routeArg := fs.String("route", "", "route the routed-load experiment over this ISL policy (static|probabilistic|qlearning) or route-config JSON file (default static)")
	islCapacity := fs.Float64("isl-capacity", 0, "override the routed ISL link capacity (packets/min)")
	trafficLoad := fs.Float64("traffic-load", 0, "override the routed background traffic load (packets/min)")
	opt.trace.Register(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	tracing, err := opt.trace.Config(fs)
	if err != nil {
		return err
	}
	opt.tracing = tracing
	if *faultsPath != "" {
		s, err := fault.Load(*faultsPath)
		if err != nil {
			return err
		}
		opt.faults = s
	}
	{
		arg := *routeArg
		if arg == "" {
			// The routed-load experiment needs a fabric even when -route
			// was not given; everything else ignores opt.route.
			arg = route.PolicyStatic
		}
		rc, err := route.CLIConfig(arg, 10, *islCapacity, *trafficLoad)
		if err != nil {
			return err
		}
		opt.route = rc
	}
	opt.seed = *seed
	experiment.Workers = opt.workers
	experiment.Tracing = opt.tracing
	if opt.metrics != "" || opt.pprof != "" {
		experiment.Metrics = obs.Default()
	}
	if opt.pprof != "" {
		stop, err := obs.ServeDebug(opt.pprof, obs.Default(), w)
		if err != nil {
			return err
		}
		defer stop()
	}
	if *lambdaList != "" {
		for _, tok := range strings.Split(*lambdaList, ",") {
			v, err := strconv.ParseFloat(strings.TrimSpace(tok), 64)
			if err != nil {
				return fmt.Errorf("bad -lambdas entry %q: %w", tok, err)
			}
			opt.lambdas = append(opt.lambdas, v)
		}
	}

	ids := strings.Split(opt.exp, ",")
	if opt.exp == "all" {
		ids = experimentIDs()
	}
	for i, id := range ids {
		if i > 0 {
			fmt.Fprintln(w)
		}
		if err := runOne(strings.TrimSpace(id), opt, w); err != nil {
			return fmt.Errorf("experiment %s: %w", id, err)
		}
	}
	if err := opt.trace.Export(opt.tracing, w); err != nil {
		return err
	}
	if opt.metrics != "" {
		return obs.Default().DumpJSON(opt.metrics, w)
	}
	return nil
}

// experiments is the one list of experiment ids, in -exp all order.
// A sweep entry is rendered as a table and, under -svg, charted as
// <id>.svg; a run entry writes its own output.
var experiments = []struct {
	id    string
	sweep func(opt options) (*experiment.Sweep, error)
	run   func(opt options, w io.Writer) error
}{
	{id: "table1", run: table(func(options) (*experiment.Table, error) { return experiment.Table1(), nil })},
	{id: "geometry", run: table(func(options) (*experiment.Table, error) { return experiment.GeometryCheck() })},
	{id: "capacity", run: checked("max |analytic - SAN| = %.2e\n", func(opt options) (*experiment.Table, float64, error) {
		lambda := 5e-5
		if len(opt.lambdas) > 0 {
			lambda = opt.lambdas[0]
		}
		return experiment.CapacityRouteCheck(opt.eta, lambda, opt.phi, 0, opt.seed)
	})},
	{id: "fig7", sweep: func(opt options) (*experiment.Sweep, error) {
		return experiment.Figure7(opt.lambdas, opt.eta, opt.phi)
	}},
	{id: "fig8", sweep: func(opt options) (*experiment.Sweep, error) { return experiment.Figure8(opt.lambdas) }},
	{id: "fig9", sweep: func(opt options) (*experiment.Sweep, error) { return experiment.Figure9(opt.lambdas) }},
	{id: "spot", run: table(func(options) (*experiment.Table, error) { return experiment.Section43Spot() })},
	{id: "tau", sweep: func(options) (*experiment.Sweep, error) { return experiment.TauSweep(nil, 5e-5) }},
	{id: "duration", sweep: func(options) (*experiment.Sweep, error) { return experiment.DurationSweep(nil, 5e-5) }},
	{id: "simvsana", run: checked("max |simulated - analytic| = %.4f\n", func(opt options) (*experiment.Table, float64, error) {
		return experiment.SimVsAnalytic(nil, opt.episodes, opt.seed)
	})},
	{id: "coverage", run: runCoverage},
	{id: "stochgeom", run: checked("worst relative mean error = %.2e\n", func(options) (*experiment.Table, float64, error) {
		return experiment.StochGeomCheck()
	})},
	{id: "scaling", sweep: func(options) (*experiment.Sweep, error) {
		return experiment.PicoScaling(nil, nil, 5, 0.5, 30)
	}},
	{id: "ablation-backward", sweep: func(opt options) (*experiment.Sweep, error) {
		return experiment.AblationBackwardMessaging(nil, opt.episodes, opt.seed)
	}},
	{id: "ablation-constants", sweep: func(opt options) (*experiment.Sweep, error) {
		return experiment.AblationProtocolConstants(nil, opt.episodes, opt.seed)
	}},
	{id: "ablation-tc1", sweep: func(opt options) (*experiment.Sweep, error) {
		return experiment.AblationTC1(nil, opt.episodes, opt.seed)
	}},
	{id: "membership", sweep: func(opt options) (*experiment.Sweep, error) {
		return experiment.MembershipLatency(nil, 30, opt.seed)
	}},
	{id: "sensitivity", run: table(func(options) (*experiment.Table, error) { return experiment.DistributionSensitivity(5) })},
	{id: "mission", run: runMission},
	// Tabulated only: its series mix probabilities, fleet sizes and
	// hours, which share no chart axis.
	{id: "availability", run: table(func(opt options) (*experiment.Table, error) {
		s, err := experiment.ConstellationAvailability(opt.lambdas, opt.eta, opt.phi, nil)
		if err != nil {
			return nil, err
		}
		return s.Table(), nil
	})},
	{id: "degraded-loss", sweep: func(opt options) (*experiment.Sweep, error) {
		return experiment.DegradedLossSweep(nil, opt.faults, 10, opt.retries, opt.episodes, opt.seed)
	}},
	{id: "degraded-failsilent", sweep: func(opt options) (*experiment.Sweep, error) {
		return experiment.DegradedFailSilentSweep(nil, 10, opt.retries, opt.episodes, opt.seed)
	}},
	{id: "routed-load", sweep: func(opt options) (*experiment.Sweep, error) {
		return experiment.RoutedLoadSweep(nil, *opt.route, opt.faults, 10, opt.retries, opt.episodes, opt.seed)
	}},
}

// experimentIDs lists every experiment id in -exp all order.
func experimentIDs() []string {
	ids := make([]string, len(experiments))
	for i, e := range experiments {
		ids[i] = e.id
	}
	return ids
}

func runOne(id string, opt options, w io.Writer) error {
	for _, e := range experiments {
		if e.id != id {
			continue
		}
		if e.run != nil {
			return e.run(opt, w)
		}
		s, err := e.sweep(opt)
		if err != nil {
			return err
		}
		if err := opt.writeSVG(id, s); err != nil {
			return err
		}
		return opt.render(w, s.Table())
	}
	return fmt.Errorf("unknown experiment %q", id)
}

// render writes t as aligned text, or as CSV under -csv.
func (o options) render(w io.Writer, t *experiment.Table) error {
	if o.csv {
		return t.RenderCSV(w)
	}
	return t.Render(w)
}

// table adapts a one-table experiment to a run entry.
func table(fn func(opt options) (*experiment.Table, error)) func(options, io.Writer) error {
	return func(opt options, w io.Writer) error {
		t, err := fn(opt)
		if err != nil {
			return err
		}
		return opt.render(w, t)
	}
}

// checked adapts a validation experiment to a run entry: its table is
// followed by the worst discrepancy, printed with format.
func checked(format string, fn func(opt options) (*experiment.Table, float64, error)) func(options, io.Writer) error {
	return func(opt options, w io.Writer) error {
		t, worst, err := fn(opt)
		if err != nil {
			return err
		}
		if err := opt.render(w, t); err != nil {
			return err
		}
		_, err = fmt.Fprintf(w, format, worst)
		return err
	}
}

// runCoverage reports the full-constellation earth coverage twice:
// scanned from satellite positions, then answered analytically by the
// stochastic-geometry backend.
func runCoverage(_ options, w io.Writer) error {
	covered, mult, err := experiment.FullEarthCoverage(6, 10, numeric.Linspace(0, 60, 4))
	if err != nil {
		return err
	}
	if _, err := fmt.Fprintf(w, "Full-constellation earth coverage: %.2f%% of sampled points covered, mean multiplicity %.2f\n",
		100*covered, mult); err != nil {
		return err
	}
	covered, mult, err = experiment.AnalyticEarthCoverage(6)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "Full-constellation earth coverage (stochgeom): %.2f%% of surface points covered, mean multiplicity %.2f\n",
		100*covered, mult)
	return err
}

// runMission executes the 3-D end-to-end mission for both schemes on
// the same seed and tabulates QoS shares with realized accuracy.
func runMission(opt options, w io.Writer) error {
	t := &experiment.Table{
		Title: "3-D mission: QoS level shares and realized accuracy (24 h, 25-35N band)",
		Columns: []string{
			"scheme", "detected", "P(Y=3)", "P(Y=2)", "P(Y=1)", "P(Y=0)",
			"err@3 (km)", "err@1 (km)",
		},
		Notes: []string{"same workload seed for both schemes"},
	}
	for _, scheme := range []qos.Scheme{qos.SchemeOAQ, qos.SchemeBAQ} {
		cfg := mission.DefaultConfig()
		cfg.Scheme = scheme
		cfg.Seed = opt.seed
		cfg.SignalRatePerMin = 0.05
		cfg.Workers = opt.workers
		cfg.Metrics = experiment.Metrics
		cfg.Faults = opt.faults
		cfg.Trace = opt.tracing.WithScope("mission-" + scheme.String())
		rep, err := mission.Run(cfg, 24*60)
		if err != nil {
			return err
		}
		cell := func(level qos.Level) string {
			if v, ok := rep.MeanRealizedErrorKm[level]; ok {
				return fmt.Sprintf("%.2f", v)
			}
			return "-"
		}
		t.Rows = append(t.Rows, []string{
			scheme.String(),
			fmt.Sprintf("%.3f", rep.DetectedFraction),
			fmt.Sprintf("%.3f", rep.PMF[qos.LevelSimultaneousDual]),
			fmt.Sprintf("%.3f", rep.PMF[qos.LevelSequentialDual]),
			fmt.Sprintf("%.3f", rep.PMF[qos.LevelSingle]),
			fmt.Sprintf("%.3f", rep.PMF[qos.LevelMiss]),
			cell(qos.LevelSimultaneousDual),
			cell(qos.LevelSingle),
		})
	}
	return opt.render(w, t)
}
