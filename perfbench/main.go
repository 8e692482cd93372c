// Command perfbench is the repository benchmark: it drives the served
// QoS evaluator and the offline reproduction jobs with a seeded
// workload, checks every answer, and prints end-to-end metrics (or,
// with -trace 1, per-layer metrics from a traced run). The last line of
// its output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// Run it from the repository root through perfbench/run.sh, which
// builds it:
//
//	bash perfbench/run.sh --workload serve-closed-form --seed 1 --seconds 12 --trace 0
//
// See perfbench/README.md for the workloads and metrics.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"strings"
	"syscall"
	"time"

	"satqos/internal/validate"
)

// Workload names.
const (
	wlClosedForm = "serve-closed-form"
	wlMonteCarlo = "serve-montecarlo"
	wlBatch      = "batch-reproduce"
)

var workloads = []string{wlClosedForm, wlMonteCarlo, wlBatch}

// Set-up repetitions per run; setup_s is the median of their CPU time
// (every thread of the process, user and system): a set-up takes
// milliseconds on the served workloads, too short to correct its wall
// time for stolen vCPU time. Server boots are cheap, batch warm-up
// cycles are not. Each repetition starts after a forced collection, so
// a collection owed to an earlier one does not land in it.
const (
	serveSetups = 15
	batchSetups = 3
)

// Sizes of the short phases a traced run adds for the layers its own
// workload does not reach.
const (
	complementClosedFormOps = 4000
	complementMonteCarloOps = 200
)

type config struct {
	workload     string
	seed         uint64
	seconds      float64
	trace        bool
	root         string // repository checkout
	outDir       string // traces and result records
	metricscheck string // path of the metricscheck binary ("" skips the export check)
	// wrap, when non-nil, wraps the served handler (tests inject
	// faults with it).
	wrap func(http.Handler) http.Handler
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func main() {
	cfg, err := parseFlags(os.Args[1:])
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	res, err := run(cfg, os.Stdout, os.Stderr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

func parseFlags(args []string) (*config, error) {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	cfg := &config{}
	fs.StringVar(&cfg.workload, "workload", "", "workload: "+strings.Join(workloads, " | "))
	fs.Uint64Var(&cfg.seed, "seed", 1, "workload seed")
	fs.Float64Var(&cfg.seconds, "seconds", 12, "measured seconds per run")
	traceFlag := fs.Int("trace", 0, "1: traced run reporting per-layer metrics")
	fs.StringVar(&cfg.root, "root", ".", "repository checkout")
	fs.StringVar(&cfg.outDir, "out", ".bench_build", "directory for traces and result records")
	fs.StringVar(&cfg.metricscheck, "metricscheck", "", "metricscheck binary that validates the Chrome export")
	if err := fs.Parse(args); err != nil {
		return nil, err
	}
	cfg.trace = *traceFlag == 1
	if *traceFlag != 0 && *traceFlag != 1 {
		return nil, fmt.Errorf("-trace must be 0 or 1")
	}
	if !slices.Contains(workloads, cfg.workload) {
		return nil, fmt.Errorf("unknown workload %q (want %s)", cfg.workload, strings.Join(workloads, " | "))
	}
	if cfg.seconds <= 0 {
		return nil, fmt.Errorf("-seconds must be positive")
	}
	if _, err := os.Stat(filepath.Join(cfg.root, validate.GoldenDir)); err != nil {
		return nil, fmt.Errorf("not a repository checkout: %w", err)
	}
	return cfg, nil
}

// run executes one benchmark run and prints a human-readable report to
// out; the caller prints the JSON line.
func run(cfg *config, out, log io.Writer) (*result, error) {
	env := environment(cfg)
	envJSON, _ := json.Marshal(env)
	fmt.Fprintf(out, "env %s\n", envJSON)
	var (
		res *result
		err error
	)
	if cfg.trace {
		res, err = tracedRun(cfg, env, log)
	} else {
		res, err = untracedRun(cfg, out, log)
	}
	if err != nil {
		return nil, err
	}
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(out, "metric %-34s %14.6g %s\n", n, res.Metrics[n].Value, res.Metrics[n].Unit)
	}
	fmt.Fprintf(out, "attempted %d failed %d correct %t\n", res.Attempted, res.Failed, res.Correct)
	record := map[string]any{"env": env, "result": res}
	if err := writeRecord(cfg, record); err != nil {
		fmt.Fprintln(log, "perfbench: writing the result record:", err)
	}
	return res, nil
}

// untracedRun measures the end-to-end metrics.
func untracedRun(cfg *config, out, log io.Writer) (*result, error) {
	dur := time.Duration(cfg.seconds * float64(time.Second))
	var (
		setups []float64
		r      *phaseResult
		host   hostTrace
	)
	switch cfg.workload {
	case wlBatch:
		var b *batch
		for i := 0; i < batchSetups; i++ {
			runtime.GC()
			c0 := cpuSeconds()
			var err error
			if b, err = newBatch(cfg.root); err != nil {
				return nil, err
			}
			if errs := b.cycle(cfg.seed, -1-i, nil, "", 0); len(errs) > 0 {
				return nil, fmt.Errorf("warm-up cycle: %w", errors.Join(errs...))
			}
			setups = append(setups, cpuSeconds()-c0)
		}
		b.reset()
		hs := startHost()
		r = runCycles(b, cfg.seed, dur, nil, "")
		host = hs.finish()
	default:
		var s *server
		for i := 0; i < serveSetups; i++ {
			if s != nil {
				s.close()
			}
			runtime.GC()
			c0 := cpuSeconds()
			var err error
			if s, err = bootServer(cfg.wrap); err != nil {
				return nil, err
			}
			setups = append(setups, cpuSeconds()-c0)
		}
		hs := startHost()
		r = s.drive(mixFor(cfg.workload, cfg.seed), dur, 0, nil, "")
		host = hs.finish()
		s.close()
		r.verify(newReplayer(runtime.GOMAXPROCS(0)), nil, "")
	}
	logErrs(log, r.errs)
	if len(r.samples) == 0 {
		return nil, fmt.Errorf("no operation completed in %v", dur)
	}
	w := windowStats(r, host)
	fmt.Fprintf(out, "samples %d in %d windows, %d operations in %v\n",
		len(r.samples), w.windows, r.attempted, r.elapsed)
	fmt.Fprintf(log, "perfbench: over all windows, uncorrected: throughput %.6g/s, p50 %.6g ms, p99 %.6g ms; %.1f%% of vCPU time stolen\n",
		w.raw.rps, w.raw.p50, w.raw.p99, 100*w.steal)
	return &result{
		Correct:   r.failed == 0,
		Attempted: r.attempted,
		Failed:    r.failed,
		Metrics: map[string]metricValue{
			"setup_s":        {quantile(setups, 0.5), "s"},
			"throughput_rps": {w.rps, "1/s"},
			"latency_p50_ms": {w.p50, "ms"},
			"latency_p99_ms": {w.p99, "ms"},
			"rss_peak_mb":    {w.rss, "MB"},
		},
	}, nil
}

// Window sizes of windowStats.
const (
	minWindowSamples = 200
	maxWindows       = 40
)

// minStealSpan is the shortest operation whose own latency is corrected
// for steal: it spans ten host samples, enough to measure the steal
// during it.
const minStealSpan = 10 * hostEvery

type windowed struct {
	windows            int
	rps, p50, p99, rss float64
	// raw are the same figures over all windows without the
	// stolen-time correction, and steal the stolen share of the phase.
	raw   struct{ rps, p50, p99 float64 }
	steal float64
}

// window is a run of samples consecutive in completion order.
type window struct {
	from, to time.Duration
	ms, raw  []float64 // latencies corrected for steal, and as measured
	steal    float64   // share of vCPU time stolen during the window
}

// split cuts the phase's samples, sorted by completion, into equal
// windows of at least minSize samples (one window when there are
// fewer).
func split(r *phaseResult, host hostTrace, minSize int) []window {
	n := len(r.samples)
	k := max(1, min(maxWindows, n/minSize))
	ws := make([]window, k)
	var prev time.Duration
	for i := range ws {
		chunk := r.samples[i*n/k : (i+1)*n/k]
		w := &ws[i]
		w.from, w.to = prev, time.Duration(chunk[len(chunk)-1].atUS)*time.Microsecond
		w.steal = host.stealFrac(r.start.Add(w.from), r.start.Add(w.to))
		for _, s := range chunk {
			ms := float64(s.ms)
			w.raw = append(w.raw, ms)
			if lat := time.Duration(ms * 1e6); lat >= minStealSpan {
				end := r.start.Add(time.Duration(s.atUS) * time.Microsecond)
				ms *= 1 - host.stealFrac(end.Add(-lat), end)
			}
			w.ms = append(w.ms, ms)
		}
		prev = w.to
	}
	return ws
}

// windowStats derives a phase's throughput, latency percentiles and
// peak RSS. The phase is cut into windows, and each window's steal
// share f, the vCPU time the hypervisor took from the machine during
// it, is read from /proc/stat. Throughput and latency come from the
// quietest quarter of the windows (every window as quiet as the
// quarter's noisiest, so all of them when none was disturbed):
// throughput is the median of their rates divided by 1-f, which is
// what a window measures on an undisturbed machine when the work is
// CPU-bound; the latency
// percentiles are taken over all their samples. A latency is corrected
// for steal (multiplied by 1-f over its own span) only when it is long
// enough to measure the steal during it: a slice stolen from a short
// request delays it by the slice's whole length, not in proportion.
// Peak RSS is the median over all windows.
func windowStats(r *phaseResult, host hostTrace) windowed {
	sort.Slice(r.samples, func(i, j int) bool { return r.samples[i].atUS < r.samples[j].atUS })
	ws := split(r, host, minWindowSamples)
	var peak, rawRPS, rawMS []float64
	for _, w := range ws {
		if hi := host.peakRSS(r.start.Add(w.from), r.start.Add(w.to)); hi > 0 {
			peak = append(peak, hi)
		}
		rawRPS = append(rawRPS, float64(len(w.ms))/(w.to-w.from).Seconds())
		rawMS = append(rawMS, w.raw...)
	}
	steals := make([]float64, len(ws))
	for i, w := range ws {
		steals[i] = w.steal
	}
	sort.Float64s(steals)
	quietest := steals[(len(steals)-1)/4]
	var rps, ms []float64
	for _, w := range ws {
		if w.steal <= quietest {
			rps = append(rps, float64(len(w.ms))/(w.to-w.from).Seconds()/(1-w.steal))
			ms = append(ms, w.ms...)
		}
	}
	out := windowed{
		windows: len(ws),
		rps:     quantile(rps, 0.5),
		p50:     quantile(ms, 0.5),
		p99:     quantile(ms, 0.99),
		rss:     quantile(peak, 0.5),
		steal:   host.stealFrac(r.start, r.start.Add(r.elapsed)),
	}
	out.raw.rps, out.raw.p50, out.raw.p99 = quantile(rawRPS, 0.5), quantile(rawMS, 0.5), quantile(rawMS, 0.99)
	return out
}

func mixFor(workload string, seed uint64) mix {
	if workload == wlMonteCarlo {
		return monteCarloMix{seed: seed}
	}
	return newClosedFormMix(seed)
}

// runCycles runs batch cycles until dur has passed; each cycle's wall
// time is one latency sample and each job one attempted operation.
func runCycles(b *batch, seed uint64, dur time.Duration, tr *tracer, phase string) *phaseResult {
	start := time.Now()
	r := &phaseResult{start: start}
	for c := 0; c == 0 || time.Since(start) < dur; c++ {
		sp := tr.start("batch.cycle", phase, 0, 0)
		t0 := time.Now()
		errs := b.cycle(seed, c, tr, phase, sp.id())
		r.samples = append(r.samples, newSample(start, time.Since(t0)))
		sp.end()
		r.attempted += len(batchJobs)
		for _, err := range errs {
			r.fail(err)
		}
	}
	r.elapsed = time.Since(start)
	return r
}

func logErrs(log io.Writer, errs []string) {
	for _, e := range errs {
		fmt.Fprintln(log, "perfbench: FAILED:", e)
	}
}

// tracedRun measures the per-layer metrics. The workload runs three
// equal phases from the same fresh state: untraced, traced, untraced.
// The traced phase gives the layer metrics, and its throughput against
// the mean of the untraced ones (which cancels drift over the run) is
// the tracing overhead. Short traced phases of the other workloads then
// fill the layers this one does not reach.
func tracedRun(cfg *config, env map[string]any, log io.Writer) (*result, error) {
	tr := newTracer()
	hs := startHost()
	defer hs.finish()
	third := time.Duration(cfg.seconds * float64(time.Second) / 3)
	total := &phaseResult{}
	var (
		own       layerValues
		traced    *phaseResult
		untraced  func() (*phaseResult, error)
		untraced1 *phaseResult
		err       error
	)
	switch cfg.workload {
	case wlBatch:
		b, err := newBatch(cfg.root)
		if err != nil {
			return nil, err
		}
		if errs := b.cycle(cfg.seed, -1, nil, "", 0); len(errs) > 0 {
			return nil, fmt.Errorf("warm-up cycle: %w", errors.Join(errs...))
		}
		untraced = func() (*phaseResult, error) {
			b.reset()
			return runCycles(b, cfg.seed, third, nil, ""), nil
		}
		if untraced1, err = untraced(); err != nil {
			return nil, err
		}
		b.reset()
		before := takeEngineSnap()
		traced = runCycles(b, cfg.seed, third, tr, cfg.workload)
		own = batchLayers(b, traced.elapsed, before, takeEngineSnap())
	default:
		m := mixFor(cfg.workload, cfg.seed)
		rp := newReplayer(runtime.GOMAXPROCS(0))
		untraced = func() (*phaseResult, error) {
			s, err := bootServer(cfg.wrap)
			if err != nil {
				return nil, err
			}
			u := s.drive(m, third, 0, nil, "")
			s.close()
			u.verify(rp, nil, "")
			return u, nil
		}
		if untraced1, err = untraced(); err != nil {
			return nil, err
		}
		if traced, own, err = servePhase(cfg, m, 0, third, tr, cfg.workload); err != nil {
			return nil, err
		}
	}
	untraced2, err := untraced()
	if err != nil {
		return nil, err
	}
	host := hs.finish()
	for _, r := range []*phaseResult{untraced1, traced, untraced2} {
		total.merge(r)
	}
	rate := func(r *phaseResult) float64 {
		steal := host.stealFrac(r.start, r.start.Add(r.elapsed))
		return float64(len(r.samples)) / r.elapsed.Seconds() / (1 - steal)
	}
	own["trace.overhead_frac"] = 1 - 2*rate(traced)/(rate(untraced1)+rate(untraced2))
	own["host.steal_frac"] = host.stealFrac(traced.start, traced.start.Add(traced.elapsed))

	// Complements: the layers this workload does not reach, served
	// workloads first so a served workload's missing engine layers come
	// from served Monte-Carlo answers.
	for _, c := range []struct {
		workload string
		ops      uint64
	}{{wlClosedForm, complementClosedFormOps}, {wlMonteCarlo, complementMonteCarloOps}} {
		if c.workload == cfg.workload {
			continue
		}
		t, l, err := servePhase(cfg, mixFor(c.workload, cfg.seed), c.ops, 0, tr, "complement:"+c.workload)
		if err != nil {
			return nil, err
		}
		own.fill(l)
		total.merge(t)
	}
	if cfg.workload != wlBatch {
		b, err := newBatch(cfg.root)
		if err != nil {
			return nil, err
		}
		before := takeEngineSnap()
		t := runCycles(b, cfg.seed, 0, tr, "complement:"+wlBatch)
		own.fill(batchLayers(b, t.elapsed, before, takeEngineSnap()))
		total.merge(t)
	}
	re, err := routeEpisodeLayers(cfg.seed, tr, "replay:route")
	if err != nil {
		return nil, err
	}
	own.fill(re)
	if own["constellation.scanner_build_ms"], err = scannerBuildMS(tr, "replay:constellation"); err != nil {
		return nil, err
	}
	own["failed_frac"] = float64(total.failed) / float64(max(total.attempted, 1))
	own["latency_samples"] = float64(len(total.samples))
	logErrs(log, total.errs)

	// Export the spans and have metricscheck validate the export.
	path := filepath.Join(cfg.outDir, "traces", fmt.Sprintf("%s-seed%d.chrome.json", cfg.workload, cfg.seed))
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return nil, err
	}
	if err := writeChrome(path, tr.all(), env); err != nil {
		return nil, fmt.Errorf("writing the trace: %w", err)
	}
	total.attempted++
	if err := checkChrome(cfg.metricscheck, path, log); err != nil {
		total.fail(err)
		fmt.Fprintln(log, "perfbench: FAILED:", err)
	}

	metrics := make(map[string]metricValue, len(perLayer))
	for _, m := range perLayer {
		metrics[m.name] = metricValue{own[m.name], m.unit}
	}
	return &result{Correct: total.failed == 0, Attempted: total.attempted, Failed: total.failed, Metrics: metrics}, nil
}

// servePhase boots a traced server, drives it (for dur, or for ops
// requests), replays every computed answer and derives the phase's
// per-layer metrics.
func servePhase(cfg *config, m mix, ops uint64, dur time.Duration, tr *tracer, phase string) (*phaseResult, layerValues, error) {
	wrap := func(h http.Handler) http.Handler {
		if cfg.wrap != nil {
			h = cfg.wrap(h)
		}
		return tr.wrap(h, phase)
	}
	s, err := bootServer(wrap)
	if err != nil {
		return nil, nil, err
	}
	before, regBefore := takeEngineSnap(), s.reg.Snapshot()
	r := s.drive(m, dur, ops, tr, phase)
	after := takeEngineSnap()
	s.close()
	reg := values(s.reg.Snapshot(), &regBefore)
	r.verify(newReplayer(runtime.GOMAXPROCS(0)), tr, "replay:"+phase)
	var spans []span
	for _, sp := range tr.all() {
		if sp.Phase == phase || sp.Phase == "replay:"+phase {
			spans = append(spans, sp)
		}
	}
	return r, serveLayers(r, spans, reg, before, after), nil
}

// checkChrome runs metricscheck -chrome on the export.
func checkChrome(bin, path string, log io.Writer) error {
	if bin == "" {
		fmt.Fprintln(log, "perfbench: no -metricscheck binary; the Chrome export is not validated")
		return nil
	}
	out, err := exec.Command(bin, "-chrome", path).CombinedOutput()
	if err != nil {
		return fmt.Errorf("metricscheck -chrome %s: %v: %s", path, err, strings.TrimSpace(string(out)))
	}
	fmt.Fprint(log, "perfbench: ", string(out))
	return nil
}

// quantile is the linearly interpolated q-quantile of xs (xs is
// sorted in place).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sort.Float64s(xs)
	pos := q * float64(len(xs)-1)
	lo := int(math.Floor(pos))
	if lo+1 >= len(xs) {
		return xs[len(xs)-1]
	}
	return xs[lo] + (pos-float64(lo))*(xs[lo+1]-xs[lo])
}

// cpuSeconds is the CPU time the process has used so far.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return math.NaN()
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()).Seconds()
}

// environment is the record's environment block.
func environment(cfg *config) map[string]any {
	commit, dirty := gitState(cfg.root)
	return map[string]any{
		"go":         runtime.Version(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"nproc":      runtime.NumCPU(),
		"cpu":        cpuModel(),
		"commit":     commit,
		"dirty":      dirty,
		"workload":   cfg.workload,
		"seed":       cfg.seed,
		"seconds":    cfg.seconds,
		"trace":      cfg.trace,
	}
}

func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// gitState reads the checkout's commit and dirty flag. A checkout
// without .git (an exported tree) reports "unknown" and no flag.
func gitState(root string) (string, any) {
	if _, err := os.Stat(filepath.Join(root, ".git")); err != nil {
		return "unknown", nil
	}
	head, err := exec.Command("git", "-C", root, "rev-parse", "HEAD").Output()
	if err != nil {
		return "unknown", nil
	}
	status, err := exec.Command("git", "-C", root, "--no-optional-locks", "status", "--porcelain").Output()
	if err != nil {
		return strings.TrimSpace(string(head)), nil
	}
	return strings.TrimSpace(string(head)), len(strings.TrimSpace(string(status))) > 0
}

// writeRecord keeps the run's environment and result next to the
// traces.
func writeRecord(cfg *config, record map[string]any) error {
	dir := filepath.Join(cfg.outDir, "results")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	data, err := json.MarshalIndent(record, "", "  ")
	if err != nil {
		return err
	}
	trace := 0
	if cfg.trace {
		trace = 1
	}
	name := fmt.Sprintf("%s-seed%d-trace%d.json", cfg.workload, cfg.seed, trace)
	return os.WriteFile(filepath.Join(dir, name), append(data, '\n'), 0o644)
}
