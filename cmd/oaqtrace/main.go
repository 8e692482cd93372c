// Command oaqtrace prints the span tree of one OAQ/BAQ protocol
// episode: detections, computations, coordination requests, done
// propagation, timeouts, and alert deliveries — the executable
// counterpart of the paper's Figure 3 snapshots. The tree is the same
// structured trace -trace-chrome exports, so causality — which
// dispatch ran which computation, which message carried which alert —
// reads directly from the indentation. Times are minutes from the
// initial detection (t0).
//
// Usage:
//
//	oaqtrace                       # one episode, k=10, OAQ
//	oaqtrace -k 12 -scheme baq     # overlapping plane, baseline scheme
//	oaqtrace -level 2 -episodes 50 # first episode reaching level 2
//	oaqtrace -failsilent 1 -backward  # watch the Figure-4 timeout path
//	oaqtrace -level 2 -trace-chrome ep.json  # export for chrome://tracing
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"satqos/internal/oaq"
	"satqos/internal/obs"
	"satqos/internal/obs/trace"
	"satqos/internal/qos"
	"satqos/internal/stats"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "oaqtrace:", err)
		os.Exit(1)
	}
}

func run(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("oaqtrace", flag.ContinueOnError)
	k := fs.Int("k", 10, "plane capacity")
	schemeName := fs.String("scheme", "oaq", "scheme: oaq | baq")
	tau := fs.Float64("tau", 5, "alert deadline τ (minutes)")
	mu := fs.Float64("mu", 0.5, "signal termination rate µ (1/min)")
	nu := fs.Float64("nu", 30, "computation completion rate ν (1/min)")
	level := fs.Int("level", -1, "only print the first episode achieving this QoS level (-1: first detected)")
	episodes := fs.Int("episodes", 200, "episodes to search")
	backward := fs.Bool("backward", false, "enable backward (coordination-done) messaging")
	failSilent := fs.Float64("failsilent", 0, "per-peer fail-silent probability")
	seed := fs.Uint64("seed", 7, "random seed")
	metrics := fs.String("metrics", "", "dump the JSON metrics snapshot to this path at exit (\"-\" for stdout)")
	pprofAddr := fs.String("pprof", "", "serve net/http/pprof and a Prometheus /metrics endpoint on this address while running (e.g. localhost:6060)")
	var traceCLI trace.CLI
	traceCLI.Register(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}

	scheme, err := qos.ParseScheme(*schemeName)
	if err != nil {
		return err
	}
	if *pprofAddr != "" {
		stop, err := obs.ServeDebug(*pprofAddr, obs.Default(), w)
		if err != nil {
			return err
		}
		defer stop()
	}
	p := oaq.ReferenceParams(*k, scheme)
	p.TauMin = *tau
	p.SignalDuration = stats.Exponential{Rate: *mu}
	p.ComputeTime = stats.Exponential{Rate: *nu}
	p.BackwardMessaging = *backward
	p.FailSilentProb = *failSilent
	if *metrics != "" {
		// Every searched episode publishes into the process registry, so
		// the snapshot summarizes the whole search, not just the episode
		// that got printed.
		p.Metrics = obs.Default()
	}
	// Span tracing is always on here (head sampling every episode): the
	// searched episode's span tree is part of the output, and
	// -trace-chrome exports whatever the search visited.
	tracing, err := traceCLI.Config(fs)
	if err != nil {
		return err
	}
	if tracing == nil {
		tracing = &trace.Config{Collector: trace.NewCollector()}
	}
	tracing.SampleEvery = 1
	p.Tracing = tracing

	runner, err := oaq.NewRunner(p, stats.NewRNG(*seed, 0))
	if err != nil {
		return err
	}
	finish := func() error {
		runner.PublishMetrics()
		if err := traceCLI.Export(tracing, w); err != nil {
			return err
		}
		if *metrics == "" {
			return nil
		}
		return obs.Default().DumpJSON(*metrics, w)
	}

	for i := 0; i < *episodes; i++ {
		res := runner.Run()
		if !res.Detected {
			continue
		}
		if *level >= 0 && int(res.Level) != *level {
			continue
		}
		fmt.Fprintf(w, "%v episode on a k=%d plane (τ=%g, µ=%g, ν=%g, backward=%v)\n",
			scheme, *k, *tau, *mu, *nu, *backward)
		fmt.Fprintf(w, "outcome: level=%v delivered=%v latency=%.3f chain=%d messages=%d termination=%v\n\n",
			res.Level, res.Delivered, res.DeliveryLatency, res.ChainLength, res.MessagesSent, res.Termination)
		runner.FlushTraces()
		for _, tr := range tracing.Collector.Traces() {
			if tr.Ordinal == uint64(i) {
				// The root span opens at signal start; the origin is the
				// detection (t0).
				tr.WriteTree(w, tr.Spans[0].Start+res.DetectionDelay)
				break
			}
		}
		return finish()
	}
	if err := finish(); err != nil {
		return err
	}
	return fmt.Errorf("no matching episode in %d tries (level filter %d)", *episodes, *level)
}
