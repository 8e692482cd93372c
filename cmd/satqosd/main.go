// Command satqosd serves the QoS-evaluation pipeline as a long-running
// HTTP/JSON daemon: POST /v1/evaluate answers "what QoS does this
// constellation + protocol + fault scenario deliver" from the analytic
// model, the Monte-Carlo episode engine, or the stochastic-geometry
// backend (O(1) at any fleet size; auto mode escalates to it at 1000
// satellites), with an episode-weighted admission budget (429 load
// shedding for every request that resolves to Monte-Carlo, auto
// included), a canonical-key response cache, and per-request deadlines
// that cancel the episode engine mid-run. GET /v1/coverage answers
// exact coverage counts from one scanner per preset, all built at
// start.
//
// Usage:
//
//	satqosd                                # serve on 127.0.0.1:8417
//	satqosd -addr 127.0.0.1:0 -ready-file /tmp/addr   # ephemeral port, written for scripts
//	satqosd -mc-budget 100000 -request-timeout 10s
//	satqosd -trace-chrome traces.json -trace-anomaly retries   # flight recorder across served episodes
//
//	curl -s localhost:8417/v1/evaluate -d '{"mode":"analytic","k":10}'
//	curl -s localhost:8417/v1/evaluate -d '{"mode":"stochgeom","preset":"starlink","latitude_deg":53}'
//	curl -s "localhost:8417/v1/coverage?preset=starlink&lat_deg=53&t_min=10"
//	curl -s localhost:8417/metrics          # Prometheus exposition
//	curl -s localhost:8417/metrics.json     # stable JSON snapshot (metricscheck)
//	curl -s localhost:8417/healthz
//
// SIGINT/SIGTERM drain in-flight requests (bounded) and exit 0.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"syscall"
	"time"

	"satqos/internal/obs"
	"satqos/internal/obs/trace"
	"satqos/internal/qosd"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, nil); err != nil {
		fmt.Fprintln(os.Stderr, "satqosd:", err)
		os.Exit(1)
	}
}

// run starts the daemon and blocks until a termination signal (or a
// value on testStop, which tests use in place of a signal).
func run(args []string, stdout io.Writer, testStop <-chan struct{}) error {
	fs := flag.NewFlagSet("satqosd", flag.ContinueOnError)
	addr := fs.String("addr", "127.0.0.1:8417", "listen address (use :0 for an ephemeral port)")
	workers := fs.Int("workers", 0, "episode-engine workers per Monte-Carlo request (0 = GOMAXPROCS; the answer does not depend on it)")
	maxEpisodes := fs.Int("max-episodes", 1_000_000, "largest per-request episode budget")
	mcBudget := fs.Int64("mc-budget", 0, "total episodes admitted across in-flight Monte-Carlo requests (0 = 4x max-episodes); excess is shed with 429")
	cacheSize := fs.Int("cache", 256, "response-cache capacity in entries (negative disables)")
	reqTimeout := fs.Duration("request-timeout", 30*time.Second, "per-request evaluation deadline (a request's timeout_ms may shorten it)")
	readyFile := fs.String("ready-file", "", "write the bound address to this file once serving (for scripts using -addr :0)")
	metricsOut := fs.String("metrics", "", "dump the JSON metrics snapshot to this path at exit (\"-\" for stdout)")
	var tcli trace.CLI
	tcli.Register(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() > 0 {
		return fmt.Errorf("unexpected arguments: %v", fs.Args())
	}
	tracing, err := tcli.Config(fs)
	if err != nil {
		return err
	}

	reg := obs.NewRegistry()
	srv, err := qosd.NewServer(qosd.Config{
		Registry:       reg,
		Workers:        *workers,
		MaxEpisodes:    *maxEpisodes,
		MCBudget:       *mcBudget,
		CacheSize:      *cacheSize,
		RequestTimeout: *reqTimeout,
		Tracing:        tracing,
	})
	if err != nil {
		return err
	}
	bound, stop, err := obs.ServeHandler(*addr, srv.Handler())
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "satqosd serving on http://%s\n", bound)
	if *readyFile != "" {
		if err := os.WriteFile(*readyFile, []byte(bound+"\n"), 0o644); err != nil {
			stop()
			return fmt.Errorf("writing -ready-file: %w", err)
		}
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	defer signal.Stop(sig)
	select {
	case s := <-sig:
		fmt.Fprintf(stdout, "satqosd: %v, draining\n", s)
	case <-testStop:
	}
	if err := stop(); err != nil {
		return fmt.Errorf("shutdown: %w", err)
	}
	if *metricsOut != "" {
		if err := reg.DumpJSON(*metricsOut, stdout); err != nil {
			return err
		}
	}
	return tcli.Export(tracing, stdout)
}
