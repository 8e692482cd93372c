// Command satqosload is the serving smoke client: it drives a running
// satqosd through one short deterministic exchange and fails on any
// wrong answer.
//
//	satqosd -addr 127.0.0.1:0 -ready-file /tmp/addr -mc-budget 50000 &
//	satqosload -addr-file /tmp/addr -shed-episodes 100000 -metrics-out metrics.json
//
// It polls the address file, then runs one analytic query, one
// analytic query with a field the analytic backend does not model
// (which must answer 400 naming the field), one Monte-Carlo query plus
// its repeat (which must be served identically from the response
// cache), and two over-budget queries, one montecarlo and one auto,
// that must both be shed with 429: an auto request that resolves to
// Monte-Carlo is never answered by another backend. It then saves
// /metrics.json for metricscheck. Served
// throughput and latency are measured by perfbench's serve workloads,
// not here.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"strings"
	"time"
)

// The exchange's fixed sizes: the episode budget of the Monte-Carlo
// request and its cached repeat, and the per-request client timeout.
const (
	episodes = 2000
	timeout  = 2 * time.Minute
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "satqosload:", err)
		os.Exit(1)
	}
}

type options struct {
	addr         string
	addrFile     string
	shedEpisodes int
	metricsOut   string
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("satqosload", flag.ContinueOnError)
	var o options
	fs.StringVar(&o.addr, "addr", "", "satqosd address (host:port)")
	fs.StringVar(&o.addrFile, "addr-file", "", "file to read the address from (polled; written by satqosd -ready-file)")
	fs.IntVar(&o.shedEpisodes, "shed-episodes", 100_000, "episode budget of the two requests that must be shed with 429")
	fs.StringVar(&o.metricsOut, "metrics-out", "", "save the server's /metrics.json snapshot to this path")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() > 0 {
		return fmt.Errorf("unexpected arguments: %v", fs.Args())
	}
	addr, err := resolveAddr(&o)
	if err != nil {
		return err
	}
	return smoke(&o, &http.Client{Timeout: timeout}, "http://"+addr, stdout)
}

// resolveAddr returns -addr, or polls -addr-file until satqosd writes
// its bound address there.
func resolveAddr(o *options) (string, error) {
	if o.addr != "" {
		return o.addr, nil
	}
	if o.addrFile == "" {
		return "", fmt.Errorf("need -addr or -addr-file")
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		b, err := os.ReadFile(o.addrFile)
		if addr := strings.TrimSpace(string(b)); err == nil && addr != "" {
			return addr, nil
		}
		if time.Now().After(deadline) {
			return "", fmt.Errorf("address never appeared in %s", o.addrFile)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// answer is the subset of the server response the client validates;
// Error is the message of an error response.
type answer struct {
	Mode   string     `json:"mode"`
	Cached bool       `json:"cached"`
	PYGE   [4]float64 `json:"p_y_ge"`
	Error  string     `json:"error"`
}

// evaluate posts one request body and validates the answer shape.
// status is the HTTP status; err is set for transport failures and
// malformed 200s.
func evaluate(client *http.Client, base, body string) (answer, int, error) {
	resp, err := client.Post(base+"/v1/evaluate", "application/json", strings.NewReader(body))
	if err != nil {
		return answer{}, 0, err
	}
	defer resp.Body.Close()
	var a answer
	if resp.StatusCode != http.StatusOK {
		// An error body that does not decode leaves Error empty.
		json.NewDecoder(resp.Body).Decode(&a)
		io.Copy(io.Discard, resp.Body)
		return a, resp.StatusCode, nil
	}
	if err := json.NewDecoder(resp.Body).Decode(&a); err != nil {
		return a, resp.StatusCode, fmt.Errorf("decoding answer: %w", err)
	}
	if a.PYGE[0] <= 0 || a.PYGE[0] > 1 {
		return a, resp.StatusCode, fmt.Errorf("implausible P(Y>=0) = %v", a.PYGE[0])
	}
	return a, resp.StatusCode, nil
}

// smoke runs the CI exchange: analytic, an unmodelled field rejected,
// Monte-Carlo + cached repeat, an over-budget montecarlo and auto
// request shed, then saves the metrics snapshot.
func smoke(o *options, client *http.Client, base string, stdout io.Writer) error {
	a, status, err := evaluate(client, base, `{"mode":"analytic","k":10}`)
	if err != nil || status != http.StatusOK {
		return fmt.Errorf("analytic: status %d err %v", status, err)
	}
	if a.Mode != "analytic" {
		return fmt.Errorf("analytic answered via %q", a.Mode)
	}
	a, status, err = evaluate(client, base, `{"mode":"analytic","k":10,"loss_prob":0.4}`)
	if err != nil || status != http.StatusBadRequest || !strings.Contains(a.Error, "loss_prob") {
		return fmt.Errorf("analytic with loss_prob: status %d %q err %v, want 400 naming loss_prob", status, a.Error, err)
	}

	mcBody := fmt.Sprintf(`{"mode":"montecarlo","episodes":%d,"seed":7}`, episodes)
	first, status, err := evaluate(client, base, mcBody)
	if err != nil || status != http.StatusOK {
		return fmt.Errorf("montecarlo: status %d err %v", status, err)
	}
	if first.Mode != "montecarlo" || first.Cached {
		return fmt.Errorf("montecarlo first answer: mode=%q cached=%t", first.Mode, first.Cached)
	}
	repeat, status, err := evaluate(client, base, mcBody)
	if err != nil || status != http.StatusOK {
		return fmt.Errorf("cached repeat: status %d err %v", status, err)
	}
	if !repeat.Cached || repeat.PYGE != first.PYGE {
		return fmt.Errorf("repeat not served identically from cache: cached=%t", repeat.Cached)
	}

	for _, mode := range []string{"montecarlo", "auto"} {
		a, status, err = evaluate(client, base,
			fmt.Sprintf(`{"mode":%q,"episodes":%d,"seed":9}`, mode, o.shedEpisodes))
		if err != nil {
			return fmt.Errorf("over-budget %s request: %v", mode, err)
		}
		if status != http.StatusTooManyRequests {
			return fmt.Errorf("over-budget %s request: status %d (answered via %q), want 429", mode, status, a.Mode)
		}
	}

	if o.metricsOut != "" {
		resp, err := client.Get(base + "/metrics.json")
		if err != nil {
			return fmt.Errorf("fetching metrics: %w", err)
		}
		defer resp.Body.Close()
		var buf bytes.Buffer
		if _, err := buf.ReadFrom(resp.Body); err != nil {
			return err
		}
		if resp.StatusCode != http.StatusOK {
			return fmt.Errorf("/metrics.json: status %d", resp.StatusCode)
		}
		if err := os.WriteFile(o.metricsOut, buf.Bytes(), 0o644); err != nil {
			return err
		}
	}
	fmt.Fprintln(stdout, "satqosload: smoke ok (analytic, unmodelled field 400, montecarlo, cache hit, 429 shed of montecarlo and auto)")
	return nil
}
