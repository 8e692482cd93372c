package main

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"satqos/internal/obs"
)

// startDaemon runs the daemon with the given flags on an ephemeral
// port and waits until it announces its address in -ready-file. Closing
// the returned stop channel drains it; run's result arrives on done.
func startDaemon(t *testing.T, args ...string) (addr string, stop chan struct{}, done chan error) {
	t.Helper()
	ready := filepath.Join(t.TempDir(), "addr")
	stop = make(chan struct{})
	done = make(chan error, 1)
	args = append([]string{"-addr", "127.0.0.1:0", "-ready-file", ready}, args...)
	go func() { done <- run(args, io.Discard, stop) }()
	deadline := time.Now().Add(10 * time.Second)
	for addr == "" {
		select {
		case err := <-done:
			t.Fatalf("run returned before serving: %v", err)
		case <-time.After(10 * time.Millisecond):
		}
		if time.Now().After(deadline) {
			t.Fatal("address never appeared in -ready-file")
		}
		b, _ := os.ReadFile(ready)
		addr = strings.TrimSpace(string(b))
	}
	return addr, stop, done
}

// evaluate posts one request body and fails the test unless it
// answers 200.
func evaluate(t *testing.T, addr, body string) {
	t.Helper()
	resp, err := http.Post("http://"+addr+"/v1/evaluate", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("%s: status %d, want 200", body, resp.StatusCode)
	}
}

// TestServeAndDrain: the daemon binds an ephemeral port, announces it
// in -ready-file, answers a request, and on stop drains, returns nil
// and dumps a snapshot that counted the request.
func TestServeAndDrain(t *testing.T) {
	metrics := filepath.Join(t.TempDir(), "metrics.json")
	addr, stop, done := startDaemon(t, "-metrics", metrics)
	evaluate(t, addr, `{"mode":"analytic","k":10}`)

	close(stop)
	if err := <-done; err != nil {
		t.Fatalf("run: %v", err)
	}
	data, err := os.ReadFile(metrics)
	if err != nil {
		t.Fatal(err)
	}
	var snap obs.Snapshot
	if err := json.Unmarshal(data, &snap); err != nil {
		t.Fatal(err)
	}
	req := snap.Get("satqosd_requests_total")
	if req == nil || req.Value == nil || *req.Value != 1 {
		t.Fatalf("satqosd_requests_total = %+v, want 1", req)
	}
}

// TestCleanServedTraceIsEmpty: the flight recorder keeps only anomalous
// episodes, so two clean Monte-Carlo requests leave nothing in the
// export. The trace must hold no per-request record of wall-clock
// scheduling, which would grow for the life of the process and make the
// export differ between runs.
func TestCleanServedTraceIsEmpty(t *testing.T) {
	chrome := filepath.Join(t.TempDir(), "trace.json")
	addr, stop, done := startDaemon(t, "-trace-chrome", chrome)
	for _, seed := range []int{1, 2} {
		evaluate(t, addr, fmt.Sprintf(`{"mode":"montecarlo","preset":"reference","episodes":5000,"seed":%d}`, seed))
	}

	close(stop)
	if err := <-done; err != nil {
		t.Fatalf("run: %v", err)
	}
	data, err := os.ReadFile(chrome)
	if err != nil {
		t.Fatal(err)
	}
	var file struct {
		TraceEvents []json.RawMessage `json:"traceEvents"`
	}
	if err := json.Unmarshal(data, &file); err != nil {
		t.Fatalf("trace export does not parse: %v", err)
	}
	if n := len(file.TraceEvents); n != 0 {
		t.Fatalf("clean served requests left %d trace events:\n%.600s", n, data)
	}
}

func TestRejectsPositionalArgs(t *testing.T) {
	err := run([]string{"stray"}, io.Discard, nil)
	if err == nil || !strings.Contains(err.Error(), "unexpected arguments") {
		t.Fatalf("err = %v, want the unexpected-arguments error", err)
	}
}
