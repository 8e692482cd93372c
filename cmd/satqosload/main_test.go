package main

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"satqos/internal/obs"
	"satqos/internal/qosd"
)

// startServer serves an in-process satqosd handler and returns its
// host:port.
func startServer(t *testing.T, cfg qosd.Config) string {
	t.Helper()
	cfg.Registry = obs.NewRegistry()
	srv, err := qosd.NewServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return strings.TrimPrefix(ts.URL, "http://")
}

// TestSmokeExchange: against the budget the serving gate boots satqosd
// with, the whole exchange passes, exactly one request is shed, and the
// saved snapshot parses.
func TestSmokeExchange(t *testing.T) {
	addr := startServer(t, qosd.Config{MCBudget: 50000})
	out := filepath.Join(t.TempDir(), "metrics.json")
	if err := run([]string{"-addr", addr, "-shed-episodes", "100000", "-metrics-out", out}, io.Discard); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	var snap obs.Snapshot
	if err := json.Unmarshal(data, &snap); err != nil {
		t.Fatalf("-metrics-out file does not parse: %v", err)
	}
	shed := snap.Get("satqosd_shed_total")
	if shed == nil || shed.Value == nil || *shed.Value != 1 {
		t.Fatalf("satqosd_shed_total = %+v, want 1", shed)
	}
}

// TestSmokeNeedsCacheHit: a server with its response cache disabled
// answers the Monte-Carlo repeat afresh, which the exchange rejects.
func TestSmokeNeedsCacheHit(t *testing.T) {
	addr := startServer(t, qosd.Config{MCBudget: 50000, CacheSize: -1})
	err := run([]string{"-addr", addr}, io.Discard)
	if err == nil || !strings.Contains(err.Error(), "not served identically from cache") {
		t.Fatalf("err = %v, want the cache-repeat failure", err)
	}
}

// TestSmokeNeedsUnmodelledField400: a server that drops loss_prob
// answers the analytic request with loss 200, which the exchange
// rejects.
func TestSmokeNeedsUnmodelledField400(t *testing.T) {
	srv, err := qosd.NewServer(qosd.Config{Registry: obs.NewRegistry(), MCBudget: 50000})
	if err != nil {
		t.Fatal(err)
	}
	h := srv.Handler()
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		body, _ := io.ReadAll(r.Body)
		r.Body = io.NopCloser(bytes.NewReader(bytes.Replace(body, []byte(`,"loss_prob":0.4`), nil, 1)))
		h.ServeHTTP(w, r)
	}))
	t.Cleanup(ts.Close)
	err = run([]string{"-addr", strings.TrimPrefix(ts.URL, "http://")}, io.Discard)
	if err == nil || !strings.Contains(err.Error(), "want 400 naming loss_prob") {
		t.Fatalf("err = %v, want the loss_prob failure", err)
	}
}

// TestNeedsAddress: without -addr or -addr-file there is nothing to
// drive.
func TestNeedsAddress(t *testing.T) {
	err := run(nil, io.Discard)
	if err == nil || !strings.Contains(err.Error(), "need -addr or -addr-file") {
		t.Fatalf("err = %v, want the missing-address error", err)
	}
}
