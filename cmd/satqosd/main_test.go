package main

import (
	"encoding/json"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"satqos/internal/obs"
)

// TestServeAndDrain: the daemon binds an ephemeral port, announces it
// in -ready-file, answers a request, and on stop drains, returns nil
// and dumps a snapshot that counted the request.
func TestServeAndDrain(t *testing.T) {
	dir := t.TempDir()
	ready := filepath.Join(dir, "addr")
	metrics := filepath.Join(dir, "metrics.json")
	stop := make(chan struct{})
	done := make(chan error, 1)
	go func() {
		done <- run([]string{"-addr", "127.0.0.1:0", "-ready-file", ready, "-metrics", metrics}, io.Discard, stop)
	}()

	var addr string
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

	resp, err := http.Post("http://"+addr+"/v1/evaluate", "application/json",
		strings.NewReader(`{"mode":"analytic","k":10}`))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d, want 200", resp.StatusCode)
	}

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

func TestRejectsPositionalArgs(t *testing.T) {
	err := run([]string{"stray"}, io.Discard, nil)
	if err == nil || !strings.Contains(err.Error(), "unexpected arguments") {
		t.Fatalf("err = %v, want the unexpected-arguments error", err)
	}
}
