package qosd

import (
	"fmt"
	"net/http"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"satqos/internal/obs"
)

// TestServedAlertLatencyPinned pins the served alert_latency quantiles
// of a clean, a lossy-with-retries and a fail-silent request to literal
// values, at one and two engine workers. The quantiles are read from the
// evaluation's own latency histogram; these are the values the earlier
// snapshot-and-parse path served, so the change of path moved no answer.
func TestServedAlertLatencyPinned(t *testing.T) {
	cases := []struct {
		name, body string
		want       LatencyQuantiles
	}{
		{"clean", `{"mode":"montecarlo","k":10,"scheme":"oaq","episodes":5000,"seed":11}`,
			LatencyQuantiles{P50: 4.332264957264957, P90: 4.8664529914529915, P99: 4.986645299145299}},
		{"lossy-retries", `{"mode":"montecarlo","k":10,"scheme":"oaq","episodes":5000,"seed":12,"loss_prob":0.2,"retries":2}`,
			LatencyQuantiles{P50: 4.29517902452777, P90: 4.859035804905554, P99: 4.985903580490556}},
		{"failsilent", `{"mode":"montecarlo","k":12,"scheme":"baq","episodes":5000,"seed":13,"fail_silent_prob":0.1,"backward":true}`,
			LatencyQuantiles{P50: 0.02380772142316427, P90: 0.08776896942242356, P99: 0.22402826855123675}},
	}
	for _, workers := range []int{1, 2} {
		_, ts := newTestServer(t, Config{Workers: workers})
		for _, c := range cases {
			resp, got := post(t, ts, c.body)
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("%s workers=%d: status %d", c.name, workers, resp.StatusCode)
			}
			if got.AlertLatency == nil || *got.AlertLatency != c.want {
				t.Errorf("%s workers=%d: alert_latency = %+v, want %+v", c.name, workers, got.AlertLatency, c.want)
			}
		}
	}
}

// TestOverloadShedsAndDrains offers ten times a small Monte-Carlo budget
// through at most 16 concurrent clients. Some requests must be shed with 429 and
// counted, the admission ledger and the goroutine count must return to
// their idle values once the requests drain, and the server registry
// must hold exactly the episodes of the admitted requests: each
// evaluation publishes into it directly, and none is lost.
func TestOverloadShedsAndDrains(t *testing.T) {
	// Each request takes the whole budget, so a request is shed whenever
	// another is evaluating. One evaluation runs for tens of milliseconds,
	// longer than the scheduler's preemption slice, so the other handlers
	// reach admission while it runs even on a single CPU.
	const (
		budget   = 50000
		episodes = budget
		requests = 10
		clients  = 16
	)
	reg := obs.NewRegistry()
	s, ts := newTestServer(t, Config{Registry: reg, MCBudget: budget, Workers: 1, CacheSize: -1})
	baseline := runtime.NumGoroutine()

	// Each client first opens its keep-alive connection with an analytic
	// request, which admission does not gate, so the Monte-Carlo burst
	// reaches the server at once instead of one connection at a time.
	transport := &http.Transport{MaxIdleConnsPerHost: clients}
	client := &http.Client{Transport: transport}
	statuses := make([]int, requests)
	next := make(chan int)
	start := make(chan struct{})
	var warm, wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		warm.Add(1)
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, err := client.Post(ts.URL+"/v1/evaluate", "application/json", strings.NewReader(`{"mode":"analytic"}`))
			if err == nil {
				resp.Body.Close()
			}
			warm.Done()
			<-start
			for i := range next {
				body := fmt.Sprintf(`{"mode":"montecarlo","k":10,"episodes":%d,"seed":%d}`, episodes, i+1)
				resp, err := client.Post(ts.URL+"/v1/evaluate", "application/json", strings.NewReader(body))
				if err != nil {
					t.Error(err)
					continue
				}
				resp.Body.Close()
				statuses[i] = resp.StatusCode
			}
		}()
	}
	warm.Wait()
	close(start)
	for i := 0; i < requests; i++ {
		next <- i
	}
	close(next)
	wg.Wait()

	var admitted, shed uint64
	for i, code := range statuses {
		switch code {
		case http.StatusOK:
			admitted++
		case http.StatusTooManyRequests:
			shed++
		default:
			t.Errorf("request %d: status %d, want 200 or 429", i, code)
		}
	}
	if shed == 0 {
		t.Errorf("no request shed at %d episodes offered against a budget of %d", requests*episodes, budget)
	}
	if got := s.shed.Value(); got != shed {
		t.Errorf("satqosd_shed_total = %d, want the %d answered 429", got, shed)
	}
	snap := reg.Snapshot()
	if m := snap.Get("oaq_episodes_total"); m == nil || m.Value == nil || uint64(*m.Value) != admitted*episodes {
		t.Errorf("oaq_episodes_total = %v, want %d admitted requests × %d episodes", m, admitted, episodes)
	}

	transport.CloseIdleConnections()
	deadline := time.Now().Add(2 * time.Second)
	for {
		inflight, goroutines := s.budget.Value(), runtime.NumGoroutine()
		if inflight == 0 && s.inflightEpisodes.Load() == 0 && goroutines <= baseline {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("after drain: satqosd_inflight_episodes = %d, ledger = %d, goroutines = %d (baseline %d)",
				inflight, s.inflightEpisodes.Load(), goroutines, baseline)
		}
		time.Sleep(10 * time.Millisecond)
	}
}
