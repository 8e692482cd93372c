package qosd

import (
	"bytes"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"satqos/internal/obs"
	"satqos/internal/qos"
	"satqos/internal/validate"
)

// FuzzEvaluateRequest posts arbitrary bodies to the served handler. It
// must never panic. Every 200 must carry a well-formed P(Y≥y) whose
// mean_level is Σ_{y≥1} P(Y≥y). Every other status must be a client
// error (4xx), or a 504 only once the request's deadline has passed.
// Every request must return within its deadline plus 1 s.
func FuzzEvaluateRequest(f *testing.F) {
	const requestTimeout = 2 * time.Second
	s, err := NewServer(Config{
		Registry:       obs.NewRegistry(),
		MaxEpisodes:    2000,
		RequestTimeout: requestTimeout,
	})
	if err != nil {
		f.Fatal(err)
	}
	h := s.Handler()
	f.Fuzz(func(t *testing.T, body []byte) {
		// The deadline the server owes this body: timeout_ms when it
		// shortens the server default, else the default.
		deadline := requestTimeout
		var probe struct {
			TimeoutMS int `json:"timeout_ms"`
		}
		if json.Unmarshal(body, &probe) == nil && probe.TimeoutMS > 0 &&
			probe.TimeoutMS < int(requestTimeout/time.Millisecond) {
			deadline = time.Duration(probe.TimeoutMS) * time.Millisecond
		}

		req := httptest.NewRequest(http.MethodPost, "/v1/evaluate", bytes.NewReader(body))
		rec := httptest.NewRecorder()
		start := time.Now()
		h.ServeHTTP(rec, req)
		elapsed := time.Since(start)

		if elapsed > deadline+time.Second {
			t.Fatalf("request took %v, deadline %v\nbody: %s", elapsed, deadline, body)
		}
		switch code := rec.Code; {
		case code == http.StatusOK:
			var resp Response
			if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
				t.Fatalf("200 body does not decode: %v\nbody: %s\nresponse: %s", err, body, rec.Body.Bytes())
			}
			var pmf qos.PMF
			sum := 0.0
			for y := qos.Level(0); y < qos.NumLevels; y++ {
				next := 0.0
				if y+1 < qos.NumLevels {
					next = resp.PYGE[y+1]
				}
				pmf[y] = resp.PYGE[y] - next
				if y >= 1 {
					sum += resp.PYGE[y]
				}
			}
			if err := validate.CheckPMF(pmf); err != nil {
				t.Fatalf("200 with a bad PMF %v: %v\nbody: %s", resp.PYGE, err, body)
			}
			if math.Abs(resp.MeanLevel-sum) > 1e-9 {
				t.Fatalf("mean_level %v, want Σ P(Y≥y) = %v\nbody: %s", resp.MeanLevel, sum, body)
			}
		case code == http.StatusGatewayTimeout:
			if elapsed < deadline {
				t.Fatalf("504 after %v, before the %v deadline\nbody: %s", elapsed, deadline, body)
			}
		case code < 400 || code >= 500:
			t.Fatalf("status %d: %s\nbody: %s", code, rec.Body.Bytes(), body)
		}
	})
}
