package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"time"

	"satqos/internal/capacity"
	"satqos/internal/constellation"
	"satqos/internal/obs"
	"satqos/internal/qos"
	"satqos/internal/qosd"
)

// clients is the closed-loop client count of the served workloads
// (the machine's core count the benchmark was sized on).
const clients = 2

// server is an in-process satqosd with default Config on a loopback
// listener, and the keep-alive client that drives it.
type server struct {
	reg    *obs.Registry
	ts     *httptest.Server
	client *http.Client
}

// bootServer starts a server from cold process-global caches and
// warms it: every preset's shared scanner is built by its first
// coverage query, and every backend answers once. wrap, when non-nil,
// wraps the handler (the traced run's timing wrapper, or a test's
// fault injector).
func bootServer(wrap func(http.Handler) http.Handler) (*server, error) {
	capacity.ResetAnalyticCache()
	qos.ResetGTableCache()
	reg := obs.NewRegistry()
	srv, err := qosd.NewServer(qosd.Config{Registry: reg})
	if err != nil {
		return nil, err
	}
	h := srv.Handler()
	if wrap != nil {
		h = wrap(h)
	}
	s := &server{
		reg: reg,
		ts:  httptest.NewServer(h),
		client: &http.Client{Transport: &http.Transport{
			MaxIdleConnsPerHost: clients,
			DisableCompression:  true,
		}},
	}
	for _, o := range warmupOps() {
		if _, _, err := s.do(o, nil); err != nil {
			s.close()
			return nil, fmt.Errorf("warm-up %s: %w", o.Path, err)
		}
	}
	return s, nil
}

// warmupOps is the fixed warm-up set: one coverage query per preset
// and one answer from each evaluation backend.
func warmupOps() []*op {
	var ops []*op
	for _, p := range constellation.PresetNames() {
		ops = append(ops, (&op{Kind: kindCoverage, Cov: coverageQuery{Preset: p, LatDeg: 30}}).finish())
	}
	return append(ops, warmupEvaluates()...)
}

func warmupEvaluates() []*op {
	lat := 30.0
	return []*op{
		(&op{Kind: kindAnalytic, Eval: qosd.Request{Mode: qosd.ModeAnalytic, K: 10}}).finish(),
		(&op{Kind: kindStochGeom, Eval: qosd.Request{Mode: qosd.ModeStochGeom,
			Preset: constellation.PresetStarlink, LatitudeDeg: &lat}}).finish(),
		(&op{Kind: kindMonteCarlo, Eval: qosd.Request{Mode: qosd.ModeMonteCarlo, K: 10,
			Episodes: mcMinEpisodes, Seed: 1}}).finish(),
	}
}

func (s *server) close() {
	s.ts.Close()
	s.client.CloseIdleConnections()
}

// do sends o, reads the whole body and validates it. It returns the
// answer and whether it was served from the response cache.
func (s *server) do(o *op, sp *open) (answer, bool, error) {
	method := http.MethodGet
	var body io.Reader
	if o.Body != nil {
		method = http.MethodPost
		body = bytes.NewReader(o.Body)
	}
	req, err := http.NewRequest(method, s.ts.URL+o.Path, body)
	if err != nil {
		return answer{}, false, err
	}
	if sp != nil {
		req.Header.Set(spanHeader, fmt.Sprintf("%d:%d", sp.s.ID, sp.s.Lane))
	}
	resp, err := s.client.Do(req)
	if err != nil {
		return answer{}, false, err
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return answer{}, false, err
	}
	if resp.StatusCode != http.StatusOK {
		return answer{}, false, fmt.Errorf("%s: status %d: %s", o.Path, resp.StatusCode, bytes.TrimSpace(data))
	}
	if o.Kind == kindCoverage {
		a, err := checkCoverage(o, data)
		return a, false, err
	}
	return checkEvaluate(o, data)
}

// coverageBody is the /v1/coverage answer.
type coverageBody struct {
	Preset   string  `json:"preset"`
	LatDeg   float64 `json:"lat_deg"`
	LonDeg   float64 `json:"lon_deg"`
	TMin     float64 `json:"t_min"`
	Covering int     `json:"covering"`
}

func checkCoverage(o *op, data []byte) (answer, error) {
	var b coverageBody
	if err := json.Unmarshal(data, &b); err != nil {
		return answer{}, fmt.Errorf("%s: decoding answer: %w", o.Path, err)
	}
	q := o.Cov
	if b.Preset != q.Preset || b.LatDeg != q.LatDeg || b.LonDeg != q.LonDeg || b.TMin != q.TMin {
		return answer{}, fmt.Errorf("%s: answer echoes %+v", o.Path, b)
	}
	if b.Covering < 0 {
		return answer{}, fmt.Errorf("%s: negative covering count %d", o.Path, b.Covering)
	}
	return answer{Covering: b.Covering}, nil
}

// probTol is the rounding slack on probability bounds, the slack the
// repository's own PMF validator allows: P(Y≥1) of a composed answer
// can exceed 1 by an ulp. meanTol bounds the rounding difference
// between the served mean level Σ y·P(Y=y) and Σ_{y≥1} P(Y≥y), which
// are equal in exact arithmetic.
const (
	probTol = 1e-9
	meanTol = 1e-12
)

// checkEvaluate applies the checks every evaluate answer must pass:
// P(Y≥y) is a CCDF (1 at y=0, within [0,1], nonincreasing), the mean
// level is Σ_{y≥1} P(Y≥y), the answer is not degraded, and it echoes
// the request's backend, preset, episodes and seed.
func checkEvaluate(o *op, data []byte) (answer, bool, error) {
	var r qosd.Response
	if err := json.Unmarshal(data, &r); err != nil {
		return answer{}, false, fmt.Errorf("decoding answer to %s: %w", o.Body, err)
	}
	fail := func(format string, args ...any) (answer, bool, error) {
		return answer{}, r.Cached, fmt.Errorf("answer to %s: %s", o.Body, fmt.Sprintf(format, args...))
	}
	if r.Degraded {
		return fail("degraded")
	}
	if r.PYGE[0] != 1 {
		return fail("P(Y>=0) = %v, want 1", r.PYGE[0])
	}
	sum := 0.0
	for y := 1; y < qos.NumLevels; y++ {
		p := r.PYGE[y]
		if math.IsNaN(p) || p < -probTol || p > 1+probTol || p > r.PYGE[y-1]+probTol {
			return fail("P(Y>=y) = %v is not a CCDF", r.PYGE)
		}
		sum += p
	}
	if math.Abs(r.MeanLevel-sum) > meanTol {
		return fail("mean_level %v != sum of P(Y>=y), y>=1 = %v", r.MeanLevel, sum)
	}
	wantMode := o.Kind
	if r.Mode != wantMode {
		return fail("answered by %q, want %q", r.Mode, wantMode)
	}
	wantPreset := o.Eval.Preset
	if wantPreset == "" {
		wantPreset = constellation.PresetReference
	}
	if r.Preset != wantPreset {
		return fail("preset %q, want %q", r.Preset, wantPreset)
	}
	if o.Kind == kindMonteCarlo && (r.Episodes != o.Eval.Episodes || r.Seed != o.Eval.Seed) {
		return fail("episodes=%d seed=%d, want %d and %d", r.Episodes, r.Seed, o.Eval.Episodes, o.Eval.Seed)
	}
	return answer{PYGE: r.PYGE, Mean: r.MeanLevel}, r.Cached, nil
}

// served is one answer kept for replay after the timed phase.
type served struct {
	op     *op
	got    answer
	client int64 // client span id (0 untraced)
}

// sample is one valid answer (or batch cycle): when it completed, in
// µs from the start of its phase, and its latency in ms. It is kept
// small because a run holds hundreds of thousands and the process's
// peak RSS is a reported metric.
type sample struct {
	atUS uint32
	ms   float32
}

func newSample(since time.Time, lat time.Duration) sample {
	return sample{uint32(time.Since(since) / time.Microsecond), float32(float64(lat) / 1e6)}
}

// phaseResult is what one timed phase observed.
type phaseResult struct {
	attempted, failed int
	samples           []sample // valid operations only
	chunks            [][]sample
	start             time.Time
	elapsed           time.Duration
	replays           []served
	errs              []string // the first few failures, for the log
}

// sampleChunk is the allocation unit of a phase's samples: chunks are
// never copied or freed while the phase runs, so the samples' share of
// the process's RSS grows with their number and no faster.
const sampleChunk = 4096

// record appends one sample.
func (r *phaseResult) record(s sample) {
	if len(r.samples) == cap(r.samples) {
		r.chunks = append(r.chunks, r.samples)
		r.samples = make([]sample, 0, sampleChunk)
	}
	r.samples = append(r.samples, s)
}

// flush gathers the chunks into samples once the phase has ended.
func (r *phaseResult) flush() {
	for _, c := range r.chunks {
		r.samples = append(r.samples, c...)
	}
	r.chunks = nil
}

func (r *phaseResult) fail(err error) {
	r.failed++
	if len(r.errs) < 5 {
		r.errs = append(r.errs, err.Error())
	}
}

func (r *phaseResult) merge(o *phaseResult) {
	r.attempted += o.attempted
	r.failed += o.failed
	r.samples = append(r.samples, o.samples...)
	r.replays = append(r.replays, o.replays...)
	for _, e := range o.errs {
		if len(r.errs) < 5 {
			r.errs = append(r.errs, e)
		}
	}
}

// drive runs the closed loop: `clients` goroutines pull request
// indices from a shared counter and send the next request only after
// the previous answer was read and validated. It stops at the
// deadline, or after maxOps requests when maxOps > 0. With a tracer,
// every request is a client span and every answer that was computed
// (not served from the cache) is kept for replay; without one, only
// the seeded check sample is kept.
func (s *server) drive(m mix, dur time.Duration, maxOps uint64, tr *tracer, phase string) *phaseResult {
	var next atomic.Uint64
	start := time.Now()
	deadline := start.Add(dur)
	results := make([]*phaseResult, clients)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(lane int) {
			defer wg.Done()
			res := &phaseResult{}
			results[lane] = res
			for {
				if maxOps == 0 && !time.Now().Before(deadline) {
					return
				}
				i := next.Add(1) - 1
				if maxOps > 0 && i >= maxOps {
					return
				}
				o := m.op(i)
				res.attempted++
				sp := tr.start("client", phase, 0, lane)
				t0 := time.Now()
				got, cached, err := s.do(o, sp)
				lat := time.Since(t0)
				if sp != nil {
					sp.s.Kind, sp.s.Cached = o.Kind, cached
				}
				sp.end()
				if err != nil {
					res.fail(err)
					continue
				}
				res.record(newSample(start, lat))
				if o.Check || (tr != nil && !cached) {
					res.replays = append(res.replays, served{op: o, got: got, client: sp.id()})
				}
			}
		}(c)
	}
	wg.Wait()
	total := &phaseResult{start: start, elapsed: time.Since(start)}
	for _, r := range results {
		r.flush()
		total.merge(r)
	}
	return total
}

// verify replays the kept answers through the backends' public
// functions and counts every mismatch as a failure.
func (r *phaseResult) verify(rp *replayer, tr *tracer, phase string) {
	for _, sv := range r.replays {
		want, err := rp.replay(sv.op, tr, phase, sv.client)
		if err == nil {
			err = compare(sv.op, sv.got, want)
		}
		if err != nil {
			r.fail(fmt.Errorf("replay: %w", err))
		}
	}
}

// values flattens a registry snapshot's counters and gauges by name.
// With a base snapshot, counters are the increments since the base
// (gauges are watermarks and keep their value).
func values(snap obs.Snapshot, base *obs.Snapshot) map[string]float64 {
	v := make(map[string]float64, len(snap.Metrics))
	for _, m := range snap.Metrics {
		if m.Value == nil {
			continue
		}
		v[m.Name] = *m.Value
		if base != nil && m.Type == "counter" {
			if b := base.Get(m.Name); b != nil && b.Value != nil {
				v[m.Name] -= *b.Value
			}
		}
	}
	return v
}

// histSum reads a histogram's count and sum from a snapshot.
func histSum(snap obs.Snapshot, name string) (count, sum float64) {
	if m := snap.Get(name); m != nil && m.Count != nil && m.Sum != nil {
		return float64(*m.Count), *m.Sum
	}
	return 0, 0
}
