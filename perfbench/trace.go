package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call recorded by the benchmark around a layer
// boundary. Parent is the span that encloses it in time; Link ties a
// replayed backend call to the client request whose answer it
// reproduces (the replay runs after the request, so it is not nested).
type span struct {
	ID, Parent, Link int64
	Name             string
	Phase            string // Chrome process: the workload phase that produced it
	Lane             int    // Chrome thread: client or worker lane
	Start, End       int64  // nanoseconds since the tracer's base
	Kind             string // request kind, for client and handler spans
	Cached           bool
}

func (s *span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer keeps spans in memory until the run ends. A nil *tracer is the
// untraced run: every method is a no-op.
type tracer struct {
	base  time.Time
	next  atomic.Int64
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{base: time.Now()} }

// open is an in-progress span.
type open struct {
	t *tracer
	s span
}

func (t *tracer) start(name, phase string, parent int64, lane int) *open {
	if t == nil {
		return nil
	}
	return &open{t: t, s: span{
		ID: t.next.Add(1), Parent: parent, Name: name, Phase: phase, Lane: lane,
		Start: int64(time.Since(t.base)),
	}}
}

// id is the span's identifier (0 for a nil span).
func (o *open) id() int64 {
	if o == nil {
		return 0
	}
	return o.s.ID
}

func (o *open) end() {
	if o == nil {
		return
	}
	o.s.End = int64(time.Since(o.t.base))
	o.t.mu.Lock()
	o.t.spans = append(o.t.spans, o.s)
	o.t.mu.Unlock()
}

// spanHeader carries the client span id and lane to the handler
// wrapper, so the handler span nests under its request.
const spanHeader = "X-Perfbench-Span"

// wrap is the handler wrapper of traced serving: one span per request
// around Server.Handler(), parented to the client span.
func (t *tracer) wrap(next http.Handler, phase string) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		var parent int64
		lane := -1
		if v := r.Header.Get(spanHeader); v != "" {
			id, ln, _ := strings.Cut(v, ":")
			parent, _ = strconv.ParseInt(id, 10, 64)
			lane, _ = strconv.Atoi(ln)
		}
		h := t.start("qosd.handler", phase, parent, lane)
		next.ServeHTTP(w, r)
		h.end()
	})
}

// all returns the recorded spans ordered by id.
func (t *tracer) all() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := append([]span(nil), t.spans...)
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// chromeEvent is one Chrome trace-event record.
type chromeEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Ts   float64        `json:"ts"`
	Dur  *float64       `json:"dur,omitempty"`
	Args map[string]any `json:"args,omitempty"`
}

// writeChrome writes the spans as Chrome trace-event JSON: one process
// per phase, one thread per lane, one complete event per span.
func writeChrome(path string, spans []span, env map[string]any) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	w := bufio.NewWriter(f)
	pids := map[string]int{}
	tids := map[[2]int]bool{}
	first := true
	emit := func(ev chromeEvent) error {
		b, err := json.Marshal(ev)
		if err != nil {
			return err
		}
		if !first {
			w.WriteString(",\n")
		}
		first = false
		_, err = w.Write(b)
		return err
	}
	w.WriteString("{\"displayTimeUnit\":\"ms\",\"otherData\":")
	envJSON, err := json.Marshal(env)
	if err != nil {
		return err
	}
	w.Write(envJSON)
	w.WriteString(",\"traceEvents\":[\n")
	for i := range spans {
		s := &spans[i]
		pid, ok := pids[s.Phase]
		if !ok {
			pid = len(pids) + 1
			pids[s.Phase] = pid
			if err := emit(chromeEvent{Name: "process_name", Ph: "M", Pid: pid,
				Args: map[string]any{"name": s.Phase}}); err != nil {
				return err
			}
		}
		tid := s.Lane + 1 // lane -1 (unattributed) maps to thread 0
		if !tids[[2]int{pid, tid}] {
			tids[[2]int{pid, tid}] = true
			if err := emit(chromeEvent{Name: "thread_name", Ph: "M", Pid: pid, Tid: tid,
				Args: map[string]any{"name": fmt.Sprintf("lane %d", s.Lane)}}); err != nil {
				return err
			}
		}
		dur := float64(s.End-s.Start) / 1e3
		args := map[string]any{"id": s.ID}
		if s.Parent != 0 {
			args["parent"] = s.Parent
		}
		if s.Link != 0 {
			args["replays"] = s.Link
		}
		if s.Kind != "" {
			args["kind"] = s.Kind
			args["cached"] = s.Cached
		}
		if err := emit(chromeEvent{Name: s.Name, Ph: "X", Pid: pid, Tid: tid,
			Ts: float64(s.Start) / 1e3, Dur: &dur, Args: args}); err != nil {
			return err
		}
	}
	w.WriteString("\n]}\n")
	if err := w.Flush(); err != nil {
		return err
	}
	return f.Close()
}
