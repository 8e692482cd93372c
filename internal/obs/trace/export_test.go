package trace

import (
	"encoding/json"
	"math"
	"strings"
	"testing"
)

// testTrace is a deterministic hand-built anomalous episode used by the
// export tests: a root span, a nested compute, an async message linked
// into a dispatch, and an instantaneous termination event.
func testTrace() EpisodeTrace {
	return EpisodeTrace{
		Scope:   "test",
		Ordinal: 7,
		Reasons: ReasonRetries | ReasonLatency,
		Spans: []Span{
			{Seq: 0, Parent: -1, Kind: KindEpisode, Sat: SatKernel, Label: "episode", Start: 1, End: 9.5, Arg: 3},
			{Seq: 1, Parent: 0, Kind: KindCompute, Sat: 2, Label: "geoloc", Start: 1.25, End: 2.5},
			{Seq: 2, Parent: 0, Kind: KindMessage, Sat: 2, Label: "alert", Start: 2.5, End: 4},
			{Seq: 3, Parent: 0, Kind: KindDispatch, Sat: SatGround, Label: "deliver", Start: 4, End: 4.125},
			{Seq: 4, Parent: 3, Kind: KindTermination, Sat: SatKernel, Label: "term:retries", Start: 9.5, End: 9.5, Arg: 3},
		},
		Links: []Link{{From: 2, To: 3}},
	}
}

func TestCollectorSortsByScopeAndOrdinal(t *testing.T) {
	c := NewCollector()
	c.Add([]EpisodeTrace{{Scope: "b", Ordinal: 1}, {Scope: "a", Ordinal: 9}})
	c.Add([]EpisodeTrace{{Scope: "a", Ordinal: 2}, {Scope: "b", Ordinal: 0}})
	var got []string
	for _, tr := range c.Traces() {
		got = append(got, tr.ID())
	}
	want := "a/ep-2 a/ep-9 b/ep-0 b/ep-1"
	if s := strings.Join(got, " "); s != want {
		t.Errorf("sorted trace order %q, want %q", s, want)
	}
	if c.Len() != 4 {
		t.Errorf("Len = %d, want 4", c.Len())
	}

	var nilC *Collector
	nilC.Add([]EpisodeTrace{{}})
	if nilC.Len() != 0 || nilC.Traces() != nil {
		t.Error("nil collector not inert")
	}
}

// TestWriteChromeGolden pins the Chrome export byte-for-byte, including
// the span parent, the episode's dropped count and absolute origin, and
// each link's source and destination seqs: the export is the
// one span-trace format, compared with cmp by CI gates and golden
// tests, so any drift must be deliberate.
func TestWriteChromeGolden(t *testing.T) {
	tr := testTrace()
	tr.Dropped = 2
	c := NewCollector()
	c.Add([]EpisodeTrace{tr})
	var b strings.Builder
	if err := c.WriteChrome(&b); err != nil {
		t.Fatal(err)
	}
	want := `{"traceEvents":[` +
		`{"name":"process_name","ph":"M","pid":1,"tid":0,"ts":0,"args":{"dropped":2,"name":"test/ep-7 [retries|latency]","origin_min":1}},` +
		`{"name":"thread_name","ph":"M","pid":1,"tid":0,"ts":0,"args":{"name":"kernel"}},` +
		`{"name":"episode","ph":"X","pid":1,"tid":0,"ts":0,"dur":510000000,"cat":"episode","args":{"arg":3,"kind":"episode","parent":-1,"seq":0}},` +
		`{"name":"thread_name","ph":"M","pid":1,"tid":4,"ts":0,"args":{"name":"sat 2"}},` +
		`{"name":"geoloc","ph":"X","pid":1,"tid":4,"ts":15000000,"dur":75000000,"cat":"compute","args":{"arg":0,"kind":"compute","parent":0,"seq":1}},` +
		`{"name":"alert","ph":"X","pid":1,"tid":4,"ts":90000000,"dur":90000000,"cat":"message","args":{"arg":0,"kind":"message","parent":0,"seq":2}},` +
		`{"name":"thread_name","ph":"M","pid":1,"tid":1,"ts":0,"args":{"name":"ground"}},` +
		`{"name":"deliver","ph":"X","pid":1,"tid":1,"ts":180000000,"dur":7500000,"cat":"dispatch","args":{"arg":0,"kind":"dispatch","parent":0,"seq":3}},` +
		`{"name":"term:retries","ph":"i","pid":1,"tid":0,"ts":510000000,"cat":"termination","s":"t","args":{"arg":3,"kind":"termination","parent":3,"seq":4}},` +
		`{"name":"alert","ph":"s","pid":1,"tid":4,"ts":90000000,"cat":"link","id":1,"args":{"from_seq":2,"to_seq":3}},` +
		`{"name":"alert","ph":"f","pid":1,"tid":1,"ts":180000000,"cat":"link","id":1,"bp":"e","args":{"from_seq":2,"to_seq":3}}` +
		`],"displayTimeUnit":"ms"}` + "\n"
	if b.String() != want {
		t.Errorf("Chrome export drifted:\n--- got ---\n%s--- want ---\n%s", b.String(), want)
	}
}

// TestWriteChromeStructure decodes the Chrome export of the hand-built
// anomalous trace and checks the invariants the viewers rely on:
// process/thread metadata, complete events with durations, instants,
// balanced flow pairs, and per-episode time rebasing.
func TestWriteChromeStructure(t *testing.T) {
	c := NewCollector()
	c.Add([]EpisodeTrace{testTrace()})
	var b strings.Builder
	if err := c.WriteChrome(&b); err != nil {
		t.Fatal(err)
	}
	var file struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Ph   string         `json:"ph"`
			Pid  int            `json:"pid"`
			Tid  int            `json:"tid"`
			Ts   float64        `json:"ts"`
			Dur  *float64       `json:"dur"`
			ID   *int           `json:"id"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
		DisplayTimeUnit string `json:"displayTimeUnit"`
	}
	if err := json.Unmarshal([]byte(b.String()), &file); err != nil {
		t.Fatalf("chrome export does not parse: %v", err)
	}
	if file.DisplayTimeUnit != "ms" {
		t.Errorf("displayTimeUnit = %q", file.DisplayTimeUnit)
	}
	phases := map[string]int{}
	var sawProcessName, sawEpisodeSpan, sawTermInstant bool
	for _, ev := range file.TraceEvents {
		phases[ev.Ph]++
		if ev.Name == "" {
			t.Error("event with empty name")
		}
		if math.IsNaN(ev.Ts) || ev.Ts < 0 {
			t.Errorf("event %q has bad ts %g", ev.Name, ev.Ts)
		}
		switch {
		case ev.Ph == "M" && ev.Name == "process_name" && ev.Pid == 1:
			sawProcessName = true
			if name := ev.Args["name"]; name != "test/ep-7 [retries|latency]" {
				t.Errorf("process name = %v", name)
			}
		case ev.Ph == "X" && ev.Name == "episode":
			sawEpisodeSpan = true
			// Episode rebased to its earliest span: start 1min → ts 0,
			// duration 8.5 min in microseconds.
			if ev.Ts != 0 || ev.Dur == nil || *ev.Dur != 8.5*60e6 {
				t.Errorf("episode span ts=%g dur=%v, want 0 and 8.5min", ev.Ts, ev.Dur)
			}
			if ev.Tid != chromeTID(SatKernel) {
				t.Errorf("episode span tid = %d", ev.Tid)
			}
		case ev.Ph == "i" && ev.Name == "term:retries":
			sawTermInstant = true
		}
		if (ev.Ph == "s" || ev.Ph == "f") && ev.ID == nil {
			t.Errorf("flow event %q without id", ev.Name)
		}
		if ev.Ph == "X" && ev.Dur == nil {
			t.Errorf("complete event %q without dur", ev.Name)
		}
	}
	if !sawProcessName || !sawEpisodeSpan || !sawTermInstant {
		t.Errorf("missing sections: process=%v span=%v instant=%v",
			sawProcessName, sawEpisodeSpan, sawTermInstant)
	}
	if phases["s"] != 1 || phases["f"] != 1 {
		t.Errorf("flow pair s=%d f=%d, want 1/1", phases["s"], phases["f"])
	}
}

// TestWriteChromeEmpty: an empty collector must still produce a valid
// document with a JSON array (never null), so viewers and the CI
// validator accept it.
func TestWriteChromeEmpty(t *testing.T) {
	var b strings.Builder
	if err := NewCollector().WriteChrome(&b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), `"traceEvents":[]`) {
		t.Errorf("empty export lacks an empty array: %s", b.String())
	}
}

// TestWriteChromeDroppedLink: links whose endpoint spans were evicted
// from the ring are skipped rather than exported dangling.
func TestWriteChromeDroppedLink(t *testing.T) {
	tr := testTrace()
	tr.Links = append(tr.Links, Link{From: 100, To: 3})
	c := NewCollector()
	c.Add([]EpisodeTrace{tr})
	var b strings.Builder
	if err := c.WriteChrome(&b); err != nil {
		t.Fatal(err)
	}
	if n := strings.Count(b.String(), `"ph":"s"`); n != 1 {
		t.Errorf("%d flow starts exported, want 1 (dangling link must be dropped)", n)
	}
}
