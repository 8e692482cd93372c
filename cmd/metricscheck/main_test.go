package main

import (
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"satqos/internal/obs"
)

const sampleSnapshot = `{
  "metrics": [
    {
      "name": "des_events_fired_total",
      "type": "counter",
      "value": 10
    },
    {
      "name": "oaq_episodes_total",
      "type": "counter",
      "value": 4
    }
  ]
}
`

func TestCheckPasses(t *testing.T) {
	var b strings.Builder
	in := strings.NewReader("some table output\nmore rows {not json}\n" + sampleSnapshot)
	if err := run([]string{"des", "oaq"}, in, &b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "all 2 families present") {
		t.Errorf("unexpected output:\n%s", b.String())
	}
}

func TestCheckMissingFamily(t *testing.T) {
	var b strings.Builder
	err := run([]string{"des", "crosslink"}, strings.NewReader(sampleSnapshot), &b)
	if err == nil || !strings.Contains(err.Error(), "crosslink") {
		t.Errorf("missing family not reported: %v", err)
	}
}

func TestCheckNoJSON(t *testing.T) {
	var b strings.Builder
	if err := run([]string{"des"}, strings.NewReader("just text\n"), &b); err == nil {
		t.Error("input without a snapshot accepted")
	}
	if err := run([]string{"des"}, strings.NewReader(`{"metrics": []}`), &b); err == nil {
		t.Error("empty snapshot accepted")
	}
	if err := run(nil, strings.NewReader(sampleSnapshot), &b); err == nil {
		t.Error("zero families accepted")
	}
}

func TestCheckFromFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "snap.json")
	if err := os.WriteFile(path, []byte(sampleSnapshot), 0o644); err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	if err := run([]string{"-in", path, "oaq"}, strings.NewReader(""), &b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "oaq: 1 metrics") {
		t.Errorf("unexpected output:\n%s", b.String())
	}
}

// A snapshot produced after a NaN observation must still validate: the
// obs histogram guard routes non-finite observations to the overflow
// bucket instead of poisoning the sum (which used to make DumpJSON fail
// and this checker reject the output).
func TestCheckAfterNaNObservation(t *testing.T) {
	r := obs.NewRegistry()
	r.Counter("oaq_episodes_total", "c").Add(1)
	r.Histogram("oaq_alert_latency_minutes", "h", []float64{1, 5}).Observe(math.NaN())
	var dump strings.Builder
	if err := r.DumpJSON("-", &dump); err != nil {
		t.Fatalf("DumpJSON after NaN observation: %v", err)
	}
	var b strings.Builder
	if err := run([]string{"oaq"}, strings.NewReader(dump.String()), &b); err != nil {
		t.Fatalf("snapshot with NaN-guarded histogram rejected: %v", err)
	}
}

func TestDiffIdenticalAndDiffering(t *testing.T) {
	dir := t.TempDir()
	write := func(name, content string) string {
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	a := `{
  "metrics": [
    {"name": "oaq_episodes_total", "type": "counter", "value": 4},
    {"name": "parallel_task_busy_seconds", "type": "histogram", "sum": 1.23},
    {"name": "parallel_workers_max", "type": "gauge", "value": 8}
  ]
}
`
	// Same simulation metrics, different wall-clock values: diff passes.
	b := strings.ReplaceAll(strings.ReplaceAll(a, "1.23", "9.87"), `"value": 8`, `"value": 1`)
	pathB := write("b.json", b)
	var out strings.Builder
	if err := run([]string{"-in", write("a.json", a), "-diff", pathB}, strings.NewReader(""), &out); err != nil {
		t.Fatalf("wall-clock-only difference failed the diff: %v", err)
	}
	if !strings.Contains(out.String(), "diff ok") {
		t.Errorf("unexpected output:\n%s", out.String())
	}

	// A differing simulation metric fails and is named.
	c := strings.ReplaceAll(a, `"value": 4`, `"value": 5`)
	err := run([]string{"-in", write("c.json", c), "-diff", pathB}, strings.NewReader(""), &out)
	if err == nil || !strings.Contains(err.Error(), "oaq_episodes_total") {
		t.Errorf("differing metric not reported: %v", err)
	}

	// A metric present in only one snapshot fails too.
	d := strings.Replace(a, `    {"name": "oaq_episodes_total", "type": "counter", "value": 4},`+"\n", "", 1)
	err = run([]string{"-in", write("d.json", d), "-diff", pathB}, strings.NewReader(""), &out)
	if err == nil || !strings.Contains(err.Error(), "oaq_episodes_total") {
		t.Errorf("missing metric not reported: %v", err)
	}

	// Families can be checked in the same invocation.
	if err := run([]string{"-in", write("a2.json", a), "-diff", pathB, "oaq"}, strings.NewReader(""), &out); err != nil {
		t.Fatalf("diff + family check failed: %v", err)
	}

	// An empty -ignore pattern matches everything (regexp semantics), so
	// guard against misuse via a pattern that matches nothing instead.
	err = run([]string{"-in", write("a3.json", a), "-diff", pathB, "-ignore", `^$`}, strings.NewReader(""), &out)
	if err == nil || !strings.Contains(err.Error(), "parallel_task_busy_seconds") {
		t.Errorf("wall-clock difference not reported with ignore disabled: %v", err)
	}
}

func TestLastJSONObjectPicksLast(t *testing.T) {
	data := []byte("{\n  \"metrics\": []\n}\nnoise\n" + sampleSnapshot)
	obj, err := lastJSONObject(data)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(obj), "des_events_fired_total") {
		t.Errorf("did not pick the last object:\n%s", obj)
	}
}

func TestCheckChrome(t *testing.T) {
	dir := t.TempDir()
	write := func(name, content string) string {
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	valid := `{"traceEvents":[
  {"name":"process_name","ph":"M","pid":1,"args":{"name":"ep-0 [retries]"}},
  {"name":"episode","ph":"X","pid":1,"tid":0,"ts":0,"dur":510000000},
  {"name":"term:retries","ph":"i","pid":1,"tid":0,"ts":510000000,"s":"t"},
  {"name":"alert","ph":"s","pid":1,"tid":4,"ts":100,"id":1},
  {"name":"alert","ph":"f","pid":1,"tid":1,"ts":200,"id":1,"bp":"e"}
],"displayTimeUnit":"ms"}`
	var b strings.Builder
	if err := run([]string{"-chrome", write("ok.json", valid)}, strings.NewReader(""), &b); err != nil {
		t.Fatalf("valid export rejected: %v", err)
	}
	if !strings.Contains(b.String(), "chrome trace ok: 5 events (1 spans, 1 instants, 1 metadata, 1 flow pairs)") {
		t.Errorf("unexpected output:\n%s", b.String())
	}
	// The span tracer's link seqs are checked when present; the export
	// above, without them, passes as other exporters' files do.
	withArgs := `{"traceEvents":[
  {"name":"process_name","ph":"M","pid":1,"args":{"name":"ep-0 [retries]","dropped":0,"origin_min":580.2}},
  {"name":"alert","ph":"s","pid":1,"tid":4,"ts":100,"id":1,"args":{"from_seq":2,"to_seq":3}},
  {"name":"alert","ph":"f","pid":1,"tid":1,"ts":200,"id":1,"bp":"e","args":{"from_seq":2,"to_seq":3}}
]}`
	if err := run([]string{"-chrome", write("args.json", withArgs)}, strings.NewReader(""), &b); err != nil {
		t.Fatalf("export with origin and link seqs rejected: %v", err)
	}

	// A real exporter run must pass too (the CI gate in ci.sh).
	// Checked here end to end against the trace package so the two
	// sides of the contract cannot drift silently.
	bad := []struct {
		name, content, wantErr string
	}{
		{"empty.json", `{"traceEvents":[]}`, "no trace events"},
		{"notjson.json", `{"traceEvents":`, "does not parse"},
		{"noname.json", `{"traceEvents":[{"name":"","ph":"X","ts":0,"dur":1}]}`, "empty name"},
		{"badphase.json", `{"traceEvents":[{"name":"x","ph":"Q","ts":0}]}`, "unknown phase"},
		{"negts.json", `{"traceEvents":[{"name":"x","ph":"i","ts":-1}]}`, "bad timestamp"},
		{"nodur.json", `{"traceEvents":[{"name":"x","ph":"X","ts":0}]}`, "without dur"},
		{"negdur.json", `{"traceEvents":[{"name":"x","ph":"X","ts":0,"dur":-2}]}`, "bad duration"},
		{"noid.json", `{"traceEvents":[{"name":"x","ph":"s","ts":0}]}`, "without id"},
		{"unbalanced.json", `{"traceEvents":[{"name":"x","ph":"s","ts":0,"id":1}]}`, "unbalanced flow"},
		{"seqmismatch.json", `{"traceEvents":[{"name":"x","ph":"s","ts":0,"id":1,"args":{"from_seq":1,"to_seq":2}},` +
			`{"name":"x","ph":"f","ts":1,"id":1,"args":{"from_seq":1,"to_seq":5}}]}`, "its other event"},
	}
	for _, tc := range bad {
		err := run([]string{"-chrome", write(tc.name, tc.content)}, strings.NewReader(""), &b)
		if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
			t.Errorf("%s: error = %v, want containing %q", tc.name, err, tc.wantErr)
		}
	}
	if err := run([]string{"-chrome", filepath.Join(dir, "missing.json")}, strings.NewReader(""), &b); err == nil {
		t.Error("missing file accepted")
	}
}
