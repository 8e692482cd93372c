// Command metricscheck validates a JSON metrics snapshot, as dumped by
// oaqbench/constsim/oaqtrace with -metrics. It reads from stdin (or a
// file given with -in), extracts the last top-level JSON object from
// the input — tolerating the table output that precedes a "-metrics -"
// dump — and verifies that every metric family named on the command
// line is present with at least one metric. It is the CI smoke-test
// companion of the -metrics flag:
//
//	oaqbench -exp fig9 -episodes 256 -metrics - | metricscheck des oaq crosslink
//
// With -diff other.json it additionally compares the snapshot against a
// second one metric-by-metric and fails listing every differing name.
// Metrics matching -ignore (default: the wall-clock families — *_seconds
// histograms and parallel_workers_max) are exempt, so the comparison is
// CI's determinism gate: two runs of the same workload at different
// worker counts must produce byte-identical simulation metrics.
//
// With -chrome file.json it instead validates a Chrome trace-event
// export (the CLIs' -trace-chrome flag): the file must parse, and every
// event must carry a name, a known phase, finite timestamps, and a
// non-negative duration where the phase requires one; both events of a
// flow must join the same from_seq/to_seq spans where they name them.
// It is the CI gate for the span-trace exporter.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"regexp"
	"strings"
)

// defaultIgnore exempts the wall-clock metric families from -diff:
// task-timing histograms and the observed worker-count gauge are real
// time measurements and legitimately differ between runs.
const defaultIgnore = `_seconds$|^parallel_workers_max$`

func main() {
	if err := run(os.Args[1:], os.Stdin, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "metricscheck:", err)
		os.Exit(1)
	}
}

// snapshot mirrors obs.Snapshot's wire format; re-declared here so the
// check exercises the published JSON contract rather than the package
// internals.
type snapshot struct {
	Metrics []struct {
		Name string `json:"name"`
		Type string `json:"type"`
	} `json:"metrics"`
}

func run(args []string, stdin io.Reader, w io.Writer) error {
	fs := flag.NewFlagSet("metricscheck", flag.ContinueOnError)
	in := fs.String("in", "", "read the snapshot from this file instead of stdin")
	diff := fs.String("diff", "", "compare against this second snapshot file and fail on any differing metric")
	ignore := fs.String("ignore", defaultIgnore, "regexp of metric names exempt from -diff (wall-clock families by default)")
	chrome := fs.String("chrome", "", "validate this Chrome trace-event JSON export instead of a metrics snapshot")
	if err := fs.Parse(args); err != nil {
		return err
	}
	families := fs.Args()
	if *chrome != "" {
		return checkChrome(*chrome, w)
	}
	if len(families) == 0 && *diff == "" {
		return fmt.Errorf("nothing to check (usage: metricscheck [-in file] [-diff file] [-chrome file] family...)")
	}

	r := stdin
	if *in != "" {
		f, err := os.Open(*in)
		if err != nil {
			return err
		}
		defer f.Close()
		r = f
	}
	data, err := io.ReadAll(r)
	if err != nil {
		return err
	}
	obj, err := lastJSONObject(data)
	if err != nil {
		return err
	}
	var snap snapshot
	if err := json.Unmarshal(obj, &snap); err != nil {
		return fmt.Errorf("snapshot does not parse: %w", err)
	}
	if len(snap.Metrics) == 0 {
		return fmt.Errorf("snapshot contains no metrics")
	}

	if *diff != "" {
		re, err := regexp.Compile(*ignore)
		if err != nil {
			return fmt.Errorf("bad -ignore pattern: %w", err)
		}
		other, err := os.ReadFile(*diff)
		if err != nil {
			return err
		}
		otherObj, err := lastJSONObject(other)
		if err != nil {
			return fmt.Errorf("%s: %w", *diff, err)
		}
		differing, err := diffSnapshots(obj, otherObj, re)
		if err != nil {
			return err
		}
		if len(differing) > 0 {
			return fmt.Errorf("snapshots differ in %d metrics: %s", len(differing), strings.Join(differing, ", "))
		}
		fmt.Fprintf(w, "diff ok: snapshots identical modulo /%s/\n", *ignore)
		if len(families) == 0 {
			return nil
		}
	}

	counts := make(map[string]int)
	for _, fam := range families {
		prefix := fam + "_"
		for _, m := range snap.Metrics {
			if strings.HasPrefix(m.Name, prefix) {
				counts[fam]++
			}
		}
	}
	var missing []string
	for _, fam := range families {
		if counts[fam] == 0 {
			missing = append(missing, fam)
		}
	}
	if len(missing) > 0 {
		return fmt.Errorf("snapshot has %d metrics but no %s families", len(snap.Metrics), strings.Join(missing, ", "))
	}
	for _, fam := range families {
		fmt.Fprintf(w, "%s: %d metrics\n", fam, counts[fam])
	}
	fmt.Fprintf(w, "ok: %d metrics, all %d families present\n", len(snap.Metrics), len(families))
	return nil
}

// checkChrome validates a Chrome trace-event export: the format the
// -trace-chrome flag writes and chrome://tracing / Perfetto load. The
// checks mirror what the viewers actually require — a nonempty name, a
// known phase, finite non-negative timestamps, a duration on complete
// events — so a malformed export fails CI instead of silently rendering
// as an empty timeline.
func checkChrome(path string, w io.Writer) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	var file struct {
		TraceEvents []struct {
			Name string   `json:"name"`
			Ph   string   `json:"ph"`
			Pid  int      `json:"pid"`
			Tid  int      `json:"tid"`
			Ts   float64  `json:"ts"`
			Dur  *float64 `json:"dur"`
			ID   *int     `json:"id"`
			Args struct {
				FromSeq *int32 `json:"from_seq"`
				ToSeq   *int32 `json:"to_seq"`
			} `json:"args"`
		} `json:"traceEvents"`
		DisplayTimeUnit string `json:"displayTimeUnit"`
	}
	if err := json.Unmarshal(data, &file); err != nil {
		return fmt.Errorf("%s: trace does not parse: %w", path, err)
	}
	if len(file.TraceEvents) == 0 {
		return fmt.Errorf("%s: no trace events", path)
	}
	phases := make(map[string]int)
	flowSeqs := make(map[int][2]int32) // flow id → (from_seq, to_seq)
	for i, ev := range file.TraceEvents {
		at := func(format string, args ...any) error {
			return fmt.Errorf("%s: event %d (%q): %s", path, i, ev.Name, fmt.Sprintf(format, args...))
		}
		if ev.Name == "" {
			return at("empty name")
		}
		switch ev.Ph {
		case "X", "i", "M", "s", "f":
		default:
			return at("unknown phase %q", ev.Ph)
		}
		if math.IsNaN(ev.Ts) || math.IsInf(ev.Ts, 0) || ev.Ts < 0 {
			return at("bad timestamp %g", ev.Ts)
		}
		if ev.Ph == "X" {
			if ev.Dur == nil {
				return at("complete event without dur")
			}
			if math.IsNaN(*ev.Dur) || math.IsInf(*ev.Dur, 0) || *ev.Dur < 0 {
				return at("bad duration %g", *ev.Dur)
			}
		}
		if (ev.Ph == "s" || ev.Ph == "f") && ev.ID == nil {
			return at("flow event without id")
		}
		if a := ev.Args; a.FromSeq != nil && a.ToSeq != nil && ev.ID != nil {
			seqs := [2]int32{*a.FromSeq, *a.ToSeq}
			if start, ok := flowSeqs[*ev.ID]; ok && start != seqs {
				return at("flow %d joins spans %v, its other event %v", *ev.ID, seqs, start)
			}
			flowSeqs[*ev.ID] = seqs
		}
		phases[ev.Ph]++
	}
	if phases["s"] != phases["f"] {
		return fmt.Errorf("%s: unbalanced flow events: %d starts, %d finishes", path, phases["s"], phases["f"])
	}
	fmt.Fprintf(w, "chrome trace ok: %d events (%d spans, %d instants, %d metadata, %d flow pairs)\n",
		len(file.TraceEvents), phases["X"], phases["i"], phases["M"], phases["s"])
	return nil
}

// diffSnapshots compares two snapshot objects metric-by-metric (keyed
// by name, values compared as compacted JSON) and returns the sorted
// names that differ — present in only one snapshot, or present in both
// with different contents — excluding names the ignore pattern matches.
func diffSnapshots(a, b json.RawMessage, ignore *regexp.Regexp) ([]string, error) {
	index := func(obj json.RawMessage) (map[string]string, []string, error) {
		var raw struct {
			Metrics []json.RawMessage `json:"metrics"`
		}
		if err := json.Unmarshal(obj, &raw); err != nil {
			return nil, nil, fmt.Errorf("snapshot does not parse: %w", err)
		}
		byName := make(map[string]string, len(raw.Metrics))
		var names []string
		for _, m := range raw.Metrics {
			var head struct {
				Name string `json:"name"`
			}
			if err := json.Unmarshal(m, &head); err != nil {
				return nil, nil, fmt.Errorf("metric entry does not parse: %w", err)
			}
			if ignore.MatchString(head.Name) {
				continue
			}
			var buf bytes.Buffer
			if err := json.Compact(&buf, m); err != nil {
				return nil, nil, err
			}
			byName[head.Name] = buf.String()
			names = append(names, head.Name)
		}
		return byName, names, nil
	}
	am, anames, err := index(a)
	if err != nil {
		return nil, err
	}
	bm, bnames, err := index(b)
	if err != nil {
		return nil, err
	}
	seen := make(map[string]bool)
	var differing []string
	for _, name := range append(anames, bnames...) {
		if seen[name] {
			continue
		}
		seen[name] = true
		av, aok := am[name]
		bv, bok := bm[name]
		if !aok || !bok || av != bv {
			differing = append(differing, name)
		}
	}
	return differing, nil
}

// lastJSONObject returns the last top-level JSON object in the input.
// Experiments may print tables before a "-metrics -" snapshot, so the
// object is located by its exposition convention — "{" alone at the
// start of a line (the indented-marshal form DumpJSON emits) — and the
// JSON decoder validates balance from there. A lone leading "{" (the
// whole input is the snapshot) also qualifies.
func lastJSONObject(data []byte) (json.RawMessage, error) {
	start := -1
	for i, c := range data {
		if c != '{' {
			continue
		}
		if i == 0 || data[i-1] == '\n' {
			start = i
		}
	}
	if start < 0 {
		return nil, fmt.Errorf("no JSON object found in input (%d bytes)", len(data))
	}
	var obj json.RawMessage
	if err := json.Unmarshal(trimToValue(data[start:]), &obj); err != nil {
		return nil, fmt.Errorf("trailing JSON object does not parse: %w", err)
	}
	return obj, nil
}

// trimToValue strips trailing bytes after the final "}" so stray
// output after the snapshot does not fail the strict Unmarshal.
func trimToValue(data []byte) []byte {
	for i := len(data) - 1; i >= 0; i-- {
		if data[i] == '}' {
			return data[:i+1]
		}
	}
	return data
}
