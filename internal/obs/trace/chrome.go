package trace

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
)

// chromeEvent is one entry of the Chrome trace-event JSON format
// (chrome://tracing, ui.perfetto.dev). Field order is fixed by the
// struct, so the export is deterministic for a deterministic input.
type chromeEvent struct {
	Name string   `json:"name"`
	Ph   string   `json:"ph"`
	Pid  int      `json:"pid"`
	Tid  int      `json:"tid"`
	Ts   float64  `json:"ts"`
	Dur  *float64 `json:"dur,omitempty"`
	Cat  string   `json:"cat,omitempty"`
	ID   int      `json:"id,omitempty"`
	S    string   `json:"s,omitempty"`
	BP   string   `json:"bp,omitempty"`
	Args any      `json:"args,omitempty"`
}

type chromeFile struct {
	TraceEvents     []chromeEvent `json:"traceEvents"`
	DisplayTimeUnit string        `json:"displayTimeUnit"`
}

// minuteUS converts simulation minutes to trace microseconds.
const minuteUS = 60e6

// chromeTID maps an actor to a Chrome thread id: kernel (-2) → 0,
// ground (-1) → 1, satellite i → i+2.
func chromeTID(sat int32) int { return int(sat) + 2 }

// chromeThreadName names an actor's thread track.
func chromeThreadName(sat int32) string {
	switch sat {
	case SatKernel:
		return "kernel"
	case SatGround:
		return "ground"
	default:
		return fmt.Sprintf("sat %d", sat)
	}
}

// WriteChrome writes the retained traces as Chrome trace-event JSON.
// Each episode becomes one process (pid = position in the sorted trace
// list + 1) with one thread per actor, and links become flow events.
// Times are rebased to the episode's earliest span; that origin, in
// absolute simulation minutes, rides on the process_name event as
// origin_min beside the episode's dropped-span count. Each span's kind,
// seq, parent seq and arg ride on its own event, and each link's flow
// events carry the seqs of its source and destination spans (from_seq,
// to_seq). The output is a pure function of the retained traces:
// byte-identical at any worker count.
func (c *Collector) WriteChrome(w io.Writer) error {
	traces := c.Traces()
	evs := []chromeEvent{}
	flowID := 0
	for pi := range traces {
		t := &traces[pi]
		pid := pi + 1
		// Rebase each episode to its earliest span so all processes start
		// near ts 0 regardless of where the episode sat in simulated time.
		base := math.Inf(1)
		for i := range t.Spans {
			if t.Spans[i].Start < base {
				base = t.Spans[i].Start
			}
		}
		if math.IsInf(base, 1) {
			base = 0
		}
		evs = append(evs, chromeEvent{
			Name: "process_name", Ph: "M", Pid: pid,
			Args: map[string]any{"name": fmt.Sprintf("%s [%s]", t.ID(), t.Reasons), "dropped": t.Dropped, "origin_min": base},
		})
		seenTID := map[int]bool{}
		for i := range t.Spans {
			sp := &t.Spans[i]
			tid := chromeTID(sp.Sat)
			if !seenTID[tid] {
				seenTID[tid] = true
				evs = append(evs, chromeEvent{
					Name: "thread_name", Ph: "M", Pid: pid, Tid: tid,
					Args: map[string]string{"name": chromeThreadName(sp.Sat)},
				})
			}
			ts := (sp.Start - base) * minuteUS
			args := map[string]any{"kind": sp.Kind.String(), "seq": sp.Seq, "parent": sp.Parent, "arg": sp.Arg}
			if sp.End > sp.Start {
				dur := (sp.End - sp.Start) * minuteUS
				evs = append(evs, chromeEvent{
					Name: sp.Label, Ph: "X", Pid: pid, Tid: tid, Ts: ts,
					Dur: &dur, Cat: sp.Kind.String(), Args: args,
				})
			} else {
				evs = append(evs, chromeEvent{
					Name: sp.Label, Ph: "i", Pid: pid, Tid: tid, Ts: ts,
					S: "t", Cat: sp.Kind.String(), Args: args,
				})
			}
		}
		spanAt := func(seq int32) *Span {
			for i := range t.Spans {
				if t.Spans[i].Seq == seq {
					return &t.Spans[i]
				}
			}
			return nil
		}
		for _, l := range t.Links {
			from, to := spanAt(l.From), spanAt(l.To)
			if from == nil || to == nil {
				continue
			}
			flowID++
			args := map[string]int32{"from_seq": l.From, "to_seq": l.To}
			evs = append(evs,
				chromeEvent{
					Name: from.Label, Ph: "s", Pid: pid, Tid: chromeTID(from.Sat),
					Ts: (from.Start - base) * minuteUS, Cat: "link", ID: flowID, Args: args,
				},
				chromeEvent{
					Name: from.Label, Ph: "f", Pid: pid, Tid: chromeTID(to.Sat),
					Ts: (from.End - base) * minuteUS, Cat: "link", ID: flowID, BP: "e", Args: args,
				},
			)
		}
	}
	enc := json.NewEncoder(w)
	return enc.Encode(chromeFile{TraceEvents: evs, DisplayTimeUnit: "ms"})
}
