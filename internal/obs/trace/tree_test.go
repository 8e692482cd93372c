package trace

import (
	"math"
	"strings"
	"testing"
)

func TestWriteTree(t *testing.T) {
	cases := []struct {
		name   string
		tr     EpisodeTrace
		origin float64
		want   string
	}{
		{
			name: "lanes, nesting, args, links, rebased times",
			tr: EpisodeTrace{
				Ordinal: 7,
				Reasons: ReasonHead,
				Spans: []Span{
					{Seq: 0, Parent: -1, Kind: KindEpisode, Sat: SatKernel, Label: "episode", Start: 10, End: 61, Arg: 4},
					{Seq: 1, Parent: 0, Kind: KindDispatch, Sat: SatKernel, Label: "detection", Start: 10, End: 10},
					{Seq: 2, Parent: 1, Kind: KindCompute, Sat: 64, Label: "initial-computation", Start: 10, End: 10.063, Arg: 1},
					{Seq: 3, Parent: 0, Kind: KindEvent, Sat: SatGround, Label: "alert-accepted", Start: 15.007, End: 15.007, Arg: 5},
				},
				Links: []Link{{From: 2, To: 3}},
			},
			origin: 10,
			want: "span tree (ep-7, 4 spans, reasons=head):\n" +
				"  [  0.000  51.000] episode      episode                kernel arg=4\n" +
				"  [  0.000   0.000]   dispatch     detection              kernel\n" +
				"  [  0.000   0.063]     compute      initial-computation    S64 arg=1\n" +
				"  [  5.007   5.007]   event        alert-accepted         ground arg=5\n" +
				"  link 2 -> 3\n",
		},
		{
			name: "open span",
			tr: EpisodeTrace{
				Reasons: ReasonUndelivered,
				Spans: []Span{
					{Seq: 0, Parent: -1, Kind: KindAwait, Sat: 3, Label: "await-ack", Start: 1, End: math.NaN(), Arg: -1},
				},
			},
			want: "span tree (ep-0, 1 spans, reasons=undelivered):\n" +
				"  [  1.000       …] await        await-ack              S3 arg=-1\n",
		},
		{
			name: "orphan of an evicted parent prints as a root",
			tr: EpisodeTrace{
				Scope:   "det",
				Ordinal: 3,
				Reasons: ReasonHead | ReasonRetries,
				Dropped: 5,
				Spans: []Span{
					{Seq: 5, Parent: 2, Kind: KindMessage, Sat: 3, Label: "crosslink:alert", Start: 2, End: 2.5},
					{Seq: 6, Parent: 5, Kind: KindDispatch, Sat: SatKernel, Label: "crosslink:alert", Start: 2.5, End: 2.5},
					{Seq: 7, Parent: 4, Kind: KindTermination, Sat: SatKernel, Label: "term:timeout", Start: 3, End: 3, Arg: 2},
				},
				Links: []Link{{From: 5, To: 6}},
			},
			origin: 0.5,
			want: "span tree (det/ep-3, 3 spans, 5 dropped, reasons=head|retries):\n" +
				"  [  1.500   2.000] message      crosslink:alert        S3\n" +
				"  [  2.000   2.000]   dispatch     crosslink:alert        kernel\n" +
				"  [  2.500   2.500] termination  term:timeout           kernel arg=2\n" +
				"  link 5 -> 6\n",
		},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			var b strings.Builder
			c.tr.WriteTree(&b, c.origin)
			if b.String() != c.want {
				t.Errorf("got:\n%s\nwant:\n%s", b.String(), c.want)
			}
		})
	}
}
