package trace

import (
	"fmt"
	"io"
	"math"
	"strings"
)

// WriteTree renders the trace as an indented span tree, one span per
// line, times in minutes relative to origin (callers pass the episode's
// t0, so the detection reads as 0). Children are indented under their
// parent, so causality — which dispatch ran which computation, which
// message carried which alert — reads directly from the layout. Spans
// whose parent fell off the ring print as roots; open spans end in "…";
// causal links follow the tree.
func (t EpisodeTrace) WriteTree(w io.Writer, origin float64) {
	fmt.Fprintf(w, "span tree (%s, %d spans", t.ID(), len(t.Spans))
	if t.Dropped > 0 {
		fmt.Fprintf(w, ", %d dropped", t.Dropped)
	}
	fmt.Fprintf(w, ", reasons=%v):\n", t.Reasons)
	children := make(map[int32][]int32, len(t.Spans))
	byID := make(map[int32]Span, len(t.Spans))
	var roots []int32
	for _, sp := range t.Spans {
		byID[sp.Seq] = sp
		if _, ok := byID[sp.Parent]; ok {
			children[sp.Parent] = append(children[sp.Parent], sp.Seq)
		} else {
			// Root spans, and orphans whose parent fell off the ring.
			roots = append(roots, sp.Seq)
		}
	}
	var emit func(id int32, depth int)
	emit = func(id int32, depth int) {
		sp := byID[id]
		end := "      …"
		if !math.IsNaN(sp.End) {
			end = fmt.Sprintf("%7.3f", sp.End-origin)
		}
		who := fmt.Sprintf("S%d", sp.Sat)
		switch sp.Sat {
		case SatGround:
			who = "ground"
		case SatKernel:
			who = "kernel"
		}
		fmt.Fprintf(w, "  [%7.3f %s] %s%-12s %-22s %s", sp.Start-origin, end,
			strings.Repeat("  ", depth), sp.Kind, sp.Label, who)
		if sp.Arg != 0 {
			fmt.Fprintf(w, " arg=%g", sp.Arg)
		}
		fmt.Fprintln(w)
		for _, c := range children[id] {
			emit(c, depth+1)
		}
	}
	for _, id := range roots {
		emit(id, 0)
	}
	for _, l := range t.Links {
		fmt.Fprintf(w, "  link %d -> %d\n", l.From, l.To)
	}
}
