package experiment

import (
	"fmt"
	"hash/fnv"
	"strconv"
	"strings"
	"testing"

	"satqos/internal/obs"
	"satqos/internal/route"
)

// routedFingerprint is the pinned output of one policy's congested
// routed sweep: every sweep value, the FNV-64a digest of the
// deterministic route_/des_/oaq_ metric families, and a few headline
// counters so a mismatch says where the drift is.
type routedFingerprint struct {
	values   [][]float64 // series-major, as Sweep.Series
	digest   uint64
	injected float64 // route_packets_injected_total
	events   float64 // des_events_fired_total
}

// routedFingerprints were recorded with the routed fabric as it stood
// before its candidate table and ring queues replaced the per-hop
// candidate scan and the shifting egress slices; those rewrites are
// meant to be output-identical. Change these constants only together
// with a CHANGES.md note that says which change moved them and why.
var routedFingerprints = map[string]routedFingerprint{
	route.PolicyStatic:        {values: [][]float64{{1, 1, 0.8666666666666666}, {0.2, 0.15, 0.13333333333333333}, {0, 0, 0}, {0.09782287063035558, 0.07648975906793756, 0.059066886873099}}, digest: 0xdff705c68bf9db75, injected: 203787, events: 1.555847e+06},
	route.PolicyProbabilistic: {values: [][]float64{{1, 1, 0.9333333333333333}, {0.16666666666666666, 0.21666666666666667, 0.16666666666666666}, {0, 0, 0}, {0.08482738091833578, 0.07351137781318015, 0.0857651789560411}}, digest: 0x8a4ba63417197fb1, injected: 203738, events: 1.541061e+06},
	route.PolicyQLearning:     {values: [][]float64{{1, 1, 0.9166666666666666}, {0.26666666666666666, 0.18333333333333332, 0.18333333333333332}, {0, 0, 0}, {0.09594451100064892, 0.09926423155209098, 0.13287966370814253}}, digest: 0xfa82689c1f87ebe4, injected: 203459, events: 1.526718e+06},
}

// TestRoutedSweepFingerprint pins RoutedLoadSweep bit for bit under
// every forwarding policy at a congested operating point (3 pkt/min
// links, loads 0/60/180), where queues fill, wrap and drop. It checks
// the sweep values and the simulation counters, so any change to hop
// choice, queue order or RNG consumption in the fabric shows up here.
func TestRoutedSweepFingerprint(t *testing.T) {
	prevWorkers := Workers
	Workers = 1 // one cell at a time: histogram sums fold in a fixed order
	t.Cleanup(func() { Workers, Metrics = prevWorkers, nil })

	for _, policy := range route.PolicyNames() {
		Metrics = obs.NewRegistry()
		rc := route.Default(policy, 10)
		rc.ISLRatePerMin = 3
		sweep, err := RoutedLoadSweep([]float64{0, 60, 180}, rc, nil, 10, 2, 60, 4242)
		if err != nil {
			t.Fatal(err)
		}
		got := routedFingerprint{}
		for _, s := range sweep.Series {
			got.values = append(got.values, s.Values)
		}
		snap := Metrics.Snapshot()
		got.digest = deterministicDigest(snap)
		got.injected = metricValue(snap, "route_packets_injected_total")
		got.events = metricValue(snap, "des_events_fired_total")

		want, ok := routedFingerprints[policy]
		if !ok || fmt.Sprint(got.values) != fmt.Sprint(want.values) ||
			got.digest != want.digest || got.injected != want.injected || got.events != want.events {
			t.Errorf("%s: routed sweep fingerprint drifted\n got: %s\nwant: %s",
				policy, got.literal(), want.literal())
		}
	}
}

// literal renders a fingerprint as the Go literal that pins it.
func (f routedFingerprint) literal() string {
	var b strings.Builder
	b.WriteString("{values: [][]float64{")
	for i, vs := range f.values {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString("{")
		for j, v := range vs {
			if j > 0 {
				b.WriteString(", ")
			}
			b.WriteString(strconv.FormatFloat(v, 'g', -1, 64))
		}
		b.WriteString("}")
	}
	fmt.Fprintf(&b, "}, digest: %#x, injected: %g, events: %g}", f.digest, f.injected, f.events)
	return b.String()
}

// deterministicDigest hashes every route_, des_ and oaq_ metric of the
// snapshot except the wall-clock *_seconds histograms: values, counts,
// exact sums and bucket counts.
func deterministicDigest(snap obs.Snapshot) uint64 {
	h := fnv.New64a()
	for _, m := range snap.Metrics {
		if !(strings.HasPrefix(m.Name, "route_") || strings.HasPrefix(m.Name, "des_") ||
			strings.HasPrefix(m.Name, "oaq_")) || strings.HasSuffix(m.Name, "_seconds") {
			continue
		}
		fmt.Fprintf(h, "%s %s", m.Name, m.Type)
		if m.Value != nil {
			fmt.Fprintf(h, " v=%x", *m.Value)
		}
		if m.Count != nil {
			fmt.Fprintf(h, " n=%d", *m.Count)
		}
		if m.Sum != nil {
			fmt.Fprintf(h, " s=%x", *m.Sum)
		}
		for _, bk := range m.Buckets {
			fmt.Fprintf(h, " %s:%d", bk.LE, bk.Count)
		}
		h.Write([]byte{'\n'})
	}
	return h.Sum64()
}

func metricValue(snap obs.Snapshot, name string) float64 {
	if m := snap.Get(name); m != nil && m.Value != nil {
		return *m.Value
	}
	return -1
}
