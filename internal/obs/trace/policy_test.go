package trace

import "testing"

func TestParsePolicy(t *testing.T) {
	cases := []struct {
		spec string
		want Policy
		ok   bool
	}{
		{"", Policy{}, true},
		{"retries", Policy{RetriesExhausted: true}, true},
		{"undelivered", Policy{Undelivered: true}, true},
		{"invariant", Policy{Invariant: true}, true},
		{"latency>2.5", Policy{LatencyAboveMin: 2.5}, true},
		{"all", Policy{RetriesExhausted: true, Undelivered: true, Invariant: true}, true},
		{"retries, latency>1", Policy{RetriesExhausted: true, LatencyAboveMin: 1}, true},
		{"all,latency>0.5", Policy{RetriesExhausted: true, Undelivered: true, Invariant: true, LatencyAboveMin: 0.5}, true},
		{"retries,,undelivered", Policy{RetriesExhausted: true, Undelivered: true}, true},
		{"latency>0", Policy{}, false},
		{"latency>-3", Policy{}, false},
		{"latency>abc", Policy{}, false},
		{"bogus", Policy{}, false},
		{"retries,bogus", Policy{}, false},
	}
	for _, tc := range cases {
		got, err := ParsePolicy(tc.spec)
		if (err == nil) != tc.ok {
			t.Errorf("ParsePolicy(%q) error = %v, want ok=%v", tc.spec, err, tc.ok)
			continue
		}
		if tc.ok && got != tc.want {
			t.Errorf("ParsePolicy(%q) = %+v, want %+v", tc.spec, got, tc.want)
		}
	}
}

func TestPolicyEnabled(t *testing.T) {
	if (Policy{}).Enabled() {
		t.Error("zero policy reports enabled")
	}
	for _, p := range []Policy{
		{RetriesExhausted: true}, {Undelivered: true},
		{Invariant: true}, {LatencyAboveMin: 0.1},
	} {
		if !p.Enabled() {
			t.Errorf("%+v reports disabled", p)
		}
	}
}

func TestReasonsString(t *testing.T) {
	cases := []struct {
		r    Reasons
		want string
	}{
		{0, "none"},
		{ReasonHead, "head"},
		{ReasonRetries | ReasonLatency, "retries|latency"},
		{ReasonHead | ReasonUndelivered | ReasonInvariant, "head|undelivered|invariant"},
	}
	for _, tc := range cases {
		if got := tc.r.String(); got != tc.want {
			t.Errorf("Reasons(%d).String() = %q, want %q", tc.r, got, tc.want)
		}
	}
	if ReasonHead.Anomalous() {
		t.Error("head-only retention flagged anomalous")
	}
	if !(ReasonHead | ReasonRetries).Anomalous() {
		t.Error("retries retention not flagged anomalous")
	}
}

func TestKindString(t *testing.T) {
	for k := KindEpisode; k <= KindTermination; k++ {
		if s := k.String(); s == "" || s[0] == 'K' {
			t.Errorf("Kind(%d) has no name: %q", k, s)
		}
	}
	if s := Kind(200).String(); s != "Kind(200)" {
		t.Errorf("unknown kind renders %q", s)
	}
}

// Enabled reports whether any anomaly condition is configured.
func (p Policy) Enabled() bool {
	return p.RetriesExhausted || p.Undelivered || p.LatencyAboveMin > 0 || p.Invariant
}
