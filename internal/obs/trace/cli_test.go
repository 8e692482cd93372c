package trace

import (
	"flag"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// parseCLI registers the flag bundle on a fresh set, parses args, and
// returns the CLI with its flag set for Config.
func parseCLI(t *testing.T, args ...string) (*CLI, *flag.FlagSet) {
	t.Helper()
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	var c CLI
	c.Register(fs)
	if err := fs.Parse(args); err != nil {
		t.Fatalf("parse %v: %v", args, err)
	}
	return &c, fs
}

func TestCLIDisabled(t *testing.T) {
	c, fs := parseCLI(t)
	cfg, err := c.Config(fs)
	if err != nil || cfg != nil {
		t.Errorf("disabled Config = %v, %v; want nil, nil", cfg, err)
	}
	if err := c.Export(cfg, io.Discard); err != nil {
		t.Errorf("nil-config Export: %v", err)
	}
	// A caller that traces without a destination (oaqtrace prints the
	// tree itself) exports nothing.
	var out strings.Builder
	if err := c.Export(&Config{Collector: NewCollector()}, &out); err != nil || out.Len() != 0 {
		t.Errorf("Export without a destination = %v, wrote %q", err, out.String())
	}
}

func TestCLISamplingFlagsNeedDestination(t *testing.T) {
	for _, args := range [][]string{
		{"-trace-sample", "10"},
		{"-trace-anomaly", "retries"},
	} {
		c, fs := parseCLI(t, args...)
		_, err := c.Config(fs)
		if err == nil {
			t.Errorf("%v without a destination accepted", args)
		} else if !strings.HasSuffix(err.Error(), "(-trace-chrome)") {
			t.Errorf("%v: error %q does not name -trace-chrome as the destination", args, err)
		}
	}
}

// TestCLIDefaultAnomalyPolicy: enabling tracing without sampling flags
// gets the full flight-recorder policy.
func TestCLIDefaultAnomalyPolicy(t *testing.T) {
	c, fs := parseCLI(t, "-trace-chrome", "-")
	cfg, err := c.Config(fs)
	if err != nil {
		t.Fatal(err)
	}
	want := Policy{RetriesExhausted: true, Undelivered: true, Invariant: true}
	if cfg.Anomaly != want {
		t.Errorf("default anomaly policy = %+v, want %+v", cfg.Anomaly, want)
	}
	if cfg.SampleEvery != 0 {
		t.Errorf("default SampleEvery = %d, want 0", cfg.SampleEvery)
	}
	if cfg.Collector == nil || cfg.Validate() != nil {
		t.Error("Config did not build a valid configuration")
	}
}

// TestCLIExplicitSampling: giving either sampling flag switches off the
// implicit all-anomalies default.
func TestCLIExplicitSampling(t *testing.T) {
	c, fs := parseCLI(t, "-trace-chrome", "-", "-trace-sample", "100")
	cfg, err := c.Config(fs)
	if err != nil {
		t.Fatal(err)
	}
	if cfg.SampleEvery != 100 {
		t.Errorf("SampleEvery = %d, want 100", cfg.SampleEvery)
	}
	if cfg.Anomaly.Enabled() {
		t.Errorf("explicit -trace-sample still got anomaly policy %+v", cfg.Anomaly)
	}

	c2, fs2 := parseCLI(t, "-trace-chrome", "-", "-trace-anomaly", "latency>3")
	cfg2, err := c2.Config(fs2)
	if err != nil {
		t.Fatal(err)
	}
	if cfg2.Anomaly.LatencyAboveMin != 3 || cfg2.Anomaly.RetriesExhausted {
		t.Errorf("explicit policy not honored: %+v", cfg2.Anomaly)
	}
}

func TestCLIConfigErrors(t *testing.T) {
	c, fs := parseCLI(t, "-trace-chrome", "-", "-trace-sample", "-1")
	if _, err := c.Config(fs); err == nil {
		t.Error("negative sample interval accepted")
	}
	c2, fs2 := parseCLI(t, "-trace-chrome", "-", "-trace-anomaly", "bogus")
	if _, err := c2.Config(fs2); err == nil {
		t.Error("bad anomaly spec accepted")
	}
}

// TestCLIExportWritesBothDestinations: a path gets the Chrome export as
// a file, and "-" routes it to the given writer.
func TestCLIExportWritesBothDestinations(t *testing.T) {
	chrome := filepath.Join(t.TempDir(), "trace.json")
	c, fs := parseCLI(t, "-trace-chrome", chrome)
	cfg, err := c.Config(fs)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Collector.Add([]EpisodeTrace{testTrace()})
	var stdout strings.Builder
	if err := c.Export(cfg, &stdout); err != nil {
		t.Fatal(err)
	}
	chromeData, err := os.ReadFile(chrome)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(chromeData), `"traceEvents"`) {
		t.Errorf("Chrome file not a trace export:\n%.80s", chromeData)
	}
	if stdout.Len() != 0 {
		t.Errorf("file export leaked to stdout: %q", stdout.String())
	}

	c2, fs2 := parseCLI(t, "-trace-chrome", "-")
	cfg2, err := c2.Config(fs2)
	if err != nil {
		t.Fatal(err)
	}
	var out strings.Builder
	if err := c2.Export(cfg2, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(out.String(), `{"traceEvents":[]`) {
		t.Errorf("stdout export is not an empty Chrome document: %q", out.String())
	}
}

func TestCLIExportBadPath(t *testing.T) {
	c, fs := parseCLI(t, "-trace-chrome", filepath.Join(t.TempDir(), "no", "such", "dir", "x"))
	cfg, err := c.Config(fs)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Export(cfg, io.Discard); err == nil {
		t.Error("unwritable destination accepted")
	}
}
