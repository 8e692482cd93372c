package trace

import (
	"flag"
	"fmt"
	"io"
	"os"
)

// CLI bundles the standard -trace* flag set shared by the commands
// (oaqbench, constsim, oaqtrace, satqosd): the export destination and
// the two sampling knobs. The zero value means tracing off; Config turns
// the parsed flags into a recorder configuration and Export writes the
// collected traces at exit.
type CLI struct {
	// Chrome is the -trace-chrome destination: Chrome trace-event JSON
	// for chrome://tracing / Perfetto ("-" for stdout).
	Chrome string
	// Sample is -trace-sample: head-sample every Nth episode (0 = head
	// sampling off; the anomaly policy still applies).
	Sample int
	// Anomaly is -trace-anomaly: the tail-sampling policy spec, a
	// comma-separated list of retries | undelivered | invariant |
	// latency><bound> | all.
	Anomaly string

	sampleSet, anomalySet bool
}

// Register installs the three -trace* flags on the flag set.
func (c *CLI) Register(fs *flag.FlagSet) {
	fs.StringVar(&c.Chrome, "trace-chrome", "",
		"write the Chrome trace-event JSON export to this path at exit (\"-\" for stdout; load in chrome://tracing or Perfetto; enables tracing)")
	fs.IntVar(&c.Sample, "trace-sample", 0,
		"head-sample every Nth episode into the trace (0 disables head sampling)")
	fs.StringVar(&c.Anomaly, "trace-anomaly", "",
		"flight-recorder policy: retain anomalous episodes (comma-separated retries|undelivered|invariant|latency>BOUND|all; default all when tracing is on and no sampling flags are given)")
}

// note records which sampling flags the user set explicitly; call after
// fs.Parse.
func (c *CLI) note(fs *flag.FlagSet) {
	fs.Visit(func(f *flag.Flag) {
		switch f.Name {
		case "trace-sample":
			c.sampleSet = true
		case "trace-anomaly":
			c.anomalySet = true
		}
	})
}

// Config builds the tracing configuration from the parsed flags: nil
// (tracing off) when no export destination was given. When tracing is
// on but neither sampling flag was set, the full anomaly policy is the
// default — a flight recorder that retains every abnormal episode and
// nothing else. The fs is consulted for which flags were explicitly
// set; pass the set given to Register.
func (c *CLI) Config(fs *flag.FlagSet) (*Config, error) {
	c.note(fs)
	if c.Chrome == "" {
		if c.sampleSet || c.anomalySet {
			return nil, fmt.Errorf("trace: -trace-sample/-trace-anomaly need an export destination (-trace-chrome)")
		}
		return nil, nil
	}
	if c.Sample < 0 {
		return nil, fmt.Errorf("trace: -trace-sample %d must be non-negative", c.Sample)
	}
	anomaly := c.Anomaly
	if !c.sampleSet && !c.anomalySet {
		anomaly = "all"
	}
	cfg := &Config{
		SampleEvery: c.Sample,
		Collector:   NewCollector(),
	}
	if anomaly != "" {
		p, err := ParsePolicy(anomaly)
		if err != nil {
			return nil, err
		}
		cfg.Anomaly = p
	}
	return cfg, nil
}

// Export writes the collector's traces to the -trace-chrome destination;
// stdout backs the "-" path. A nil cfg (tracing off) or an empty
// destination is a no-op.
func (c *CLI) Export(cfg *Config, stdout io.Writer) error {
	if cfg == nil || c.Chrome == "" {
		return nil
	}
	if c.Chrome == "-" {
		return cfg.Collector.WriteChrome(stdout)
	}
	f, err := os.Create(c.Chrome)
	if err == nil {
		err = cfg.Collector.WriteChrome(f)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}
	if err != nil {
		return fmt.Errorf("trace: export %s: %w", c.Chrome, err)
	}
	return nil
}
