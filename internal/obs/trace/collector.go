package trace

import (
	"sort"
	"sync"
)

// Collector accumulates retained traces from many recorders (one per
// shard worker) and exports them deterministically: Traces sorts by
// (Scope, Ordinal), normalizing whatever order concurrent flushes
// arrived in.
type Collector struct {
	mu     sync.Mutex
	traces []EpisodeTrace
	sorted bool
}

// NewCollector returns an empty collector.
func NewCollector() *Collector { return &Collector{} }

// Add appends retained traces; safe for concurrent use.
func (c *Collector) Add(traces []EpisodeTrace) {
	if c == nil || len(traces) == 0 {
		return
	}
	c.mu.Lock()
	c.traces = append(c.traces, traces...)
	c.sorted = false
	c.mu.Unlock()
}

// Len reports the number of retained traces.
func (c *Collector) Len() int {
	if c == nil {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.traces)
}

// Traces returns the retained traces sorted by (Scope, Ordinal). The
// returned slice is owned by the collector; don't mutate it.
func (c *Collector) Traces() []EpisodeTrace {
	if c == nil {
		return nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if !c.sorted {
		sort.SliceStable(c.traces, func(i, j int) bool {
			if c.traces[i].Scope != c.traces[j].Scope {
				return c.traces[i].Scope < c.traces[j].Scope
			}
			return c.traces[i].Ordinal < c.traces[j].Ordinal
		})
		c.sorted = true
	}
	return c.traces
}
