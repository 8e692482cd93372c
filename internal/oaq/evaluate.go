package oaq

import (
	"context"
	"fmt"

	"satqos/internal/obs"
	"satqos/internal/obs/trace"
	"satqos/internal/parallel"
	"satqos/internal/qos"
	"satqos/internal/stats"
)

// Evaluation aggregates Monte-Carlo episodes of the protocol into the
// empirical counterpart of the paper's QoS measures.
type Evaluation struct {
	// Episodes is the number of simulated signal episodes.
	Episodes int
	// PMF is the empirical P(Y = y).
	PMF qos.PMF
	// DeliveredFraction is the fraction of episodes in which an alert
	// was sent by the deadline (excludes escaped targets, which have
	// nothing to deliver).
	DeliveredFraction float64
	// DetectedFraction is the fraction of episodes in which any
	// footprint saw the signal.
	DetectedFraction float64
	// MeanChainLength is the average number of passes fused into the
	// delivered results (over delivered episodes).
	MeanChainLength float64
	// MeanMessages is the average number of crosslink messages per
	// episode.
	MeanMessages float64
	// MeanDeliveryLatency is the average alert send time relative to t0
	// over delivered episodes.
	MeanDeliveryLatency float64
	// Terminations histograms the termination causes.
	Terminations map[Termination]int

	alertLatency *obs.LocalHistogram
}

// AlertLatencyQuantile returns the q-quantile of the alert send latency
// over delivered episodes, interpolated within obs.MinuteBuckets by
// obs.LocalHistogram.Quantile. ok is false when no episode delivered.
func (ev *Evaluation) AlertLatencyQuantile(q float64) (v float64, ok bool) {
	return ev.alertLatency.Quantile(q)
}

// tally is the mergeable per-shard accumulator of episode outcomes. All
// integer fields merge exactly in any order. latency holds the delivered
// episodes (its count) and their latencies; its float sum is folded in
// shard-index order, so the result is independent of the worker count.
type tally struct {
	levels       [qos.NumLevels]int
	detected     int
	chainSum     int
	msgSum       int
	terminations [numTerminations]int
	latency      obs.LocalHistogram
}

// newTally returns an empty tally; its histogram is held by value.
func newTally() tally {
	return tally{latency: *obs.NewLocalHistogram(obs.MinuteBuckets)}
}

// add tallies one episode outcome; ord is the episode's global ordinal,
// kept as the latency exemplar when the episode's alert is the slowest.
func (t *tally) add(res *EpisodeResult, ord uint64) {
	t.levels[res.Level]++
	if res.Detected {
		t.detected++
	}
	if res.Delivered {
		t.chainSum += res.ChainLength
		t.latency.ObserveExemplar(res.DeliveryLatency, ord)
	}
	t.msgSum += res.MessagesSent
	t.terminations[res.Termination]++
}

func (t *tally) merge(o *tally) {
	for i := range t.levels {
		t.levels[i] += o.levels[i]
	}
	t.detected += o.detected
	t.chainSum += o.chainSum
	t.msgSum += o.msgSum
	for i := range t.terminations {
		t.terminations[i] += o.terminations[i]
	}
	t.latency.Merge(&o.latency)
}

// evaluation converts the tally into the public aggregate.
func (t *tally) evaluation(episodes int) *Evaluation {
	ev := &Evaluation{
		Episodes:     episodes,
		Terminations: make(map[Termination]int),
		alertLatency: &t.latency,
	}
	for l, n := range t.levels {
		ev.PMF[l] = float64(n) / float64(episodes)
	}
	for term, n := range t.terminations {
		if n > 0 {
			ev.Terminations[Termination(term)] = n
		}
	}
	delivered := t.latency.Count()
	ev.DeliveredFraction = float64(delivered) / float64(episodes)
	ev.DetectedFraction = float64(t.detected) / float64(episodes)
	ev.MeanMessages = float64(t.msgSum) / float64(episodes)
	if delivered > 0 {
		ev.MeanChainLength = float64(t.chainSum) / float64(delivered)
		ev.MeanDeliveryLatency = t.latency.Sum() / float64(delivered)
	}
	return ev
}

// EvaluateParallel runs the protocol on the sharded Monte-Carlo engine:
// the episode budget is split into fixed-size shards
// (parallel.DefaultShardSize) independent of the worker count, shard i
// draws all of its randomness from the substream stats.NewRNG(seed, i),
// and the per-shard tallies merge in shard order. The result is
// bit-identical for any workers value; workers <= 0 selects
// parallel.DefaultWorkers() and workers == 1 runs fully sequentially on
// the calling goroutine.
func EvaluateParallel(p Params, episodes int, seed uint64, workers int) (*Evaluation, error) {
	return EvaluateParallelCtx(context.Background(), p, episodes, seed, workers)
}

// cancelCheckStride is how many episodes a shard runs between context
// polls in EvaluateParallelCtx. At ~1 µs per ideal-channel episode
// (BenchmarkProtocolEpisode, 2-vCPU Xeon) a stride of 256 bounds the
// cancellation latency of one shard to ~0.25 ms while keeping the poll
// (one atomic load) far off the per-episode cost. A routed episode
// costs ~0.6–0.9 ms, which stretches that bound to ~0.2 s.
const cancelCheckStride = 256

// EvaluateParallelCtx is EvaluateParallel with cooperative
// cancellation, the form long-running callers (the satqosd evaluation
// service) thread per-request deadlines through. Cancellation is
// checked between shards and every cancelCheckStride episodes within a
// shard; a canceled evaluation returns ctx.Err() and no partial
// Evaluation, and publishes nothing into Params.Metrics — so every
// successful return is bit-identical to the same call with a background
// context at any worker count.
func EvaluateParallelCtx(ctx context.Context, p Params, episodes int, seed uint64, workers int) (*Evaluation, error) {
	if episodes <= 0 {
		return nil, fmt.Errorf("oaq: episode count %d must be positive", episodes)
	}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	out, err := parallel.MonteCarloCtx(ctx, workers, episodes, 0,
		func(sp parallel.Shard) (*shard, error) {
			// The global episode ordinal (sp.Start + i) keys head sampling
			// and exemplars; it depends only on the budget partition, never
			// on the worker count.
			s, err := openShard(p, stats.NewRNG(seed, uint64(sp.Index)), uint64(sp.Start))
			if err != nil {
				return nil, err
			}
			for i := 0; i < sp.Count; i++ {
				if i%cancelCheckStride == 0 && ctx.Err() != nil {
					s.close()
					return nil, ctx.Err()
				}
				s.run()
			}
			s.close()
			return s, nil
		},
		func(acc, part *shard) *shard {
			if acc == nil {
				return part
			}
			acc.merge(part)
			return acc
		})
	if err != nil {
		return nil, err
	}
	out.publish(p.Metrics)
	return out.t.evaluation(episodes), nil
}

// shard is the one way episodes run: a runner drawn from runnerPool and
// bound to Params, the tally of its episodes and, when the Params ask
// for them, a metrics accumulator and a span recorder. EvaluateParallelCtx
// and EvaluatePairedParallel open one per Monte-Carlo shard, RunEpisode
// one per call and NewRunner one per Runner. A shard is never shared
// between goroutines.
type shard struct {
	r   *episodeRunner // nil once closed
	t   tally
	m   *shardMetrics   // nil when Params.Metrics is nil
	rec *trace.Recorder // nil when Params.Tracing is nil
}

// openShard draws a parked runner (or builds one) bound to p and rng,
// whose episodes take the global ordinals ord, ord+1, …: the ordinal
// keys trace sampling and exemplars. Whatever the pool held, the runner
// starts as a fresh one would, with an empty event freelist, since the
// freelist hit/miss counters are published.
func openShard(p Params, rng *stats.RNG, ord uint64) (*shard, error) {
	r, ok := runnerPool.Get().(*episodeRunner)
	if !ok {
		var err error
		if r, err = newEpisodeRunner(p, rng); err != nil {
			return nil, err
		}
	} else if err := r.rebind(p, rng); err != nil {
		// The next open rebinds it in full; park it again.
		runnerPool.Put(r)
		return nil, err
	}
	r.ep.sim.ClearEventFreelist()
	r.ep.ord = ord
	s := &shard{r: r, t: newTally()}
	if p.Metrics != nil {
		s.m = newShardMetrics()
	}
	if p.Tracing != nil {
		// Each shard owns its recorder (a recorder is single-goroutine,
		// like the runner); retained traces merge in the shared
		// Collector, which sorts by episode ordinal, so the retained set
		// is identical at any worker count.
		s.rec = trace.NewRecorder(p.Tracing)
	}
	// Attached even when nil, which detaches whatever the runner's
	// previous shard left.
	r.setMetrics(s.m)
	r.setTracer(s.rec)
	return s, nil
}

// run simulates the shard's next episode and tallies its outcome.
func (s *shard) run() EpisodeResult {
	ord := s.r.ep.ord
	res := s.r.run()
	s.t.add(&res, ord)
	return res
}

// close flushes the retained traces to the Collector and parks the
// runner. The tally and metrics stay readable for merge and publish.
func (s *shard) close() {
	s.rec.Flush()
	runnerPool.Put(s.r)
	s.r = nil
}

// merge folds another shard's tally and metrics into s. The engines
// call it in shard-index order.
func (s *shard) merge(o *shard) {
	s.t.merge(&o.t)
	s.m.merge(o.m)
}
