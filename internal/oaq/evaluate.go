package oaq

import (
	"context"
	"fmt"
	"math"
	"time"

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
}

// CCDF returns the empirical P(Y >= y).
func (e *Evaluation) CCDF(y qos.Level) float64 { return e.PMF.CCDF(y) }

// CI95 returns the 95% half-width for the empirical P(Y >= y).
func (e *Evaluation) CI95(y qos.Level) float64 {
	p := e.CCDF(y)
	if e.Episodes == 0 {
		return math.Inf(1)
	}
	return 1.96 * math.Sqrt(p*(1-p)/float64(e.Episodes))
}

// tally is the mergeable per-shard accumulator of episode outcomes. All
// integer fields merge exactly in any order; latencySum is a float sum,
// which the sharded engine always folds in shard-index order so the
// result is independent of the worker count.
type tally struct {
	levels       [qos.NumLevels]int
	delivered    int
	detected     int
	chainSum     int
	msgSum       int
	latencySum   float64
	terminations [numTerminations]int
}

func (t *tally) add(res *EpisodeResult) {
	t.levels[res.Level]++
	if res.Detected {
		t.detected++
	}
	if res.Delivered {
		t.delivered++
		t.chainSum += res.ChainLength
		t.latencySum += res.DeliveryLatency
	}
	t.msgSum += res.MessagesSent
	t.terminations[res.Termination]++
}

func (t *tally) merge(o *tally) {
	for i := range t.levels {
		t.levels[i] += o.levels[i]
	}
	t.delivered += o.delivered
	t.detected += o.detected
	t.chainSum += o.chainSum
	t.msgSum += o.msgSum
	t.latencySum += o.latencySum
	for i := range t.terminations {
		t.terminations[i] += o.terminations[i]
	}
}

// evaluation converts the tally into the public aggregate.
func (t *tally) evaluation(episodes int) *Evaluation {
	ev := &Evaluation{
		Episodes:     episodes,
		Terminations: make(map[Termination]int),
	}
	for l, n := range t.levels {
		ev.PMF[l] = float64(n) / float64(episodes)
	}
	for term, n := range t.terminations {
		if n > 0 {
			ev.Terminations[Termination(term)] = n
		}
	}
	ev.DeliveredFraction = float64(t.delivered) / float64(episodes)
	ev.DetectedFraction = float64(t.detected) / float64(episodes)
	ev.MeanMessages = float64(t.msgSum) / float64(episodes)
	if t.delivered > 0 {
		ev.MeanChainLength = float64(t.chainSum) / float64(t.delivered)
		ev.MeanDeliveryLatency = t.latencySum / float64(t.delivered)
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
	type shardOut struct {
		t *tally
		m *shardMetrics
	}
	evalStart := time.Now()
	out, err := parallel.MonteCarloCtx(ctx, workers, episodes, 0,
		func(s parallel.Shard) (shardOut, error) {
			begin := time.Now()
			r, err := acquireRunner(p, stats.NewRNG(seed, uint64(s.Index)))
			if err != nil {
				return shardOut{}, err
			}
			// The global episode ordinal (s.Start + i) keys head sampling
			// and exemplars; it depends only on the budget partition, never
			// on the worker count.
			r.ep.ord = uint64(s.Start)
			detach := r.attachShardTracer(p.Tracing, uint64(s.Start))
			o := shardOut{t: &tally{}, m: maybeShardMetrics(p.Metrics)}
			r.setMetrics(o.m)
			var shardErr error
			for i := 0; i < s.Count; i++ {
				if i%cancelCheckStride == 0 && ctx.Err() != nil {
					shardErr = ctx.Err()
					break
				}
				res := r.run()
				o.t.add(&res)
			}
			detach()
			releaseRunner(r)
			if shardErr != nil {
				return shardOut{}, shardErr
			}
			if p.Tracing != nil && p.Tracing.WallSpans {
				p.Tracing.Collector.AddWall(trace.WallSpan{
					Label:   p.Tracing.Scope,
					Shard:   s.Index,
					WaitSec: begin.Sub(evalStart).Seconds(),
					BusySec: time.Since(begin).Seconds(),
				})
			}
			return o, nil
		},
		func(acc, part shardOut) shardOut {
			if acc.t == nil {
				return part
			}
			acc.t.merge(part.t)
			acc.m.merge(part.m)
			return acc
		})
	if err != nil {
		return nil, err
	}
	out.m.publish(p.Metrics)
	return out.t.evaluation(episodes), nil
}
