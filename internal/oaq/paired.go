package oaq

import (
	"fmt"
	"math"

	"satqos/internal/parallel"
	"satqos/internal/stats"
)

// PairedComparison is the outcome of a common-random-numbers comparison
// between two protocol configurations.
type PairedComparison struct {
	// Episodes is the number of paired episodes.
	Episodes int
	// A and B are the per-configuration evaluations.
	A, B *Evaluation
	// MeanLevelDiff is E[Y_A − Y_B] with its 95% half-width — estimated
	// from the paired per-episode differences, which cancels the shared
	// workload randomness and gives far tighter intervals than two
	// independent runs.
	MeanLevelDiff, MeanLevelDiffCI float64
	// WinFraction is the fraction of episodes where A achieved a
	// strictly higher level than B; LossFraction the reverse.
	WinFraction, LossFraction float64
}

// pairedTally is the mergeable per-shard accumulator of the paired
// engine. The level-difference sums are sums of small integers, exact in
// float64, so merging shards in any fixed order reproduces the
// sequential fold bit-for-bit.
type pairedTally struct {
	a, b            tally
	diffSum, diffSq float64
	wins, losses    int
}

func (t *pairedTally) merge(o *pairedTally) {
	t.a.merge(&o.a)
	t.b.merge(&o.b)
	t.diffSum += o.diffSum
	t.diffSq += o.diffSq
	t.wins += o.wins
	t.losses += o.losses
}

// EvaluatePairedParallel runs two configurations against the *same*
// random workload (common random numbers): each episode draws its signal
// and computation randomness from a per-episode substream shared by both
// configurations. Use it to measure the OAQ-vs-BAQ gain — or any
// parameter ablation — without workload noise.
//
// The configurations must share the workload-defining parameters
// (geometry, capacity, signal-duration distribution); otherwise "the
// same signal" is not well defined and an error is returned.
//
// The pairing substreams are indexed by the global episode ordinal —
// episode i replays stats.NewRNG(seed, i) for both configurations
// regardless of which shard hosts it — and shards merge in index order,
// so the result is bit-identical for any workers value; workers == 1
// runs sequentially on the calling goroutine.
func EvaluatePairedParallel(a, b Params, episodes int, seed uint64, workers int) (*PairedComparison, error) {
	if episodes <= 0 {
		return nil, fmt.Errorf("oaq: episode count %d must be positive", episodes)
	}
	if err := a.Validate(); err != nil {
		return nil, fmt.Errorf("oaq: config A: %w", err)
	}
	if err := b.Validate(); err != nil {
		return nil, fmt.Errorf("oaq: config B: %w", err)
	}
	if a.K != b.K || a.Geom != b.Geom {
		return nil, fmt.Errorf("oaq: paired configs must share plane geometry and capacity")
	}
	if a.SignalDuration != b.SignalDuration {
		return nil, fmt.Errorf("oaq: paired configs must share the signal-duration distribution")
	}

	type shardOut struct {
		t      *pairedTally
		ma, mb *shardMetrics
	}
	out, err := parallel.MonteCarlo(workers, episodes, 0,
		func(s parallel.Shard) (shardOut, error) {
			rngA := stats.NewRNG(seed, uint64(s.Start))
			rngB := stats.NewRNG(seed, uint64(s.Start))
			ra, err := acquireRunner(a, rngA)
			if err != nil {
				return shardOut{}, fmt.Errorf("oaq: config A: %w", err)
			}
			defer releaseRunner(ra)
			rb, err := acquireRunner(b, rngB)
			if err != nil {
				return shardOut{}, fmt.Errorf("oaq: config B: %w", err)
			}
			defer releaseRunner(rb)
			o := shardOut{t: &pairedTally{}, ma: maybeShardMetrics(a.Metrics), mb: maybeShardMetrics(b.Metrics)}
			ra.setMetrics(o.ma)
			rb.setMetrics(o.mb)
			t := o.t
			for i := 0; i < s.Count; i++ {
				// One substream per episode, replayed for both
				// configurations: the signal placement and duration draws
				// coincide, and the residual divergence (different numbers
				// of computation samples) only affects later draws within
				// the episode.
				stream := uint64(s.Start + i)
				rngA.Reseed(seed, stream)
				resA := ra.run()
				rngB.Reseed(seed, stream)
				resB := rb.run()
				t.a.add(&resA)
				t.b.add(&resB)
				d := float64(resA.Level) - float64(resB.Level)
				t.diffSum += d
				t.diffSq += d * d
				if resA.Level > resB.Level {
					t.wins++
				} else if resA.Level < resB.Level {
					t.losses++
				}
			}
			return o, nil
		},
		func(acc, part shardOut) shardOut {
			if acc.t == nil {
				return part
			}
			acc.t.merge(part.t)
			acc.ma.merge(part.ma)
			acc.mb.merge(part.mb)
			return acc
		})
	if err != nil {
		return nil, err
	}
	out.ma.publish(a.Metrics)
	out.mb.publish(b.Metrics)

	pt := out.t
	mean := pt.diffSum / float64(episodes)
	variance := pt.diffSq/float64(episodes) - mean*mean
	if variance < 0 {
		variance = 0
	}
	return &PairedComparison{
		Episodes:        episodes,
		A:               pt.a.evaluation(episodes),
		B:               pt.b.evaluation(episodes),
		MeanLevelDiff:   mean,
		MeanLevelDiffCI: 1.96 * math.Sqrt(variance/float64(episodes)),
		WinFraction:     float64(pt.wins) / float64(episodes),
		LossFraction:    float64(pt.losses) / float64(episodes),
	}, nil
}
