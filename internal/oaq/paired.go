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
// runs sequentially on the calling goroutine. Episode i also keys the
// alert-latency exemplars of both configurations' metrics, so an
// exemplar "ep-i" replays as RunEpisode(p, stats.NewRNG(seed, i)).
//
// The paired engine records no span traces: it clears a.Tracing and
// b.Tracing once, before any shard opens.
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

	a.Tracing, b.Tracing = nil, nil
	// pairOut is one Monte-Carlo shard's outcome: a shard per
	// configuration and the level-difference sums. Those are sums of
	// small integers, exact in float64, so merging in any fixed order
	// reproduces the sequential fold bit-for-bit.
	type pairOut struct {
		a, b            *shard
		diffSum, diffSq float64
		wins, losses    int
	}
	out, err := parallel.MonteCarlo(workers, episodes, 0,
		func(sp parallel.Shard) (*pairOut, error) {
			rngA := stats.NewRNG(seed, uint64(sp.Start))
			rngB := stats.NewRNG(seed, uint64(sp.Start))
			sa, err := openShard(a, rngA, uint64(sp.Start))
			if err != nil {
				return nil, fmt.Errorf("oaq: config A: %w", err)
			}
			defer sa.close()
			sb, err := openShard(b, rngB, uint64(sp.Start))
			if err != nil {
				return nil, fmt.Errorf("oaq: config B: %w", err)
			}
			defer sb.close()
			o := &pairOut{a: sa, b: sb}
			for i := 0; i < sp.Count; i++ {
				// One substream per episode, replayed for both
				// configurations: the signal placement and duration draws
				// coincide, and the residual divergence (different numbers
				// of computation samples) only affects later draws within
				// the episode.
				stream := uint64(sp.Start + i)
				rngA.Reseed(seed, stream)
				resA := sa.run()
				rngB.Reseed(seed, stream)
				resB := sb.run()
				d := float64(resA.Level) - float64(resB.Level)
				o.diffSum += d
				o.diffSq += d * d
				if resA.Level > resB.Level {
					o.wins++
				} else if resA.Level < resB.Level {
					o.losses++
				}
			}
			return o, nil
		},
		func(acc, part *pairOut) *pairOut {
			if acc == nil {
				return part
			}
			acc.a.merge(part.a)
			acc.b.merge(part.b)
			acc.diffSum += part.diffSum
			acc.diffSq += part.diffSq
			acc.wins += part.wins
			acc.losses += part.losses
			return acc
		})
	if err != nil {
		return nil, err
	}
	out.a.publish(a.Metrics)
	out.b.publish(b.Metrics)

	mean := out.diffSum / float64(episodes)
	variance := out.diffSq/float64(episodes) - mean*mean
	if variance < 0 {
		variance = 0
	}
	return &PairedComparison{
		Episodes:        episodes,
		A:               out.a.t.evaluation(episodes),
		B:               out.b.t.evaluation(episodes),
		MeanLevelDiff:   mean,
		MeanLevelDiffCI: 1.96 * math.Sqrt(variance/float64(episodes)),
		WinFraction:     float64(out.wins) / float64(episodes),
		LossFraction:    float64(out.losses) / float64(episodes),
	}, nil
}
