package experiment

import (
	"fmt"

	"satqos/internal/crosslink"
	"satqos/internal/des"
	"satqos/internal/membership"
	"satqos/internal/stats"
)

// MembershipLatency measures the §5 follow-on protocol: for each
// heartbeat round period (with the suspect timeout scaled to 3.5
// rounds), a 14-satellite plane group is run, one member is made
// fail-silent at a random phase, and the time until every live member
// has installed a view excluding it is recorded. The theoretical bound
// is SuspectAfter + 3 rounds + δ: up to one round of tick granularity
// before suspicion is raised, one round of stability wait, and the
// install happening at the next tick. The round periods run
// concurrently; every period replays the same trial seeds.
func MembershipLatency(roundPeriods []float64, trials int, seed uint64) (*Sweep, error) {
	if len(roundPeriods) == 0 {
		roundPeriods = []float64{0.05, 0.1, 0.2, 0.4}
	}
	if trials <= 0 {
		trials = 30
	}
	const (
		groupSize = 14
		delta     = 0.01
	)
	sweep := &Sweep{
		Title:  fmt.Sprintf("Membership exclusion latency vs round period (%d satellites, %d trials)", groupSize, trials),
		XLabel: "round(min)",
		X:      roundPeriods,
		Notes: []string{
			"suspect timeout = 3.5 rounds; bound = timeout + 3 rounds + δ (tick granularity, stability wait, install tick)",
		},
	}
	names := []string{"mean latency", "max latency", "analytic bound"}
	return mapSeries(sweep, names, func(i int, _ point) ([]float64, error) {
		round := roundPeriods[i]
		cfg := membership.Config{RoundEvery: round, SuspectAfter: 3.5 * round}
		if err := cfg.Validate(); err != nil {
			return nil, err
		}
		var sum, worst float64
		for trial := 0; trial < trials; trial++ {
			latency, err := measureExclusion(cfg, groupSize, delta, seed+uint64(trial)*7919)
			if err != nil {
				return nil, err
			}
			sum += latency
			if latency > worst {
				worst = latency
			}
		}
		return []float64{sum / float64(trials), worst, cfg.SuspectAfter + 3*round + delta}, nil
	})
}

// measureExclusion runs one fail/exclude cycle and returns the latency
// from the failure instant to full exclusion.
func measureExclusion(cfg membership.Config, groupSize int, delta float64, seed uint64) (float64, error) {
	sim := &des.Simulation{}
	net, err := crosslink.NewNetwork(sim, crosslink.Config{MaxDelayMin: delta}, stats.NewRNG(seed, 0))
	if err != nil {
		return 0, err
	}
	candidates := make([]crosslink.NodeID, groupSize)
	for i := range candidates {
		candidates[i] = crosslink.NodeID(i + 1)
	}
	group, err := membership.NewGroup(sim, net, candidates, cfg)
	if err != nil {
		return 0, err
	}
	group.Start()
	rng := stats.NewRNG(seed, 1)
	warmup := 2 + rng.Float64()*cfg.RoundEvery*10
	sim.Run(warmup)
	victim := candidates[rng.Intn(groupSize)]
	failAt := sim.Now()
	if err := group.Fail(victim); err != nil {
		return 0, err
	}
	// Poll in round-sized steps until everyone has excluded the victim.
	deadline := failAt + 100*cfg.SuspectAfter
	for sim.Now() < deadline {
		sim.Run(sim.Now() + cfg.RoundEvery/2)
		excludedEverywhere := true
		for _, id := range candidates {
			if id == victim {
				continue
			}
			v, err := group.ViewOf(id)
			if err != nil {
				return 0, err
			}
			if v.Includes(victim) {
				excludedEverywhere = false
				break
			}
		}
		if excludedEverywhere {
			return sim.Now() - failAt, nil
		}
	}
	return 0, fmt.Errorf("experiment: victim never excluded within %g minutes", deadline-failAt)
}
