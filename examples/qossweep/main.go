// QoS sweep: the Figure-9 workload, produced two independent ways.
//
// For each node-failure rate λ, it computes the QoS measure P(Y >= 2)
// analytically (Eq. (3): conditional model × plane-capacity
// distribution), and validates the conditional model by Monte-Carlo
// simulation of the actual message-passing protocol, composing the
// empirical conditional PMFs with the same P(k).
//
//	go run ./examples/qossweep [-episodes 4000]
package main

import (
	"flag"
	"fmt"
	"log"

	"satqos"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("qossweep: ")
	episodes := flag.Int("episodes", 4000, "protocol episodes per (k, scheme) cell")
	flag.Parse()

	const (
		eta = 10
		phi = 30000.0
	)
	model, err := satqos.NewAnalyticModel(satqos.ReferenceGeometry(), 5, 0.2, 30)
	if err != nil {
		log.Fatal(err)
	}

	// Empirical conditional PMFs per capacity, from the running
	// protocol. The signal-duration distribution must match the model's
	// µ = 0.2. Each cell draws from its own seed.
	seed := uint64(9)
	empirical := make(map[int]map[satqos.Scheme]satqos.PMF)
	for k := eta; k <= 14; k++ {
		empirical[k] = make(map[satqos.Scheme]satqos.PMF)
		for _, scheme := range []satqos.Scheme{satqos.SchemeOAQ, satqos.SchemeBAQ} {
			p := satqos.ReferenceProtocolParams(k, scheme)
			p.SignalDuration = satqos.Exponential{Rate: 0.2}
			ev, err := satqos.EvaluateProtocol(p, *episodes, seed, 0)
			if err != nil {
				log.Fatal(err)
			}
			seed++
			empirical[k][scheme] = ev.PMF
		}
	}

	fmt.Printf("P(Y >= 2) vs λ  (τ=5, µ=0.2, η=%d, φ=%g h; %d episodes/cell)\n", eta, phi, *episodes)
	fmt.Printf("%-10s  %-12s %-12s  %-12s %-12s\n",
		"λ(/hr)", "OAQ analytic", "OAQ sim", "BAQ analytic", "BAQ sim")
	for i := 1; i <= 10; i++ {
		lambda := float64(i) * 1e-5
		dist, err := satqos.PlaneCapacity(eta, lambda, phi)
		if err != nil {
			log.Fatal(err)
		}
		row := make(map[satqos.Scheme][2]float64)
		for _, scheme := range []satqos.Scheme{satqos.SchemeOAQ, satqos.SchemeBAQ} {
			ana, err := model.Measure(scheme, dist, satqos.LevelSequentialDual)
			if err != nil {
				log.Fatal(err)
			}
			// Compose the empirical conditionals with the analytic P(k).
			var sim float64
			for k := eta; k <= 14; k++ {
				pmf := empirical[k][scheme]
				sim += dist.P(k) * pmf.CCDF(satqos.LevelSequentialDual)
			}
			row[scheme] = [2]float64{ana, sim}
		}
		fmt.Printf("%-10.1e  %-12.4f %-12.4f  %-12.4f %-12.4f\n",
			lambda,
			row[satqos.SchemeOAQ][0], row[satqos.SchemeOAQ][1],
			row[satqos.SchemeBAQ][0], row[satqos.SchemeBAQ][1])
	}
	fmt.Println("\npaper endpoints: OAQ 0.75 / BAQ 0.33 at λ=1e-5; OAQ 0.41 / BAQ 0.04 at λ=1e-4")
}
