// Quickstart: evaluate the paper's headline claim in a dozen lines.
//
// It builds the analytic QoS model at the paper's §4.3 parameters,
// computes the plane-capacity distribution under a mid-range failure
// rate, and compares P(Y >= y) for the OAQ scheme against the BAQ
// baseline — then runs the actual distributed protocol for one signal
// episode so you can see a coordination chain at work.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"
	"os"

	"satqos"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("quickstart: ")

	// Analytic route: Eq. (3) at τ = 5 min, µ = 0.2/min, ν = 30/min.
	model, err := satqos.NewAnalyticModel(satqos.ReferenceGeometry(), 5, 0.2, 30)
	if err != nil {
		log.Fatal(err)
	}
	// Plane capacity under λ = 5e-5 failures/hour, threshold η = 10,
	// scheduled ground-spare deployment every 30000 hours.
	dist, err := satqos.PlaneCapacity(10, 5e-5, 30000)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("QoS measure P(Y >= y) at λ = 5e-5/h:")
	fmt.Printf("  %-4s %-8s %-8s\n", "y", "OAQ", "BAQ")
	for y := satqos.LevelSingle; y <= satqos.LevelSimultaneousDual; y++ {
		oaqP, err := model.Measure(satqos.SchemeOAQ, dist, y)
		if err != nil {
			log.Fatal(err)
		}
		baqP, err := model.Measure(satqos.SchemeBAQ, dist, y)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  %-4d %-8.4f %-8.4f\n", int(y), oaqP, baqP)
	}

	// Protocol route: live episodes on a degraded (k = 10, underlapping)
	// plane, with the first sequential-coordination episode's span tree
	// printed in full.
	rng := satqos.NewRNG(42, 0)
	params := satqos.ReferenceProtocolParams(10, satqos.SchemeOAQ)
	for i := 0; i < 100; i++ {
		res, tr, err := satqos.RunEpisodeTraced(params, rng)
		if err != nil {
			log.Fatal(err)
		}
		if res.Level != satqos.LevelSequentialDual {
			continue
		}
		fmt.Printf("\nOne OAQ sequential-coordination episode on a k=10 plane "+
			"(level=%v, chain=%d, messages=%d, termination=%v):\n",
			res.Level, res.ChainLength, res.MessagesSent, res.Termination)
		// The root span opens at signal start; rebase to the detection.
		tr.WriteTree(os.Stdout, tr.Spans[0].Start+res.DetectionDelay)
		return
	}
	log.Fatal("no sequential episode found in 100 tries")
}
