// Mission: the whole system end-to-end in three dimensions.
//
// Poisson RF emitters appear in the paper's 30°-latitude area of
// interest; the real 98-satellite constellation detects them with its
// footprints; the Doppler sensor takes measurements; the sequential
// localizer estimates positions; and the OAQ opportunity logic decides
// whether to withhold for simultaneous coverage or chain a sequential
// pass — all under the alert deadline. The run reports the QoS-level
// distribution together with the *realized* geolocation accuracy per
// level, demonstrating that the paper's QoS spectrum corresponds to
// real accuracy tiers.
//
//	go run ./examples/mission [-hours 24] [-scheme oaq|baq]
package main

import (
	"flag"
	"fmt"
	"log"
	"math"

	"satqos/internal/mission"
	"satqos/internal/qos"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("mission: ")
	hours := flag.Float64("hours", 24, "mission duration (hours)")
	schemeName := flag.String("scheme", "oaq", "scheme: oaq | baq")
	seed := flag.Uint64("seed", 1, "random seed")
	flag.Parse()

	cfg := mission.DefaultConfig()
	cfg.Seed = *seed
	scheme, err := qos.ParseScheme(*schemeName)
	if err != nil {
		log.Fatal(err)
	}
	cfg.Scheme = scheme

	rep, err := mission.Run(cfg, *hours*60)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%v mission, %.0f h, %d signals in the 25–35°N band (τ=%g min)\n",
		cfg.Scheme, *hours, rep.Episodes, cfg.TauMin)
	fmt.Printf("detected: %.1f%%\n\n", 100*rep.DetectedFraction)
	fmt.Printf("%-22s %-8s %-16s %-16s\n", "QoS level", "share", "realized err", "estimated 1σ")
	for y := qos.LevelSimultaneousDual; y >= qos.LevelMiss; y-- {
		realized, estimated := "-", "-"
		if v, ok := rep.MeanRealizedErrorKm[y]; ok && !math.IsNaN(v) {
			realized = fmt.Sprintf("%.2f km", v)
			estimated = fmt.Sprintf("%.2f km", rep.MeanEstimatedErrorKm[y])
		}
		fmt.Printf("%-22s %-8.3f %-16s %-16s\n", y.String(), rep.PMF[y], realized, estimated)
	}
}
