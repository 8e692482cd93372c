// Command coverage analyzes a constellation's geometry: the Tc/Tr[k]
// table driving the analytic model, per-capacity overlap/underlap
// classification, and an ASCII coverage map of the globe (the textual
// counterpart of the paper's Figure 1). The map is computed by the
// structure-of-arrays fast scanner, so even the 1584-satellite Starlink
// preset renders instantly.
//
// Usage:
//
//	coverage                    # geometry table + coverage map at t=0
//	coverage -t 45              # map at t=45 minutes
//	coverage -fail 6            # after 6 failures in plane 0 (k drops to 10)
//	coverage -preset starlink   # any named Walker preset
package main

import (
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"strings"

	"satqos/internal/constellation"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "coverage:", err)
		os.Exit(1)
	}
}

func run(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("coverage", flag.ContinueOnError)
	at := fs.Float64("t", 0, "snapshot time (minutes)")
	failures := fs.Int("fail", 0, "failures to inject into plane 0 before the snapshot")
	preset := fs.String("preset", constellation.PresetReference,
		"constellation design: "+strings.Join(constellation.PresetNames(), " | "))
	if err := fs.Parse(args); err != nil {
		return err
	}

	cfg, err := constellation.PresetConfig(*preset)
	if err != nil {
		return err
	}
	c, err := constellation.New(cfg)
	if err != nil {
		return err
	}
	plane, err := c.Plane(0)
	if err != nil {
		return err
	}
	for i := 0; i < *failures; i++ {
		if err := plane.FailActive(); err != nil {
			return fmt.Errorf("injecting failure %d: %w", i+1, err)
		}
	}

	o := plane.ActiveOrbit(0)
	fp := plane.Footprint()
	fmt.Fprintf(w, "%s constellation (Walker %s): %d planes, %d active satellites (plane 0: k=%d, spares=%d)\n",
		*preset, cfg.Walker, c.Planes(), c.ActiveSatellites(), plane.ActiveCount(), plane.SpareCount())
	fmt.Fprintf(w, "  period θ=%.1f min  altitude %.0f km  inclination %.1f°  footprint half-angle %.1f°  radius %.0f km\n",
		o.PeriodMin, o.AltitudeKm(), cfg.InclinationDeg, fp.HalfAngle*180/math.Pi, fp.RadiusKm())
	fmt.Fprintf(w, "  coverage time Tc=%.2f min  revisit Tr[k]=%.2f min  regime: %s\n",
		fp.MaxCoverageTime(o), plane.RevisitTime(), regime(plane))

	tc := cfg.CoverageTimeMin
	fmt.Fprintf(w, "\n  k    Tr[k](min)  L2[k](min)  regime\n")
	for k := max(1, cfg.ActivePerPlane-5); k <= cfg.ActivePerPlane; k++ {
		tr := plane.RevisitTimeAt(k)
		l2 := math.Abs(tr - tc)
		reg := "underlap"
		if tr < tc {
			reg = "overlap"
		}
		fmt.Fprintf(w, "  %-4d %-11.3f %-11.3f %s\n", k, tr, l2, reg)
	}

	scan := constellation.NewScanner(c)
	var lons []float64
	for lon := -180.0; lon < 180; lon += 5 {
		lons = append(lons, lon*math.Pi/180)
	}
	counts := make([]int, len(lons))
	fmt.Fprintf(w, "\nCoverage map at t=%.1f min ('.'=0, digits=multiplicity):\n", *at)
	for lat := 80.0; lat >= -80; lat -= 8 {
		fmt.Fprintf(w, "%+4.0f ", lat)
		scan.CoverageCounts(counts, lat*math.Pi/180, lons, *at)
		for _, n := range counts {
			switch {
			case n == 0:
				fmt.Fprint(w, ".")
			case n > 9:
				fmt.Fprint(w, "+")
			default:
				fmt.Fprintf(w, "%d", n)
			}
		}
		fmt.Fprintln(w)
	}
	return nil
}

func regime(p *constellation.Plane) string {
	if p.Overlapping() {
		return "overlapping footprints"
	}
	return "underlapping footprints"
}
