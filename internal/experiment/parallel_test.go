package experiment

import (
	"reflect"
	"testing"
)

// withWorkers runs fn once per workers setting and returns the results
// for comparison, restoring the package default afterwards.
func withWorkers[T any](t *testing.T, fn func() (T, error)) (seq, par T) {
	t.Helper()
	old := Workers
	t.Cleanup(func() { Workers = old })
	Workers = 1
	seq, err := fn()
	if err != nil {
		t.Fatalf("workers=1: %v", err)
	}
	Workers = 4
	par, err = fn()
	if err != nil {
		t.Fatalf("workers=4: %v", err)
	}
	return seq, par
}

func requireEqual[T any](t *testing.T, label string, seq, par T) {
	t.Helper()
	if !reflect.DeepEqual(seq, par) {
		t.Errorf("%s: parallel sweep differs from sequential:\n  seq: %+v\n  par: %+v", label, seq, par)
	}
}

// Every sweep driver must produce element-for-element identical output
// at any Workers setting — parallelism is a wall-clock optimization,
// never a semantic one.
func TestSweepDriversWorkerInvariant(t *testing.T) {
	lambdas := []float64{1e-5, 5e-5, 1e-4}
	t.Run("Figure7", func(t *testing.T) {
		seq, par := withWorkers(t, func() (*Sweep, error) { return Figure7(lambdas, 10, 30000) })
		requireEqual(t, "Figure7", seq, par)
	})
	t.Run("Figure8", func(t *testing.T) {
		seq, par := withWorkers(t, func() (*Sweep, error) { return Figure8(lambdas) })
		requireEqual(t, "Figure8", seq, par)
	})
	t.Run("Figure9", func(t *testing.T) {
		seq, par := withWorkers(t, func() (*Sweep, error) { return Figure9(lambdas) })
		requireEqual(t, "Figure9", seq, par)
	})
	t.Run("TauSweep", func(t *testing.T) {
		seq, par := withWorkers(t, func() (*Sweep, error) { return TauSweep([]float64{2, 5, 8}, 5e-5) })
		requireEqual(t, "TauSweep", seq, par)
	})
	t.Run("DurationSweep", func(t *testing.T) {
		seq, par := withWorkers(t, func() (*Sweep, error) { return DurationSweep([]float64{1, 5, 12}, 5e-5) })
		requireEqual(t, "DurationSweep", seq, par)
	})
	t.Run("PicoScaling", func(t *testing.T) {
		seq, par := withWorkers(t, func() (*Sweep, error) {
			return PicoScaling([]int{14, 28}, []float64{0, 0.2, 0.4}, 5, 0.2, 30)
		})
		requireEqual(t, "PicoScaling", seq, par)
	})
	t.Run("ConstellationAvailability", func(t *testing.T) {
		seq, par := withWorkers(t, func() (*Sweep, error) {
			return ConstellationAvailability(lambdas, 10, 30000, []int{98, 90})
		})
		requireEqual(t, "ConstellationAvailability", seq, par)
	})
	t.Run("MembershipLatency", func(t *testing.T) {
		seq, par := withWorkers(t, func() (*Sweep, error) {
			return MembershipLatency([]float64{0.1, 0.2, 0.4}, 4, 5)
		})
		requireEqual(t, "MembershipLatency", seq, par)
	})
}

func TestSimulationDriversWorkerInvariant(t *testing.T) {
	const episodes = 600
	t.Run("AblationBackwardMessaging", func(t *testing.T) {
		seq, par := withWorkers(t, func() (*Sweep, error) {
			return AblationBackwardMessaging([]float64{0, 0.1, 0.4}, episodes, 11)
		})
		requireEqual(t, "AblationBackwardMessaging", seq, par)
	})
	t.Run("AblationProtocolConstants", func(t *testing.T) {
		seq, par := withWorkers(t, func() (*Sweep, error) {
			return AblationProtocolConstants([]float64{0.01, 0.25, 1}, episodes, 11)
		})
		requireEqual(t, "AblationProtocolConstants", seq, par)
	})
	t.Run("AblationTC1", func(t *testing.T) {
		seq, par := withWorkers(t, func() (*Sweep, error) {
			return AblationTC1([]float64{0, 10, 20}, episodes, 11)
		})
		requireEqual(t, "AblationTC1", seq, par)
	})
	t.Run("SimVsAnalytic", func(t *testing.T) {
		type result struct {
			Table *Table
			Worst float64
		}
		seq, par := withWorkers(t, func() (result, error) {
			tab, worst, err := SimVsAnalytic([]int{10, 12}, episodes, 11)
			return result{tab, worst}, err
		})
		requireEqual(t, "SimVsAnalytic", seq, par)
	})
}
