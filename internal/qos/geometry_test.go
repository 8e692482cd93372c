package qos

import (
	"fmt"
	"math"
	"testing"
	"testing/quick"
)

func approx(a, b, tol float64) bool {
	d := math.Abs(a - b)
	if d <= tol {
		return true
	}
	return d <= tol*math.Max(math.Abs(a), math.Abs(b))
}

func TestNewGeometryValidation(t *testing.T) {
	if _, err := NewGeometry(90, 9); err != nil {
		t.Fatalf("reference geometry rejected: %v", err)
	}
	bad := [][2]float64{{0, 9}, {-90, 9}, {90, 0}, {90, 90}, {90, 100}, {math.NaN(), 9}, {math.Inf(1), 9}}
	for _, b := range bad {
		if _, err := NewGeometry(b[0], b[1]); err == nil {
			t.Errorf("NewGeometry(%v, %v) accepted", b[0], b[1])
		}
	}
}

func TestReferenceGeometryConstants(t *testing.T) {
	g := ReferenceGeometry()
	// §4.2.1: θ = 90 min, Tc = 9 min; Tr[k] = θ/k.
	trs := map[int]float64{
		9:  10,
		10: 9,
		11: 90.0 / 11,
		12: 7.5,
		13: 90.0 / 13,
		14: 90.0 / 14,
	}
	for k, want := range trs {
		got, err := g.Tr(k)
		if err != nil {
			t.Fatal(err)
		}
		if !approx(got, want, 1e-12) {
			t.Errorf("Tr[%d] = %v, want %v", k, got, want)
		}
	}
	// "the underlapping scenario will happen when k is dropped to below
	// 11" (§4.2.1).
	if g.MinOverlapCapacity() != 11 {
		t.Errorf("MinOverlapCapacity = %d, want 11", g.MinOverlapCapacity())
	}
	for k := 1; k <= 10; k++ {
		ov, err := g.Overlapping(k)
		if err != nil {
			t.Fatal(err)
		}
		if ov {
			t.Errorf("k = %d should underlap", k)
		}
	}
	for k := 11; k <= 14; k++ {
		ov, err := g.Overlapping(k)
		if err != nil {
			t.Fatal(err)
		}
		if !ov {
			t.Errorf("k = %d should overlap", k)
		}
	}
}

func TestL1L2(t *testing.T) {
	g := ReferenceGeometry()
	// L1[k] = Tr[k]; L2[k] = |Tc − Tr[k]|.
	for k := 9; k <= 14; k++ {
		l1, err := g.L1(k)
		if err != nil {
			t.Fatal(err)
		}
		tr, _ := g.Tr(k)
		if l1 != tr {
			t.Errorf("L1[%d] = %v, want Tr = %v", k, l1, tr)
		}
		l2, err := g.L2(k)
		if err != nil {
			t.Fatal(err)
		}
		if !approx(l2, math.Abs(9-tr), 1e-12) {
			t.Errorf("L2[%d] = %v, want %v", k, l2, math.Abs(9-tr))
		}
	}
	// Boundary: k = 10 gives Tr = Tc exactly, L2 = 0, underlapping.
	l2, _ := g.L2(10)
	if l2 != 0 {
		t.Errorf("L2[10] = %v, want 0", l2)
	}
	i, err := g.I(10)
	if err != nil || i != 0 {
		t.Errorf("I[10] = %d (err %v), want 0", i, err)
	}
	i, _ = g.I(12)
	if i != 1 {
		t.Errorf("I[12] = %d, want 1", i)
	}
}

func TestCapacityValidation(t *testing.T) {
	g := ReferenceGeometry()
	if _, err := g.Tr(0); err == nil {
		t.Error("Tr(0) accepted")
	}
	if _, err := g.L1(-3); err == nil {
		t.Error("L1(-3) accepted")
	}
	if _, err := g.Overlapping(0); err == nil {
		t.Error("Overlapping(0) accepted")
	}
	if _, err := g.MaxConsecutive(0, 5); err == nil {
		t.Error("MaxConsecutive(0) accepted")
	}
	// Triple-coverage regime rejected by validCapacity (k > 20 for the
	// reference geometry).
	if err := g.validCapacity(21); err == nil {
		t.Error("validCapacity(21) accepted triple-coverage geometry")
	}
	if err := g.validCapacity(20); err != nil {
		t.Errorf("validCapacity(20) rejected: %v", err)
	}
}

func TestMaxConsecutive(t *testing.T) {
	g := ReferenceGeometry()
	// §4.2.1: with τ < 9 the bound is 2 for all underlapping capacities
	// (sequential dual coverage).
	for k := 2; k <= 10; k++ {
		l2, _ := g.L2(k)
		m, err := g.MaxConsecutive(k, 5)
		if err != nil {
			t.Fatal(err)
		}
		want := 1
		if 5 > l2 {
			want = 2
		}
		if m != want {
			t.Errorf("M[%d] at τ=5 is %d, want %d", k, m, want)
		}
	}
	// τ = 0.5 < L2[9] = 1 gives M = 1 (no second pass fits).
	m, err := g.MaxConsecutive(9, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if m != 1 {
		t.Errorf("M[9] at τ=0.5 is %d, want 1", m)
	}
	// Long deadline admits longer chains: τ = 25, k = 9 (L1 = 10,
	// L2 = 1): M = 2 + ⌊24/10⌋ = 4.
	m, err = g.MaxConsecutive(9, 25)
	if err != nil {
		t.Fatal(err)
	}
	if m != 4 {
		t.Errorf("M[9] at τ=25 is %d, want 4", m)
	}
	// Defined only for underlapping capacities.
	if _, err := g.MaxConsecutive(12, 5); err == nil {
		t.Error("MaxConsecutive(12) accepted an overlapping capacity")
	}
	if _, err := g.MaxConsecutive(9, math.NaN()); err == nil {
		t.Error("MaxConsecutive(NaN τ) accepted")
	}
}

// M[k] is nondecreasing in τ and at least 1.
func TestMaxConsecutiveMonotoneProperty(t *testing.T) {
	g := ReferenceGeometry()
	prop := func(rawTau1, rawTau2 float64, rawK uint8) bool {
		k := 2 + int(rawK%9) // 2..10, all underlapping
		t1 := math.Mod(math.Abs(rawTau1), 40)
		t2 := math.Mod(math.Abs(rawTau2), 40)
		if t1 > t2 {
			t1, t2 = t2, t1
		}
		m1, err1 := g.MaxConsecutive(k, t1)
		m2, err2 := g.MaxConsecutive(k, t2)
		return err1 == nil && err2 == nil && m1 >= 1 && m1 <= m2
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// MinOverlapCapacity returns the smallest k for which footprints overlap
// (11 for the reference geometry).
func (g Geometry) MinOverlapCapacity() int {
	// Tr[k] < Tc  ⟺  k > θ/Tc.
	return int(math.Floor(g.ThetaMin/g.TcMin)) + 1
}

// MaxConsecutive returns M[k] of Eq. (2): the upper bound on the number
// of satellites that can consecutively capture a signal in the
// underlapping case (I[k] = 0), given alert deadline τ:
//
//	M[k] = 2 + ⌊(τ − L2[k]) / L1[k]⌋  if τ > L2[k], else 1.
//
// Calling it for an overlapping capacity is an error, matching the
// paper's definition.
func (g Geometry) MaxConsecutive(k int, tau float64) (int, error) {
	ov, err := g.Overlapping(k)
	if err != nil {
		return 0, err
	}
	if ov {
		return 0, fmt.Errorf("qos: M[k] is defined only for underlapping capacities; k = %d overlaps", k)
	}
	if tau < 0 || math.IsNaN(tau) {
		return 0, fmt.Errorf("qos: deadline τ = %g must be non-negative", tau)
	}
	l1, _ := g.L1(k)
	l2, _ := g.L2(k)
	if tau <= l2 {
		return 1, nil
	}
	return 2 + int(math.Floor((tau-l2)/l1)), nil
}
