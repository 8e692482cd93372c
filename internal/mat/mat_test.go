package mat

import (
	"fmt"
	"math"
	"math/rand"
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

func TestNewPanicsOnBadDims(t *testing.T) {
	for _, dims := range [][2]int{{0, 1}, {1, 0}, {-1, 2}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("New(%d, %d) did not panic", dims[0], dims[1])
				}
			}()
			New(dims[0], dims[1])
		}()
	}
}

func TestFromRows(t *testing.T) {
	m, err := FromRows([][]float64{{1, 2}, {3, 4}})
	if err != nil {
		t.Fatal(err)
	}
	if m.At(0, 1) != 2 || m.At(1, 0) != 3 {
		t.Errorf("FromRows content wrong: %v", m)
	}
	if _, err := FromRows(nil); err == nil {
		t.Error("expected error for empty input")
	}
	if _, err := FromRows([][]float64{{1}, {1, 2}}); err == nil {
		t.Error("expected error for ragged input")
	}
}

func TestMul(t *testing.T) {
	a, _ := FromRows([][]float64{{1, 2}, {3, 4}})
	b, _ := FromRows([][]float64{{5, 6}, {7, 8}})
	c, err := a.Mul(b)
	if err != nil {
		t.Fatal(err)
	}
	want, _ := FromRows([][]float64{{19, 22}, {43, 50}})
	for i := 0; i < 2; i++ {
		for j := 0; j < 2; j++ {
			if c.At(i, j) != want.At(i, j) {
				t.Errorf("Mul(%d,%d) = %v, want %v", i, j, c.At(i, j), want.At(i, j))
			}
		}
	}
	tall := New(3, 2)
	if _, err := a.Mul(tall); err == nil {
		t.Error("expected dimension mismatch error")
	}
}

func TestIdentityIsMulNeutral(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	a := randomMatrix(rng, 4, 4)
	i4 := Identity(4)
	left, _ := i4.Mul(a)
	right, _ := a.Mul(i4)
	for i := 0; i < 4; i++ {
		for j := 0; j < 4; j++ {
			if left.At(i, j) != a.At(i, j) || right.At(i, j) != a.At(i, j) {
				t.Fatalf("identity not neutral at (%d,%d)", i, j)
			}
		}
	}
}

func TestTransposeInvolution(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	a := randomMatrix(rng, 3, 5)
	tt := a.T().T()
	for i := 0; i < 3; i++ {
		for j := 0; j < 5; j++ {
			if tt.At(i, j) != a.At(i, j) {
				t.Fatalf("(Aᵀ)ᵀ != A at (%d,%d)", i, j)
			}
		}
	}
}

func TestPlusMinusTrace(t *testing.T) {
	a, _ := FromRows([][]float64{{1, 2}, {3, 4}})
	b, _ := FromRows([][]float64{{10, 20}, {30, 40}})
	s, err := a.Plus(b)
	if err != nil {
		t.Fatal(err)
	}
	d, err := s.Minus(b)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		for j := 0; j < 2; j++ {
			if d.At(i, j) != a.At(i, j) {
				t.Errorf("(a+b)-b != a at (%d,%d)", i, j)
			}
		}
	}
	tr, err := a.Trace()
	if err != nil {
		t.Fatal(err)
	}
	if tr != 5 {
		t.Errorf("Trace = %v, want 5", tr)
	}
	rect := New(2, 3)
	if _, err := rect.Trace(); err == nil {
		t.Error("expected error for trace of rectangular matrix")
	}
	if _, err := a.Plus(rect); err == nil {
		t.Error("expected error for mismatched Plus")
	}
	if _, err := a.Minus(rect); err == nil {
		t.Error("expected error for mismatched Minus")
	}
}

func TestMulVec(t *testing.T) {
	a, _ := FromRows([][]float64{{1, 2, 3}, {4, 5, 6}})
	v, err := a.MulVec([]float64{1, 0, -1})
	if err != nil {
		t.Fatal(err)
	}
	if v[0] != -2 || v[1] != -2 {
		t.Errorf("MulVec = %v, want [-2 -2]", v)
	}
	if _, err := a.MulVec([]float64{1}); err == nil {
		t.Error("expected dimension mismatch error")
	}
}

func TestVectorOps(t *testing.T) {
	d, err := Dot([]float64{1, 2, 3}, []float64{4, 5, 6})
	if err != nil {
		t.Fatal(err)
	}
	if d != 32 {
		t.Errorf("Dot = %v, want 32", d)
	}
	if _, err := Dot([]float64{1}, []float64{1, 2}); err == nil {
		t.Error("expected length mismatch error")
	}
	if n := Norm2([]float64{3, 4}); n != 5 {
		t.Errorf("Norm2 = %v, want 5", n)
	}
	if n := Norm2(nil); n != 0 {
		t.Errorf("Norm2(nil) = %v, want 0", n)
	}
	// Overflow guard: huge components should not produce +Inf.
	if n := Norm2([]float64{1e308, 1e308}); math.IsInf(n, 0) {
		t.Error("Norm2 overflowed")
	}
	y := []float64{1, 1}
	if err := AXPY(2, []float64{3, 4}, y); err != nil {
		t.Fatal(err)
	}
	if y[0] != 7 || y[1] != 9 {
		t.Errorf("AXPY = %v, want [7 9]", y)
	}
	if err := AXPY(1, []float64{1}, []float64{1, 2}); err == nil {
		t.Error("expected AXPY length mismatch error")
	}
}

func randomMatrix(rng *rand.Rand, r, c int) *Matrix {
	m := New(r, c)
	for i := 0; i < r; i++ {
		for j := 0; j < c; j++ {
			m.Set(i, j, rng.NormFloat64())
		}
	}
	return m
}

// (AB)ᵀ = BᵀAᵀ for random matrices.
func TestMulTransposeProperty(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a := randomMatrix(rng, 3, 4)
		b := randomMatrix(rng, 4, 2)
		ab, err := a.Mul(b)
		if err != nil {
			return false
		}
		btat, err := b.T().Mul(a.T())
		if err != nil {
			return false
		}
		abT := ab.T()
		for i := 0; i < abT.Rows(); i++ {
			for j := 0; j < abT.Cols(); j++ {
				if !approx(abT.At(i, j), btat.At(i, j), 1e-12) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// Rows returns the number of rows.
func (m *Matrix) Rows() int { return m.rows }

// Cols returns the number of columns.
func (m *Matrix) Cols() int { return m.cols }

// Plus returns m + b as a new matrix.
func (m *Matrix) Plus(b *Matrix) (*Matrix, error) {
	if m.rows != b.rows || m.cols != b.cols {
		return nil, fmt.Errorf("mat: Plus dimension mismatch: %dx%d + %dx%d", m.rows, m.cols, b.rows, b.cols)
	}
	out := m.Clone()
	for i := range out.data {
		out.data[i] += b.data[i]
	}
	return out, nil
}

// Minus returns m − b as a new matrix.
func (m *Matrix) Minus(b *Matrix) (*Matrix, error) {
	if m.rows != b.rows || m.cols != b.cols {
		return nil, fmt.Errorf("mat: Minus dimension mismatch: %dx%d - %dx%d", m.rows, m.cols, b.rows, b.cols)
	}
	out := m.Clone()
	for i := range out.data {
		out.data[i] -= b.data[i]
	}
	return out, nil
}

// Trace returns the sum of diagonal elements of a square matrix.
func (m *Matrix) Trace() (float64, error) {
	if m.rows != m.cols {
		return 0, fmt.Errorf("mat: Trace of non-square %dx%d matrix", m.rows, m.cols)
	}
	var s float64
	for i := 0; i < m.rows; i++ {
		s += m.data[i*m.cols+i]
	}
	return s, nil
}

// Dot returns the inner product of two equal-length vectors.
func Dot(a, b []float64) (float64, error) {
	if len(a) != len(b) {
		return 0, fmt.Errorf("mat: Dot length mismatch: %d vs %d", len(a), len(b))
	}
	var s float64
	for i := range a {
		s += a[i] * b[i]
	}
	return s, nil
}

// Norm2 returns the Euclidean norm of v, guarding against overflow by
// scaling.
func Norm2(v []float64) float64 {
	var scale, ssq float64 = 0, 1
	for _, x := range v {
		if x == 0 {
			continue
		}
		ax := math.Abs(x)
		if scale < ax {
			r := scale / ax
			ssq = 1 + ssq*r*r
			scale = ax
		} else {
			r := ax / scale
			ssq += r * r
		}
	}
	return scale * math.Sqrt(ssq)
}

// AXPY computes y ← a·x + y in place.
func AXPY(a float64, x, y []float64) error {
	if len(x) != len(y) {
		return fmt.Errorf("mat: AXPY length mismatch: %d vs %d", len(x), len(y))
	}
	for i := range x {
		y[i] += a * x[i]
	}
	return nil
}
