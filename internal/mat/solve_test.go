package mat

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestSolveKnownSystem(t *testing.T) {
	a, _ := FromRows([][]float64{
		{2, 1, -1},
		{-3, -1, 2},
		{-2, 1, 2},
	})
	x, err := Solve(a, []float64{8, -11, -3})
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{2, 3, -1}
	for i := range want {
		if !approx(x[i], want[i], 1e-12) {
			t.Errorf("x[%d] = %v, want %v", i, x[i], want[i])
		}
	}
}

func TestSolveSingular(t *testing.T) {
	a, _ := FromRows([][]float64{{1, 2}, {2, 4}})
	if _, err := Solve(a, []float64{1, 2}); !errors.Is(err, ErrSingular) {
		t.Errorf("err = %v, want ErrSingular", err)
	}
}

func TestLUDet(t *testing.T) {
	a, _ := FromRows([][]float64{{4, 3}, {6, 3}})
	f, err := FactorLU(a)
	if err != nil {
		t.Fatal(err)
	}
	if !approx(f.Det(), -6, 1e-12) {
		t.Errorf("Det = %v, want -6", f.Det())
	}
	if !approx(mustDet(t, Identity(5)), 1, 1e-12) {
		t.Error("det(I) != 1")
	}
}

func mustDet(t *testing.T, a *Matrix) float64 {
	t.Helper()
	f, err := FactorLU(a)
	if err != nil {
		t.Fatal(err)
	}
	return f.Det()
}

func TestFactorLUNonSquare(t *testing.T) {
	if _, err := FactorLU(New(2, 3)); err == nil {
		t.Error("expected error for non-square LU")
	}
}

func TestInverse(t *testing.T) {
	a, _ := FromRows([][]float64{{4, 7}, {2, 6}})
	inv, err := Inverse(a)
	if err != nil {
		t.Fatal(err)
	}
	prod, _ := a.Mul(inv)
	for i := 0; i < 2; i++ {
		for j := 0; j < 2; j++ {
			want := 0.0
			if i == j {
				want = 1
			}
			if !approx(prod.At(i, j), want, 1e-12) {
				t.Errorf("A·A⁻¹ at (%d,%d) = %v, want %v", i, j, prod.At(i, j), want)
			}
		}
	}
}

func TestCholeskySPD(t *testing.T) {
	// A = LLᵀ known case.
	a, _ := FromRows([][]float64{
		{4, 12, -16},
		{12, 37, -43},
		{-16, -43, 98},
	})
	c, err := FactorCholesky(a)
	if err != nil {
		t.Fatal(err)
	}
	l := c.L()
	wantL, _ := FromRows([][]float64{
		{2, 0, 0},
		{6, 1, 0},
		{-8, 5, 3},
	})
	for i := 0; i < 3; i++ {
		for j := 0; j < 3; j++ {
			if !approx(l.At(i, j), wantL.At(i, j), 1e-12) {
				t.Errorf("L(%d,%d) = %v, want %v", i, j, l.At(i, j), wantL.At(i, j))
			}
		}
	}
	// Solve against LU for a random rhs.
	b := []float64{1, 2, 3}
	xc, err := c.Solve(b)
	if err != nil {
		t.Fatal(err)
	}
	xl, err := Solve(a, b)
	if err != nil {
		t.Fatal(err)
	}
	for i := range xc {
		if !approx(xc[i], xl[i], 1e-10) {
			t.Errorf("Cholesky vs LU x[%d]: %v vs %v", i, xc[i], xl[i])
		}
	}
}

func TestCholeskyRejectsIndefinite(t *testing.T) {
	a, _ := FromRows([][]float64{{1, 2}, {2, 1}}) // eigenvalues 3, -1
	if _, err := FactorCholesky(a); !errors.Is(err, ErrSingular) {
		t.Errorf("err = %v, want ErrSingular", err)
	}
	if _, err := FactorCholesky(New(2, 3)); err == nil {
		t.Error("expected error for non-square input")
	}
}

func TestLeastSquaresExactFit(t *testing.T) {
	// Fit y = 2x + 1 through exact points: residual zero, coefficients
	// recovered exactly.
	xs := []float64{0, 1, 2, 3, 4}
	a := New(len(xs), 2)
	b := make([]float64, len(xs))
	for i, x := range xs {
		a.Set(i, 0, 1)
		a.Set(i, 1, x)
		b[i] = 1 + 2*x
	}
	coef, err := LeastSquares(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if !approx(coef[0], 1, 1e-10) || !approx(coef[1], 2, 1e-10) {
		t.Errorf("coef = %v, want [1 2]", coef)
	}
}

func TestLeastSquaresMatchesNormalEquations(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	a := randomMatrix(rng, 20, 4)
	b := make([]float64, 20)
	for i := range b {
		b[i] = rng.NormFloat64()
	}
	x, err := LeastSquares(a, b)
	if err != nil {
		t.Fatal(err)
	}
	// Normal equations: AᵀA x = Aᵀ b.
	ata, _ := a.T().Mul(a)
	atb, _ := a.T().MulVec(b)
	xn, err := Solve(ata, atb)
	if err != nil {
		t.Fatal(err)
	}
	for i := range x {
		if !approx(x[i], xn[i], 1e-8) {
			t.Errorf("QR vs normal equations x[%d]: %v vs %v", i, x[i], xn[i])
		}
	}
}

func TestLeastSquaresValidation(t *testing.T) {
	if _, err := LeastSquares(New(2, 3), []float64{1, 2}); err == nil {
		t.Error("expected error for underdetermined system")
	}
	if _, err := LeastSquares(New(3, 2), []float64{1}); err == nil {
		t.Error("expected error for rhs length mismatch")
	}
	// Rank-deficient: duplicate columns.
	a, _ := FromRows([][]float64{{1, 1}, {2, 2}, {3, 3}})
	if _, err := LeastSquares(a, []float64{1, 2, 3}); !errors.Is(err, ErrSingular) {
		t.Errorf("err = %v, want ErrSingular", err)
	}
}

// Solving and multiplying back recovers the right-hand side.
func TestSolveRoundTripProperty(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a := randomMatrix(rng, 5, 5)
		// Diagonal dominance guarantees nonsingularity.
		for i := 0; i < 5; i++ {
			a.Add(i, i, 10)
		}
		b := make([]float64, 5)
		for i := range b {
			b[i] = rng.NormFloat64()
		}
		x, err := Solve(a, b)
		if err != nil {
			return false
		}
		back, err := a.MulVec(x)
		if err != nil {
			return false
		}
		for i := range b {
			if !approx(back[i], b[i], 1e-9) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// Cholesky of AᵀA+I solves the same SPD systems as LU.
func TestCholeskyLUAgreementProperty(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := randomMatrix(rng, 6, 4)
		spd, err := g.T().Mul(g)
		if err != nil {
			return false
		}
		for i := 0; i < 4; i++ {
			spd.Add(i, i, 1)
		}
		b := make([]float64, 4)
		for i := range b {
			b[i] = rng.NormFloat64()
		}
		c, err := FactorCholesky(spd)
		if err != nil {
			return false
		}
		xc, err := c.Solve(b)
		if err != nil {
			return false
		}
		xl, err := Solve(spd, b)
		if err != nil {
			return false
		}
		for i := range xc {
			if !approx(xc[i], xl[i], 1e-8) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestMaxAbs(t *testing.T) {
	a, _ := FromRows([][]float64{{1, -7}, {3, 2}})
	if got := a.MaxAbs(); got != 7 {
		t.Errorf("MaxAbs = %v, want 7", got)
	}
}

func TestStringDoesNotPanic(t *testing.T) {
	if s := Identity(2).String(); len(s) == 0 {
		t.Error("empty String()")
	}
}

func TestDiag(t *testing.T) {
	d := Diag([]float64{1, 2, 3})
	if d.Rows() != 3 || d.At(1, 1) != 2 || d.At(0, 1) != 0 {
		t.Errorf("Diag wrong: %v", d)
	}
}

func TestScale(t *testing.T) {
	a, _ := FromRows([][]float64{{1, 2}})
	a.Scale(3)
	if a.At(0, 1) != 6 {
		t.Errorf("Scale: got %v, want 6", a.At(0, 1))
	}
}

func TestAtSetBounds(t *testing.T) {
	m := New(2, 2)
	for _, fn := range []func(){
		func() { m.At(2, 0) },
		func() { m.At(0, -1) },
		func() { m.Set(-1, 0, 1) },
		func() { m.Add(0, 2, 1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic for out-of-bounds access")
				}
			}()
			fn()
		}()
	}
}

func BenchmarkLeastSquares20x4(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	a := randomMatrix(rng, 20, 4)
	rhs := make([]float64, 20)
	for i := range rhs {
		rhs[i] = rng.NormFloat64()
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := LeastSquares(a, rhs); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSolve10(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	a := randomMatrix(rng, 10, 10)
	for i := 0; i < 10; i++ {
		a.Add(i, i, 20)
	}
	rhs := make([]float64, 10)
	for i := range rhs {
		rhs[i] = rng.NormFloat64()
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Solve(a, rhs); err != nil {
			b.Fatal(err)
		}
	}
}

var _ = math.Pi // keep math imported even if tolerance helpers change

// Diag returns a square matrix with d on the diagonal.
func Diag(d []float64) *Matrix {
	m := New(len(d), len(d))
	for i, v := range d {
		m.Set(i, i, v)
	}
	return m
}

// Scale multiplies every element by s, in place, and returns m.
func (m *Matrix) Scale(s float64) *Matrix {
	for i := range m.data {
		m.data[i] *= s
	}
	return m
}

// MaxAbs returns the largest absolute element value.
func (m *Matrix) MaxAbs() float64 {
	var mx float64
	for _, v := range m.data {
		if a := math.Abs(v); a > mx {
			mx = a
		}
	}
	return mx
}

// Det returns the determinant of the factored matrix.
func (f *LU) Det() float64 {
	d := float64(f.sign)
	for i := 0; i < f.lu.rows; i++ {
		d *= f.lu.At(i, i)
	}
	return d
}

// Solve solves Ax = b using the Cholesky factor.
func (c *Cholesky) Solve(b []float64) ([]float64, error) {
	n := c.l.rows
	if len(b) != n {
		return nil, fmt.Errorf("mat: Cholesky.Solve: rhs length %d, want %d", len(b), n)
	}
	// Ly = b.
	y := make([]float64, n)
	for i := 0; i < n; i++ {
		s := b[i]
		for j := 0; j < i; j++ {
			s -= c.l.At(i, j) * y[j]
		}
		y[i] = s / c.l.At(i, i)
	}
	// Lᵀx = y.
	x := make([]float64, n)
	for i := n - 1; i >= 0; i-- {
		s := y[i]
		for j := i + 1; j < n; j++ {
			s -= c.l.At(j, i) * x[j]
		}
		x[i] = s / c.l.At(i, i)
	}
	return x, nil
}

// LeastSquares solves the (possibly weighted, by pre-scaling rows)
// overdetermined system min ‖Ax − b‖₂ via QR factorization with
// Householder reflections. A must have at least as many rows as columns
// and full column rank.
func LeastSquares(a *Matrix, b []float64) ([]float64, error) {
	m, n := a.rows, a.cols
	if m < n {
		return nil, fmt.Errorf("mat: LeastSquares: underdetermined %dx%d system", m, n)
	}
	if len(b) != m {
		return nil, fmt.Errorf("mat: LeastSquares: rhs length %d, want %d", len(b), m)
	}
	r := a.Clone()
	rhs := make([]float64, m)
	copy(rhs, b)
	// Columns whose remaining norm falls below this relative threshold are
	// numerically dependent on earlier columns (rank deficiency).
	tiny := 1e-12 * math.Max(1, a.MaxAbs()) * math.Sqrt(float64(m))
	// Householder QR, applying reflections to rhs as we go.
	for k := 0; k < n; k++ {
		// Norm of the k-th column below the diagonal.
		var alpha float64
		for i := k; i < m; i++ {
			alpha += r.At(i, k) * r.At(i, k)
		}
		alpha = math.Sqrt(alpha)
		if alpha <= tiny {
			return nil, fmt.Errorf("%w: rank-deficient at column %d", ErrSingular, k)
		}
		if r.At(k, k) > 0 {
			alpha = -alpha
		}
		v := make([]float64, m-k)
		v[0] = r.At(k, k) - alpha
		for i := k + 1; i < m; i++ {
			v[i-k] = r.At(i, k)
		}
		vnorm2, err := Dot(v, v)
		if err != nil {
			return nil, err
		}
		if vnorm2 == 0 {
			continue
		}
		// Apply H = I − 2vvᵀ/‖v‖² to the trailing block of R.
		for c := k; c < n; c++ {
			var dot float64
			for i := k; i < m; i++ {
				dot += v[i-k] * r.At(i, c)
			}
			f := 2 * dot / vnorm2
			for i := k; i < m; i++ {
				r.Add(i, c, -f*v[i-k])
			}
		}
		// ... and to the right-hand side.
		var dot float64
		for i := k; i < m; i++ {
			dot += v[i-k] * rhs[i]
		}
		f := 2 * dot / vnorm2
		for i := k; i < m; i++ {
			rhs[i] -= f * v[i-k]
		}
	}
	// Back substitution on the upper-triangular n×n block.
	x := make([]float64, n)
	for i := n - 1; i >= 0; i-- {
		s := rhs[i]
		for j := i + 1; j < n; j++ {
			s -= r.At(i, j) * x[j]
		}
		d := r.At(i, i)
		if math.Abs(d) <= tiny {
			return nil, fmt.Errorf("%w: negligible diagonal in R at %d", ErrSingular, i)
		}
		x[i] = s / d
	}
	return x, nil
}
