package mat

import (
	"errors"
	"fmt"
	"math"
)

// ErrSingular is returned when a factorization encounters a (numerically)
// singular matrix.
var ErrSingular = errors.New("mat: matrix is singular")

// LU holds an LU factorization with partial pivoting: PA = LU.
type LU struct {
	lu   *Matrix
	perm []int
	sign int
}

// FactorLU computes the LU factorization of a square matrix with partial
// pivoting.
func FactorLU(a *Matrix) (*LU, error) {
	if a.rows != a.cols {
		return nil, fmt.Errorf("mat: FactorLU of non-square %dx%d matrix", a.rows, a.cols)
	}
	n := a.rows
	lu := a.Clone()
	perm := make([]int, n)
	for i := range perm {
		perm[i] = i
	}
	sign := 1
	for col := 0; col < n; col++ {
		// Pivot: largest absolute value in this column at or below the
		// diagonal.
		p, pmax := col, math.Abs(lu.At(col, col))
		for r := col + 1; r < n; r++ {
			if v := math.Abs(lu.At(r, col)); v > pmax {
				p, pmax = r, v
			}
		}
		if pmax == 0 {
			return nil, fmt.Errorf("%w: zero pivot at column %d", ErrSingular, col)
		}
		if p != col {
			swapRows(lu, p, col)
			perm[p], perm[col] = perm[col], perm[p]
			sign = -sign
		}
		piv := lu.At(col, col)
		for r := col + 1; r < n; r++ {
			f := lu.At(r, col) / piv
			lu.Set(r, col, f)
			if f == 0 {
				continue
			}
			for c := col + 1; c < n; c++ {
				lu.Add(r, c, -f*lu.At(col, c))
			}
		}
	}
	return &LU{lu: lu, perm: perm, sign: sign}, nil
}

func swapRows(m *Matrix, i, j int) {
	ri := m.data[i*m.cols : (i+1)*m.cols]
	rj := m.data[j*m.cols : (j+1)*m.cols]
	for k := range ri {
		ri[k], rj[k] = rj[k], ri[k]
	}
}

// Solve solves Ax = b using the factorization.
func (f *LU) Solve(b []float64) ([]float64, error) {
	n := f.lu.rows
	if len(b) != n {
		return nil, fmt.Errorf("mat: LU.Solve: rhs length %d, want %d", len(b), n)
	}
	x := make([]float64, n)
	for i, p := range f.perm {
		x[i] = b[p]
	}
	// Forward substitution with unit-diagonal L.
	for i := 1; i < n; i++ {
		for j := 0; j < i; j++ {
			x[i] -= f.lu.At(i, j) * x[j]
		}
	}
	// Back substitution with U.
	for i := n - 1; i >= 0; i-- {
		for j := i + 1; j < n; j++ {
			x[i] -= f.lu.At(i, j) * x[j]
		}
		x[i] /= f.lu.At(i, i)
	}
	return x, nil
}

// Solve solves the square linear system Ax = b.
func Solve(a *Matrix, b []float64) ([]float64, error) {
	f, err := FactorLU(a)
	if err != nil {
		return nil, err
	}
	return f.Solve(b)
}

// Inverse returns A⁻¹, computed column by column from the LU
// factorization. Use Solve when only Ax = b is needed; Inverse exists for
// covariance extraction in the least-squares estimator.
func Inverse(a *Matrix) (*Matrix, error) {
	f, err := FactorLU(a)
	if err != nil {
		return nil, err
	}
	n := a.rows
	inv := New(n, n)
	e := make([]float64, n)
	for j := 0; j < n; j++ {
		e[j] = 1
		col, err := f.Solve(e)
		if err != nil {
			return nil, err
		}
		e[j] = 0
		for i := 0; i < n; i++ {
			inv.Set(i, j, col[i])
		}
	}
	return inv, nil
}

// Cholesky holds the lower-triangular factor L with A = LLᵀ for a
// symmetric positive-definite A.
type Cholesky struct {
	l *Matrix
}

// FactorCholesky computes the Cholesky factorization of a symmetric
// positive-definite matrix. Only the lower triangle of a is read.
func FactorCholesky(a *Matrix) (*Cholesky, error) {
	if a.rows != a.cols {
		return nil, fmt.Errorf("mat: FactorCholesky of non-square %dx%d matrix", a.rows, a.cols)
	}
	n := a.rows
	l := New(n, n)
	for i := 0; i < n; i++ {
		for j := 0; j <= i; j++ {
			s := a.At(i, j)
			for k := 0; k < j; k++ {
				s -= l.At(i, k) * l.At(j, k)
			}
			if i == j {
				if s <= 0 {
					return nil, fmt.Errorf("%w: non-positive-definite at row %d", ErrSingular, i)
				}
				l.Set(i, i, math.Sqrt(s))
			} else {
				l.Set(i, j, s/l.At(j, j))
			}
		}
	}
	return &Cholesky{l: l}, nil
}

// L returns a copy of the lower-triangular factor.
func (c *Cholesky) L() *Matrix { return c.l.Clone() }
