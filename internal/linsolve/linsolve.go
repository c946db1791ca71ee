// Package linsolve provides the small linear-algebra kernel the thermal
// model needs: LU factorization with partial pivoting and triangular
// solves. Matrices are passed row-major in flat slices; the factor keeps
// only the entries of L and U that are not exactly zero.
package linsolve

import (
	"errors"
	"fmt"
	"math"
)

// ErrSingular is returned when factorization meets a (numerically)
// singular matrix.
var ErrSingular = errors.New("linsolve: singular matrix")

// LU is a factorization P*A = L*U usable for repeated solves against the
// same matrix (the thermal model re-solves each leakage iteration).
//
// The solves visit the stored entries in the order a dense solve visits
// them and skip only products with an exact zero, whose subtraction
// cannot change a nonzero partial sum. The results therefore equal a
// dense solve's bit for bit, as long as no intermediate overflows, with
// one exception: when b holds a −0, an output that is exactly zero may
// carry the other sign.
type LU struct {
	n    int
	perm []int
	// Row i of L's strict lower triangle (the unit diagonal is implied)
	// is a profile: lVal[lPtr[i]:lPtr[i+1]] holds columns lCol[i] onward,
	// from the row's first nonzero to its last. The thermal conductance
	// matrix factors with every row one contiguous run.
	lPtr []int
	lCol []int
	lVal []float64
	// Row i of U's strict upper triangle keeps its nonzeros
	// uVal[uPtr[i]:uPtr[i+1]] with their columns uCol, ascending.
	uPtr []int
	uCol []int32
	uVal []float64
	diag []float64 // U's diagonal
}

// Factor computes the LU factorization of the n x n matrix a (row-major).
// The input is not modified. Every entry must be finite.
func Factor(a []float64, n int) (*LU, error) {
	if len(a) != n*n {
		return nil, fmt.Errorf("linsolve: matrix buffer has %d elements, want %d", len(a), n*n)
	}
	for i, v := range a {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("linsolve: matrix entry (%d, %d) is %v", i/n, i%n, v)
		}
	}
	lu := append([]float64(nil), a...)
	perm := make([]int, n)
	for i := range perm {
		perm[i] = i
	}
	for col := 0; col < n; col++ {
		// Partial pivoting: find the largest magnitude in this column.
		pivot := col
		maxAbs := math.Abs(lu[col*n+col])
		for r := col + 1; r < n; r++ {
			if v := math.Abs(lu[r*n+col]); v > maxAbs {
				maxAbs, pivot = v, r
			}
		}
		if maxAbs == 0 {
			return nil, ErrSingular
		}
		if pivot != col {
			for c := 0; c < n; c++ {
				lu[col*n+c], lu[pivot*n+c] = lu[pivot*n+c], lu[col*n+c]
			}
			perm[col], perm[pivot] = perm[pivot], perm[col]
		}
		inv := 1 / lu[col*n+col]
		pivRow := lu[col*n+col+1 : (col+1)*n]
		for r := col + 1; r < n; r++ {
			rowR := lu[r*n : (r+1)*n : (r+1)*n]
			f := rowR[col] * inv
			rowR[col] = f
			if f == 0 {
				// The update would subtract only exact zeros.
				continue
			}
			tail := rowR[col+1:]
			for k, pv := range pivRow {
				tail[k] -= f * pv
			}
		}
	}
	return compress(lu, n, perm), nil
}

// compress keeps the nonzero entries of the dense factor lu. A first pass
// sizes the rows, so the stored arrays are allocated once.
func compress(lu []float64, n int, perm []int) *LU {
	f := &LU{
		n:    n,
		perm: perm,
		lPtr: make([]int, n+1),
		lCol: make([]int, n),
		uPtr: make([]int, n+1),
		diag: make([]float64, n),
	}
	for i := 0; i < n; i++ {
		row := lu[i*n : (i+1)*n]
		lo, hi := 0, i
		for lo < hi && row[lo] == 0 {
			lo++
		}
		for hi > lo && row[hi-1] == 0 {
			hi--
		}
		f.lCol[i] = lo
		f.lPtr[i+1] = f.lPtr[i] + hi - lo
		f.diag[i] = row[i]
		nnz := 0
		for _, v := range row[i+1:] {
			if v != 0 {
				nnz++
			}
		}
		f.uPtr[i+1] = f.uPtr[i] + nnz
	}
	f.lVal = make([]float64, 0, f.lPtr[n])
	f.uCol = make([]int32, 0, f.uPtr[n])
	f.uVal = make([]float64, 0, f.uPtr[n])
	for i := 0; i < n; i++ {
		row := lu[i*n : (i+1)*n]
		f.lVal = append(f.lVal, row[f.lCol[i]:][:f.lPtr[i+1]-f.lPtr[i]]...)
		for j := i + 1; j < n; j++ {
			if row[j] != 0 {
				f.uCol = append(f.uCol, int32(j))
				f.uVal = append(f.uVal, row[j])
			}
		}
	}
	return f
}

// SolveInto solves A x = b into the caller-provided x, so repeated solves
// (the thermal fixed point, the transient stepper) can run without
// allocating. b is not modified. x must not alias b: forward substitution
// reads b under the row permutation after earlier entries of x are
// written.
func (f *LU) SolveInto(x, b []float64) error {
	if len(b) != f.n {
		return fmt.Errorf("linsolve: rhs has %d elements, want %d", len(b), f.n)
	}
	if len(x) != f.n {
		return fmt.Errorf("linsolve: solution buffer has %d elements, want %d", len(x), f.n)
	}
	n := f.n
	// Apply permutation and forward-substitute L (unit diagonal). Slicing
	// x to the run's length lets the compiler drop the inner bounds checks.
	for i := 0; i < n; i++ {
		s := b[f.perm[i]]
		row := f.lVal[f.lPtr[i]:f.lPtr[i+1]]
		xs := x[f.lCol[i]:][:len(row)]
		for j, v := range row {
			s -= v * xs[j]
		}
		x[i] = s
	}
	// Back-substitute U.
	for i := n - 1; i >= 0; i-- {
		cols := f.uCol[f.uPtr[i]:f.uPtr[i+1]]
		vals := f.uVal[f.uPtr[i]:][:len(cols)]
		s := x[i]
		for k, c := range cols {
			s -= vals[k] * x[c]
		}
		x[i] = s / f.diag[i]
	}
	return nil
}

// Solve returns x with A x = b. b is not modified.
func (f *LU) Solve(b []float64) ([]float64, error) {
	x := make([]float64, f.n)
	if err := f.SolveInto(x, b); err != nil {
		return nil, err
	}
	return x, nil
}
