package linsolve

import (
	"math"
	"math/rand"
	"testing"
)

// denseLU is the dense kernel the compressed LU replaced, kept verbatim as
// the reference the compressed factor and solve must match bit for bit.
type denseLU struct {
	n    int
	lu   []float64
	perm []int
}

func denseFactor(a []float64, n int) (*denseLU, error) {
	lu := append([]float64(nil), a...)
	perm := make([]int, n)
	for i := range perm {
		perm[i] = i
	}
	for col := 0; col < n; col++ {
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
			tail := rowR[col+1:]
			for k, pv := range pivRow {
				tail[k] -= f * pv
			}
		}
	}
	return &denseLU{n: n, lu: lu, perm: perm}, nil
}

func (f *denseLU) SolveInto(x, b []float64) {
	n := f.n
	for i := 0; i < n; i++ {
		s := b[f.perm[i]]
		row := f.lu[i*n : i*n+i]
		xs := x[:len(row)]
		for j, v := range row {
			s -= v * xs[j]
		}
		x[i] = s
	}
	for i := n - 1; i >= 0; i-- {
		row := f.lu[i*n+i : (i+1)*n]
		tail := row[1:]
		xt := x[i+1:][:len(tail)]
		s := x[i]
		for j, v := range tail {
			s -= v * xt[j]
		}
		x[i] = s / row[0]
	}
}

// sameSolution reports the first index where the compressed solution got
// differs from the dense reference want for right-hand side b, or -1.
// Entries must be bit-identical. The one difference allowed is the sign of
// an exactly-zero output when b holds a −0: subtracting a stored zero's
// product can turn the dense solve's −0 partial sum into +0, and the
// compressed solve skips that subtraction.
func sameSolution(got, want, b []float64) int {
	negZero := false
	for _, v := range b {
		negZero = negZero || (v == 0 && math.Signbit(v))
	}
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) && !(negZero && got[i] == 0 && want[i] == 0) {
			return i
		}
	}
	return -1
}

// checkAgainstDense factors a both ways and compares the permutations and
// the solutions for every right-hand side in rhs. It reports whether the
// factor swapped rows.
func checkAgainstDense(t *testing.T, name string, a []float64, n int, rhs [][]float64) (swapped bool) {
	t.Helper()
	want, wantErr := denseFactor(a, n)
	got, err := Factor(a, n)
	if (err != nil) != (wantErr != nil) {
		t.Fatalf("%s: Factor error %v, dense reference %v", name, err, wantErr)
	}
	if err != nil {
		return false
	}
	for i := range want.perm {
		if got.perm[i] != want.perm[i] {
			t.Fatalf("%s: permutation %v, dense reference %v", name, got.perm, want.perm)
		}
		swapped = swapped || want.perm[i] != i
	}
	x, ref := make([]float64, n), make([]float64, n)
	for k, b := range rhs {
		if err := got.SolveInto(x, b); err != nil {
			t.Fatal(err)
		}
		want.SolveInto(ref, b)
		if i := sameSolution(x, ref, b); i >= 0 {
			t.Fatalf("%s rhs %d: x[%d] = %v (%#x), dense reference %v (%#x)",
				name, k, i, x[i], math.Float64bits(x[i]), ref[i], math.Float64bits(ref[i]))
		}
	}
	return swapped
}

// randomSparse draws an n x n matrix whose off-diagonal entries are normal
// with probability density and otherwise exact zeros of either sign. A
// dominant matrix gets a diagonal above its row's absolute sum and never
// needs a row swap; otherwise a third of the diagonal is zero and the rest
// is small, so partial pivoting swaps rows.
func randomSparse(r *rand.Rand, n int, density float64, dominant bool) []float64 {
	a := make([]float64, n*n)
	for i := 0; i < n; i++ {
		rowSum := 0.0
		for j := 0; j < n; j++ {
			switch {
			case i == j:
			case r.Float64() < density:
				a[i*n+j] = r.NormFloat64()
				rowSum += math.Abs(a[i*n+j])
			case r.Intn(2) == 0:
				a[i*n+j] = math.Copysign(0, -1)
			}
		}
		switch {
		case dominant:
			a[i*n+i] = rowSum + 1 + r.Float64()
		case r.Intn(3) > 0:
			a[i*n+i] = 0.1 * r.NormFloat64()
		}
	}
	return a
}

// randomRHS draws right-hand sides for an n-block system: one normal, one
// with about a third of its entries +0 and a third −0, and one of exact
// zeros of both signs.
func randomRHS(r *rand.Rand, n int) [][]float64 {
	normal, mixed, zeros := make([]float64, n), make([]float64, n), make([]float64, n)
	for i := 0; i < n; i++ {
		normal[i] = 10 * r.NormFloat64()
		switch r.Intn(3) {
		case 0:
			mixed[i] = r.NormFloat64()
		case 1:
			mixed[i] = math.Copysign(0, -1)
		}
		if i%2 == 1 {
			zeros[i] = math.Copysign(0, -1)
		}
	}
	mixed[r.Intn(n)] = 1 + r.Float64()
	return [][]float64{normal, mixed, zeros}
}

// TestCompressedMatchesDense checks the compressed factor and solve
// against the dense reference on random sparse matrices: diagonally
// dominant ones, and general ones whose factor swaps rows. The densities
// run from nearly diagonal to full, so rows with no stored entries, with
// zeros inside an L profile, and with no zeros at all all occur.
func TestCompressedMatchesDense(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	swaps := 0
	for trial := 0; trial < 300; trial++ {
		n := 1 + r.Intn(40)
		density := []float64{0.02, 0.1, 0.3, 0.6, 1}[trial%5]
		a := randomSparse(r, n, density, trial%2 == 0)
		if checkAgainstDense(t, "random", a, n, randomRHS(r, n)) {
			swaps++
		}
	}
	if swaps < 50 {
		t.Fatalf("only %d of 300 factors swapped rows", swaps)
	}
}

// FuzzLUSolve compares the compressed factor and solve with the dense
// reference on matrices and right-hand sides decoded from the input. The
// first byte sets n in [1, 8]; every later byte is one entry, row-major,
// then the right-hand side. Entries are zeros of either sign or multiples
// of 1/8 in [−16, 16). The seed corpus is in testdata/fuzz/FuzzLUSolve.
func FuzzLUSolve(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		n := 1 + int(data[0]%8)
		data = data[1:]
		if len(data) < n*n+n {
			return
		}
		entry := func(v byte) float64 {
			switch {
			case v&7 == 0:
				return 0
			case v&3 == 0:
				return math.Copysign(0, -1)
			}
			return float64(int8(v)) / 8
		}
		a := make([]float64, n*n)
		for i := range a {
			a[i] = entry(data[i])
		}
		b := make([]float64, n)
		for i := range b {
			b[i] = entry(data[n*n+i])
		}
		// The comparison holds only while nothing overflows; pivots that
		// cancel to rounding residue can still grow entries past it.
		if ref, err := denseFactor(a, n); err == nil {
			x := make([]float64, n)
			ref.SolveInto(x, b)
			if !finite(ref.lu) || !finite(x) {
				return
			}
		}
		checkAgainstDense(t, "fuzz", a, n, [][]float64{b})
	})
}

func finite(xs []float64) bool {
	for _, v := range xs {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return false
		}
	}
	return true
}
