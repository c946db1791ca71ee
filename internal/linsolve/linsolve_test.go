package linsolve

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// solveOnce factors a and solves A x = b.
func solveOnce(a []float64, n int, b []float64) ([]float64, error) {
	f, err := Factor(a, n)
	if err != nil {
		return nil, err
	}
	return f.Solve(b)
}

// matVec returns A x for an n x n row-major matrix.
func matVec(a []float64, n int, x []float64) []float64 {
	y := make([]float64, n)
	for i := 0; i < n; i++ {
		s := 0.0
		for j, v := range a[i*n : (i+1)*n] {
			s += v * x[j]
		}
		y[i] = s
	}
	return y
}

func TestSolveKnownSystem(t *testing.T) {
	// 2x + y = 5; x + 3y = 10 -> x = 1, y = 3.
	a := []float64{2, 1, 1, 3}
	x, err := solveOnce(a, 2, []float64{5, 10})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(x[0]-1) > 1e-12 || math.Abs(x[1]-3) > 1e-12 {
		t.Fatalf("x = %v", x)
	}
}

func TestSolveIdentity(t *testing.T) {
	n := 5
	a := make([]float64, n*n)
	for i := 0; i < n; i++ {
		a[i*n+i] = 1
	}
	b := []float64{1, 2, 3, 4, 5}
	x, err := solveOnce(a, n, b)
	if err != nil {
		t.Fatal(err)
	}
	for i := range b {
		if x[i] != b[i] {
			t.Fatalf("x = %v", x)
		}
	}
}

func TestSingularDetected(t *testing.T) {
	a := []float64{1, 2, 2, 4} // rank 1
	if _, err := solveOnce(a, 2, []float64{1, 2}); err == nil {
		t.Fatal("singular matrix not detected")
	}
}

func TestPivotingHandlesZeroDiagonal(t *testing.T) {
	// Leading zero requires a row swap.
	a := []float64{0, 1, 1, 0}
	x, err := solveOnce(a, 2, []float64{3, 7})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(x[0]-7) > 1e-12 || math.Abs(x[1]-3) > 1e-12 {
		t.Fatalf("x = %v", x)
	}
}

func TestFactorReuse(t *testing.T) {
	a := []float64{4, 1, 1, 3}
	f, err := Factor(a, 2)
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range [][]float64{{1, 0}, {0, 1}, {5, -2}} {
		x, err := f.Solve(b)
		if err != nil {
			t.Fatal(err)
		}
		y := matVec(a, 2, x)
		for i := range b {
			if math.Abs(y[i]-b[i]) > 1e-10 {
				t.Fatalf("residual for b=%v: %v", b, y)
			}
		}
	}
}

func TestDimensionErrors(t *testing.T) {
	if _, err := Factor([]float64{1, 2, 3}, 2); err == nil {
		t.Fatal("bad matrix size accepted")
	}
	f, err := Factor([]float64{1, 0, 0, 1}, 2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Solve([]float64{1}); err == nil {
		t.Fatal("bad rhs size accepted")
	}
	if err := f.SolveInto(make([]float64, 3), []float64{1, 2}); err == nil {
		t.Fatal("bad solution buffer size accepted")
	}
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		if _, err := Factor([]float64{1, 0, bad, 1}, 2); err == nil {
			t.Fatalf("matrix entry %v accepted", bad)
		}
	}
}

func TestFactorDoesNotMutateInput(t *testing.T) {
	a := []float64{3, 1, 2, 5}
	orig := append([]float64(nil), a...)
	if _, err := Factor(a, 2); err != nil {
		t.Fatal(err)
	}
	for i := range a {
		if a[i] != orig[i] {
			t.Fatal("Factor mutated its input")
		}
	}
}

// Property: for random diagonally dominant systems, A*Solve(b) == b.
func TestSolveResidualProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 2 + r.Intn(12)
		a := make([]float64, n*n)
		for i := 0; i < n; i++ {
			rowSum := 0.0
			for j := 0; j < n; j++ {
				if i != j {
					a[i*n+j] = r.NormFloat64()
					rowSum += math.Abs(a[i*n+j])
				}
			}
			a[i*n+i] = rowSum + 1 + r.Float64() // strictly dominant
		}
		b := make([]float64, n)
		for i := range b {
			b[i] = r.NormFloat64() * 10
		}
		x, err := solveOnce(a, n, b)
		if err != nil {
			return false
		}
		y := matVec(a, n, x)
		for i := range b {
			if math.Abs(y[i]-b[i]) > 1e-8*(1+math.Abs(b[i])) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkFactorSolve128(b *testing.B) {
	n := 128
	r := rand.New(rand.NewSource(3))
	a := make([]float64, n*n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			a[i*n+j] = r.NormFloat64()
		}
		a[i*n+i] += float64(n)
	}
	rhs := make([]float64, n)
	for i := range rhs {
		rhs[i] = r.NormFloat64()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := solveOnce(a, n, rhs); err != nil {
			b.Fatal(err)
		}
	}
}
