package linsolve

import "testing"

// benchSystem builds a diagonally dominant tridiagonal system near the
// thermal model's scale (the 20-core floorplan has 124 blocks). Its factor
// has none of the thermal factor's fill: L and U keep one entry per row,
// where the thermal factor keeps about nine, so the thermal package's
// benchmarks measure the real kernel.
func benchSystem(n int) ([]float64, []float64) {
	a := make([]float64, n*n)
	b := make([]float64, n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i == j {
				a[i*n+j] = 4
			} else if i-j == 1 || j-i == 1 {
				a[i*n+j] = -1
			}
		}
		b[i] = float64(i%7) + 1
	}
	return a, b
}

func BenchmarkFactor(b *testing.B) {
	a, _ := benchSystem(121)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Factor(a, 121); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkLUSolve is the triangular-substitution kernel every thermal
// solve reduces to.
func BenchmarkLUSolve(b *testing.B) {
	a, rhs := benchSystem(121)
	f, err := Factor(a, 121)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := f.Solve(rhs); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkLUSolveScratch is BenchmarkLUSolve through the zero-allocation
// SolveInto API.
func BenchmarkLUSolveScratch(b *testing.B) {
	a, rhs := benchSystem(121)
	f, err := Factor(a, 121)
	if err != nil {
		b.Fatal(err)
	}
	x := make([]float64, 121)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := f.SolveInto(x, rhs); err != nil {
			b.Fatal(err)
		}
	}
}
