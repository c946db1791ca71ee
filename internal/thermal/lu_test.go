package thermal

import (
	"fmt"
	"math"
	"testing"

	"vasched/internal/floorplan"
	"vasched/internal/stats"
)

// denseLU is the dense LU kernel internal/linsolve ran before its factor
// kept only nonzeros, copied verbatim from the reference in linsolve's
// dense_test.go (linsolve's tests cannot import this package to build the
// conductance matrices).
type denseLU struct {
	n    int
	lu   []float64
	perm []int
}

func denseFactor(t *testing.T, a []float64, n int) *denseLU {
	t.Helper()
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
			t.Fatal("dense reference: singular matrix")
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
	return &denseLU{n: n, lu: lu, perm: perm}
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

// TestFactorMatchesDenseReference solves the 124-block steady-state
// conductance matrix and the transient matrices at 1, 2.5 and 10 ms with
// the models' own compressed factors and with the dense reference, and
// requires bit-identical solutions. The right-hand sides are area-weighted
// powers, some with a third of the blocks at +0 and a third at −0. The
// network is connected, so no solution entry is zero and the −0 entries
// leave every bit equal.
func TestFactorMatchesDenseReference(t *testing.T) {
	fp := floorplan.New20CoreCMP()
	m, err := New(fp, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	n := m.n
	rng := stats.NewRNG(5)
	rhs := make([][]float64, 12)
	for k := range rhs {
		b := make([]float64, n)
		for i, blk := range fp.Blocks {
			b[i] = (5 + 80*rng.Float64()) * blk.R.Area()
			if k%2 == 1 {
				switch i % 3 {
				case 1:
					b[i] = 0
				case 2:
					b[i] = math.Copysign(0, -1)
				}
			}
		}
		rhs[k] = b
	}
	check := func(name string, solve func(x, b []float64) error, g []float64) {
		ref := denseFactor(t, g, n)
		x, want := make([]float64, n), make([]float64, n)
		for k, b := range rhs {
			if err := solve(x, b); err != nil {
				t.Fatal(err)
			}
			ref.SolveInto(want, b)
			for i := range want {
				if math.Float64bits(x[i]) != math.Float64bits(want[i]) {
					t.Fatalf("%s rhs %d block %d: %v (%#x), dense reference %v (%#x)",
						name, k, i, x[i], math.Float64bits(x[i]), want[i], math.Float64bits(want[i]))
				}
			}
		}
	}
	g, _ := conductance(fp, m.cfg, make([]float64, n))
	check("steady", m.lu.SolveInto, g)
	for _, dtMS := range []float64{1, 2.5, 10} {
		tr, err := m.NewTransient(dtMS)
		if err != nil {
			t.Fatal(err)
		}
		g, _ := conductance(fp, m.cfg, tr.cOver)
		check(fmt.Sprintf("transient %v ms", dtMS), tr.lu.SolveInto, g)
	}
}
