package grf

import (
	"math"
	"math/rand"
	"testing"
)

// TestScaleRowMatchesGoLoop runs scaleRow, on the kernel where this
// build has one, and scaleRowGo on the same inputs, at every length to
// 40 and at the paper-scale 1024, and requires the same bits in every
// part. Special values reach every product.
func TestScaleRowMatchesGoLoop(t *testing.T) {
	g := rand.New(rand.NewSource(7))
	special := []float64{0, math.Copysign(0, -1), 1, -1, math.SmallestNonzeroFloat64, math.MaxFloat64, math.Inf(1), math.Inf(-1), 0x1p-1022}
	draw := func() float64 {
		if g.Intn(8) == 0 {
			return special[g.Intn(len(special))]
		}
		return g.NormFloat64() * math.Exp2(float64(g.Intn(40)-20))
	}
	lengths := []int{1024}
	for n := 0; n <= 40; n++ {
		lengths = append(lengths, n)
	}
	for _, n := range lengths {
		for trial := 0; trial < 20; trial++ {
			z, l := make([]float64, 2*n), make([]float64, n)
			for i := range z {
				z[i] = draw()
			}
			for i := range l {
				l[i] = math.Abs(draw())
			}
			norm := 1 / math.Sqrt(float64(1+g.Intn(1<<20)))
			got, want := make([]complex128, n+1), make([]complex128, n+1)
			got[n], want[n] = 7, 7 // past the row: must stay untouched
			scaleRow(got, z, l, norm)
			scaleRowGo(want, z, l, norm)
			for c := range want {
				for part, pair := range [][2]float64{{real(got[c]), real(want[c])}, {imag(got[c]), imag(want[c])}} {
					if !sameBits(pair[0], pair[1]) {
						t.Fatalf("n=%d point %d part %d: kernel %v, Go loop %v", n, c, part, pair[0], pair[1])
					}
				}
			}
		}
	}
}

// sameBits reports whether a and b have the same bits, any NaN matching
// any NaN.
func sameBits(a, b float64) bool {
	if math.IsNaN(a) || math.IsNaN(b) {
		return math.IsNaN(a) && math.IsNaN(b)
	}
	return math.Float64bits(a) == math.Float64bits(b)
}
