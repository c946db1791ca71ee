package vmath

import (
	"math"
	"math/rand"
	"testing"
)

// leakageArgs returns n arguments like one transient tick's leakage
// exponentials: pairs of a law exponent, about −8 to −2, and a
// random-variation uplift exponent below 1.
func leakageArgs(n int) []float64 {
	g := rand.New(rand.NewSource(1))
	x := make([]float64, n)
	for i := range x {
		if i%2 == 0 {
			x[i] = -8 + 6*g.Float64()
		} else {
			x[i] = g.Float64()
		}
	}
	return x
}

// BenchmarkExp times Exp over a tick's 200 leakage arguments.
func BenchmarkExp(b *testing.B) {
	src := leakageArgs(200)
	dst := make([]float64, len(src))
	for i := 0; i < b.N; i++ {
		Exp(dst, src)
	}
}

// BenchmarkExpMath is BenchmarkExp's twin: a loop over math.Exp.
func BenchmarkExpMath(b *testing.B) {
	src := leakageArgs(200)
	dst := make([]float64, len(src))
	for i := 0; i < b.N; i++ {
		for k, x := range src {
			dst[k] = math.Exp(x)
		}
	}
}
