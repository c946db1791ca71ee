package stats

import (
	"math/rand"
	"testing"
)

// Each benchmark runs beside its math/rand counterpart on the same seed,
// so one run shows what the in-package generator costs against the
// library it reproduces.

var (
	benchSink float64
	rngSink   *RNG
	randSink  *rand.Rand
)

func BenchmarkNorm(b *testing.B) {
	r := NewRNG(1)
	s := 0.0
	for i := 0; i < b.N; i++ {
		s += r.Norm()
	}
	benchSink = s
}

func BenchmarkNormMathRand(b *testing.B) {
	r := rand.New(rand.NewSource(1))
	s := 0.0
	for i := 0; i < b.N; i++ {
		s += r.NormFloat64()
	}
	benchSink = s
}

// BenchmarkNormFill draws 20 normals per call, one 20-core SAnn
// proposal; ns/op divided by 20 is the cost per draw.
func BenchmarkNormFill(b *testing.B) {
	r := NewRNG(1)
	dst := make([]float64, 20)
	for i := 0; i < b.N; i++ {
		r.NormFill(dst)
	}
	benchSink = dst[0]
}

// BenchmarkNormFillRow draws 2,048 normals per call, one padded row of
// a paper-scale grf.SamplePair (1024 complex points), and reports the
// cost per draw.
func BenchmarkNormFillRow(b *testing.B) {
	r := NewRNG(1)
	dst := make([]float64, 2048)
	for i := 0; i < b.N; i++ {
		r.NormFill(dst)
	}
	benchSink = dst[0]
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(dst)), "ns/draw")
}

func BenchmarkNormFillMathRand(b *testing.B) {
	r := rand.New(rand.NewSource(1))
	dst := make([]float64, 20)
	for i := 0; i < b.N; i++ {
		for k := range dst {
			dst[k] = r.NormFloat64()
		}
	}
	benchSink = dst[0]
}

func BenchmarkNewRNG(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		rngSink = NewRNG(int64(i))
	}
}

func BenchmarkNewRNGMathRand(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		randSink = rand.New(rand.NewSource(int64(i)))
	}
}
