package grf

import (
	"testing"

	"vasched/internal/stats"
)

// benchCfg matches the QuickEnv map resolution (the paper-scale 256x256
// grid is the same code path at 4x the points).
var benchCfg = Config{Rows: 128, Cols: 128, Phi: 0.5, Sigma: 0.03}

// BenchmarkCirculantSample is the per-die map-draw hot path: two of these
// (Vth, Leff) run per generated die.
func BenchmarkCirculantSample(b *testing.B) {
	s, err := NewCirculantSampler(benchCfg)
	if err != nil {
		b.Fatal(err)
	}
	rng := stats.NewRNG(1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Sample(rng); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkNewCirculantSampler measures sampler construction — the
// spectral eigen-decomposition that the per-Config cache amortises across
// generators.
func BenchmarkNewCirculantSampler(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := NewCirculantSampler(benchCfg); err != nil {
			b.Fatal(err)
		}
	}
}

var benchCholCfg = Config{Rows: 32, Cols: 32, Phi: 0.5, Sigma: 0.03}

func BenchmarkCholeskySample(b *testing.B) {
	s, err := NewCholeskySampler(benchCholCfg)
	if err != nil {
		b.Fatal(err)
	}
	rng := stats.NewRNG(1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Sample(rng); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkNewCholeskySampler measures the O(n^3) dense factorisation that
// the per-Config factor cache amortises.
func BenchmarkNewCholeskySampler(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := NewCholeskySampler(benchCholCfg); err != nil {
			b.Fatal(err)
		}
	}
}
