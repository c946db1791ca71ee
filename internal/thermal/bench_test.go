package thermal

import (
	"math"
	"testing"

	"vasched/internal/floorplan"
)

func benchModel(b *testing.B) (*Model, []float64) {
	b.Helper()
	fp := floorplan.New20CoreCMP()
	m, err := New(fp, DefaultConfig())
	if err != nil {
		b.Fatal(err)
	}
	p := make([]float64, len(fp.Blocks))
	for i, blk := range fp.Blocks {
		p[i] = 70 * blk.R.Area()
	}
	return m, p
}

// BenchmarkSolveScratch is one steady-state solve on the 20-core
// floorplan into a reused buffer — the kernel inside every
// leakage-temperature fixed-point iteration.
func BenchmarkSolveScratch(b *testing.B) {
	m, p := benchModel(b)
	dst := make([]float64, m.n)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := m.SolveInto(dst, p); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFixedPointScratch is the full leakage-temperature loop a chip
// evaluation pays once per monitor sample, with reused scratch.
func BenchmarkFixedPointScratch(b *testing.B) {
	m, p := benchModel(b)
	sc := m.NewFixedPointScratch()
	leak := make([]float64, m.n)
	leakFn := func(temps []float64) []float64 {
		for i, tc := range temps {
			leak[i] = 0.05 * math.Pow(2, (tc-45)/40)
		}
		return leak
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, _, err := m.FixedPointWith(sc, p, leakFn, 0.01, 60); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTransientStepScratch is the per-sample cost of the
// inertia-modelling timeline (core.Config.TransientThermal), with
// caller-provided buffers.
func BenchmarkTransientStepScratch(b *testing.B) {
	m, p := benchModel(b)
	tr, err := m.NewTransient(1)
	if err != nil {
		b.Fatal(err)
	}
	temps := make([]float64, m.n)
	for i := range temps {
		temps[i] = m.Config().AmbientC
	}
	dst := make([]float64, m.n)
	rhs := make([]float64, m.n)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := tr.StepInto(dst, rhs, p, temps); err != nil {
			b.Fatal(err)
		}
		copy(temps, dst)
	}
}
