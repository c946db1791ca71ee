package thermal

import (
	"math"
	"testing"

	"vasched/internal/floorplan"
	"vasched/internal/stats"
)

// TestSolveIntoMatchesSolve locks buffer reuse out of the result:
// reusing one destination buffer across many solves must give bit-for-bit
// the same temperatures as solve, which solves into a fresh buffer, and
// every reused-buffer solve must still satisfy the steady-state energy
// balance to < 1e-9 relative.
func TestSolveIntoMatchesSolve(t *testing.T) {
	fp := floorplan.New20CoreCMP()
	m, err := New(fp, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	rng := stats.NewRNG(99)
	dst := make([]float64, m.n)
	p := make([]float64, m.n)
	for trial := 0; trial < 50; trial++ {
		total := 0.0
		for i, b := range fp.Blocks {
			p[i] = (20 + 60*rng.Float64()) * b.R.Area()
			total += p[i]
		}
		want := solve(t, m, p)
		if err := m.SolveInto(dst, p); err != nil {
			t.Fatal(err)
		}
		out := 0.0
		for i, tc := range dst {
			if tc != want[i] {
				t.Fatalf("trial %d block %d: reused buffer %v != fresh buffer %v", trial, i, tc, want[i])
			}
			out += m.gVert[i] * (tc - m.cfg.AmbientC)
		}
		if rel := math.Abs(out-total) / total; rel > 1e-9 {
			t.Fatalf("trial %d: energy balance residual %v with reused scratch", trial, rel)
		}
	}
}

// TestFixedPointWithMatchesFixedPoint verifies the leakage fixed point is
// bit-for-bit unchanged when run with reused scratch instead of the fresh
// buffers fixedPoint passes (a nil scratch).
func TestFixedPointWithMatchesFixedPoint(t *testing.T) {
	fp := floorplan.New20CoreCMP()
	m, err := New(fp, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	rng := stats.NewRNG(7)
	sc := m.NewFixedPointScratch()
	leakBuf := make([]float64, m.n)
	leakFn := func(temps []float64) []float64 {
		for i, tc := range temps {
			leakBuf[i] = 0.05 * math.Pow(2, (tc-45)/40)
		}
		return leakBuf
	}
	p := make([]float64, m.n)
	for trial := 0; trial < 20; trial++ {
		for i, b := range fp.Blocks {
			p[i] = (10 + 70*rng.Float64()) * b.R.Area()
		}
		wantT, _, wantIt := fixedPoint(t, m, p, leakFn, 0.01, 60)
		gotT, _, gotIt, err := m.FixedPointWith(sc, p, leakFn, 0.01, 60)
		if err != nil {
			t.Fatal(err)
		}
		if gotIt != wantIt {
			t.Fatalf("trial %d: %d iterations with scratch, %d without", trial, gotIt, wantIt)
		}
		for i := range wantT {
			if gotT[i] != wantT[i] {
				t.Fatalf("trial %d block %d: reused scratch %v != fresh buffers %v", trial, i, gotT[i], wantT[i])
			}
		}
	}
}

// TestStepIntoMatchesStep verifies the transient stepper is bit-for-bit
// unchanged when its destination and right-hand-side buffers are reused
// across steps instead of the fresh ones step passes.
func TestStepIntoMatchesStep(t *testing.T) {
	fp := floorplan.New20CoreCMP()
	m, err := New(fp, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	tr, err := m.NewTransient(1)
	if err != nil {
		t.Fatal(err)
	}
	rng := stats.NewRNG(13)
	p := make([]float64, m.n)
	prev := make([]float64, m.n)
	for i := range prev {
		prev[i] = m.cfg.AmbientC
	}
	dst := make([]float64, m.n)
	rhs := make([]float64, m.n)
	for k := 0; k < 30; k++ {
		for i, b := range fp.Blocks {
			p[i] = (5 + 80*rng.Float64()) * b.R.Area()
		}
		want := step(t, tr, p, prev)
		if err := tr.StepInto(dst, rhs, p, prev); err != nil {
			t.Fatal(err)
		}
		for i := range want {
			if dst[i] != want[i] {
				t.Fatalf("step %d block %d: reused buffers %v != fresh buffers %v", k, i, dst[i], want[i])
			}
		}
		copy(prev, want)
	}
}
