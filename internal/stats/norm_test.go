package stats

import (
	"math"
	"runtime"
	"testing"

	"vasched/internal/cpufeat"
)

// TestActiveNormKernel pins which loop each build runs: the AVX2 kernel
// on amd64 without the race detector when the CPU and the operating
// system support AVX2 and the CPU has BMI2, else the Go loop.
func TestActiveNormKernel(t *testing.T) {
	want := runtime.GOARCH == "amd64" && !raceEnabled && cpufeat.AVX2() && cpufeat.BMI2()
	if normKernel != want {
		t.Fatalf("race=%v GOARCH=%s AVX2=%v BMI2=%v: kernel in use %v, want %v",
			raceEnabled, runtime.GOARCH, cpufeat.AVX2(), cpufeat.BMI2(), normKernel, want)
	}
}

// fillOnKernel fills dst as NormFill does, but on the kernel whatever
// dst's length; the Go loop draws only what the kernel leaves.
func fillOnKernel(r *RNG, dst []float64) {
	r.normFill(dst[r.normFillKernel(dst):])
}

// twinLengths are the fill lengths the twin tests run: the kernel's
// group and minimum, a SAnn proposal, the register's tap and length, one
// padded row of a paper-scale transform, and several rows' worth.
var twinLengths = []int{1, 3, 4, 5, 20, 63, 64, 65, 272, 273, 606, 607, 608, 2048, 5000}

// TestNormKernelMatchesGoLoop runs the kernel and its Go twin from the
// same register, on 1,000 seeds and every twin length, each seed's fills
// starting at a different place in the ring, and requires the same bits
// in every value and the same next Int63.
func TestNormKernelMatchesGoLoop(t *testing.T) {
	if !normKernel {
		t.Log("no kernel in this build: the Go loop is compared with itself")
	}
	got, want := make([]float64, 5000), make([]float64, 5000)
	for seed := int64(0); seed < 1000; seed++ {
		r := NewRNG(seed)
		for k := seed % rngLen; k > 0; k-- {
			r.Int63()
		}
		for _, n := range twinLengths {
			twin := *r
			fillOnKernel(r, got[:n])
			twin.normFill(want[:n])
			for k := range want[:n] {
				if math.Float64bits(got[k]) != math.Float64bits(want[k]) {
					t.Fatalf("seed %d, fill of %d: value %d is %v on the kernel, %v on the Go loop", seed, n, k, got[k], want[k])
				}
			}
			if a, b := r.Int63(), twin.Int63(); a != b {
				t.Fatalf("seed %d, fill of %d: next Int63 %d on the kernel, %d on the Go loop", seed, n, a, b)
			}
		}
	}
}
