//go:build race

package fft

// raceEnabled reports whether this test binary was built with the race
// detector, which leaves the AVX kernels out (avx_other.go):
// TestActiveKernels then requires the Go loops.
const raceEnabled = true
