//go:build !race

package vmath

import (
	"math"
	"testing"
)

// TestKernelStopsAtGroupOutsideRange checks expAsm's guard: it sets the
// groups before the first one holding an argument outside [−700, 700]
// or a NaN, and stops there.
func TestKernelStopsAtGroupOutsideRange(t *testing.T) {
	if !useKernel {
		t.Skip("no kernel in this build")
	}
	for _, bad := range []float64{math.Nextafter(700, 800), math.Nextafter(-700, -800), 709.9, math.NaN(), math.Inf(-1)} {
		for pos := 0; pos < 16; pos++ {
			src := make([]float64, 16)
			for i := range src {
				src[i] = float64(i) - 8
			}
			src[pos] = bad
			dst := make([]float64, 16)
			if got, want := expAsm(&dst[0], &src[0], 16), pos&^3; got != want {
				t.Fatalf("%v at %d: kernel set %d elements, want %d", bad, pos, got, want)
			}
		}
	}
	src := []float64{700, -700, 0, 1}
	dst := make([]float64, 4)
	if got := expAsm(&dst[0], &src[0], 4); got != 4 {
		t.Fatalf("kernel refused the range's ends: set %d of 4", got)
	}
}
