// Package vmath evaluates the standard library's elementary functions
// over slices, with math's bits in every element.
package vmath

import "math"

// Exp sets dst[i] = math.Exp(src[i]) for every i of src, bit for bit.
// dst must be at least as long as src; it may be src itself but must not
// overlap it otherwise. On amd64 CPUs with AVX2 and FMA an assembly
// kernel computes four elements per step (see exp_amd64.go); every other
// element, and every element of other builds, comes from math.Exp.
func Exp(dst, src []float64) {
	dst = dst[:len(src)]
	for i := expKernel(dst, src); i < len(src); i++ {
		dst[i] = math.Exp(src[i])
	}
}

// expProbeLen is the number of points of expProbe.
const expProbeLen = 64

// expProbe returns a grid of expProbeLen points over [−700, 700], both
// ends included, on which the kernel must match math.Exp before it is
// used (exp_amd64.go).
func expProbe() []float64 {
	x := make([]float64, expProbeLen)
	for i := range x {
		x[i] = -700 + 1400*float64(i)/(expProbeLen-1)
	}
	return x
}
