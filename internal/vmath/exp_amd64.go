//go:build !race

package vmath

import (
	"math"

	"vasched/internal/cpufeat"
)

// The kernel runs the FMA path of Go's own amd64 math.Exp
// ($GOROOT/src/math/exp_amd64.s, after Shibata's SIMD-oriented method)
// on four lanes, one instruction per scalar instruction of that path:
// x·log2e rounded to the nearest integer k, the two fused reductions by
// k·ln2 (upper and lower halves), the scaling by 1/16, the fused Horner
// chain of the Taylor polynomial, the four squarings back as r·(r+2),
// the last with a fused +1, and the product with 2^k. Each operation
// rounds as the scalar one does, so each lane has math.Exp's bits.
//
// The kernel covers only arguments in [−700, 700]: there k + 1023 lies
// in [13, 2033], so 2^k is a normal number and the scalar path takes
// neither its overflow nor its denormal branch. It stops at the first
// group of four with a lane outside that range or a NaN, and expKernel
// finishes that group with math.Exp.
//
// math.Exp takes its FMA path only when the runtime's internal/cpu
// reports AVX and FMA, which GODEBUG=cpu.fma=off (or cpu.avx=off or
// cpu.all=off) turns off while CPUID still lists them. The kernel is
// therefore used only after it has matched math.Exp bit for bit on
// expProbe, a grid where the two scalar paths differ at several points.

// useKernel reports whether Exp runs the kernel, chosen once per process.
// Race builds leave the assembly out (exp_other.go): the race detector
// does not see its memory accesses.
var useKernel = cpufeat.AVX2() && cpufeat.FMA() && probeMatches()

// probeMatches runs the kernel on expProbe and reports whether every
// value has math.Exp's bits.
func probeMatches() bool {
	x := expProbe()
	got := make([]float64, len(x))
	if expAsm(&got[0], &x[0], len(x)) != len(x) {
		return false
	}
	for i, xi := range x {
		if math.Float64bits(got[i]) != math.Float64bits(math.Exp(xi)) {
			return false
		}
	}
	return true
}

// expAsm sets dst[i] = math.Exp(src[i]) for i < n, a multiple of 4, four
// elements per step, and returns how many elements it set: n, or the
// index of the first group of four with an element outside [−700, 700]
// or a NaN.
//
//go:noescape
func expAsm(dst, src *float64, n int) int

// expKernel sets the longest prefix of dst whose length is a multiple of
// 4, as Exp would, and returns its length. Groups the kernel refuses are
// set from math.Exp.
func expKernel(dst, src []float64) int {
	if !useKernel {
		return 0
	}
	n := len(src) &^ 3
	for i := 0; i < n; {
		i += expAsm(&dst[i], &src[i], n-i)
		if i < n {
			for j := i; j < i+4; j++ {
				dst[j] = math.Exp(src[j])
			}
			i += 4
		}
	}
	return n
}
