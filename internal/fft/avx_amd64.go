//go:build !race

package fft

import "vasched/internal/cpufeat"

// avxKernels is the AVX kernel set, or nil when the CPU or the operating
// system does not support AVX. Each kernel runs its Go twin's butterflies
// two to a 256-bit register, one complex128 per 128-bit lane, and in each
// lane exactly bf2's operations: the four products of b·w rounded one by
// one, VADDSUBPD for the product's real difference and imaginary sum, and
// VADDPD and VSUBPD for a ± v, with no fused multiply-add. Every output
// therefore has the bits of the Go loop's. A shape that does not split
// into pairs of butterflies leaves its odd part to the Go loop.
var avxKernels = newAVXKernels()

func newAVXKernels() *kernelSet {
	if !cpufeat.AVX() {
		return nil
	}
	return &kernelSet{"avx", first4AVX, pass4AVX, sum4AVX, pass4RowsAVX, sum4RowsAVX}
}

// Implemented in avx_amd64.s. The kernels trust their arguments' shapes:
// the wrappers below hand any shape outside them to the Go twin, whose
// bounds checks then apply.
func first4Asm(x, src []complex128, rev []int32, t0, t1 []complex128)
func pass4Asm(x []complex128, h int, ta, tb []complex128)
func sum4Asm(x []complex128, h, keep int, ta, tb []complex128)
func rows4Asm(r0, r1, r2, r3 []complex128, w1, w2, w3 complex128)
func rowSums4Asm(r0, r1, r2, r3 []complex128, w1, w2 complex128)

// first4AVX is first4 with the groups of r and r+1 in one register. An
// n = 4 transform has one group and runs on the Go loop. As for first4,
// rev is the n-point bit-reversal table: the kernel writes the four
// points at each of its first n/4 entries.
func first4AVX(x, src []complex128, rev []int32, t0, t1 []complex128) {
	q := len(x) / 4
	if q%2 != 0 {
		first4(x, src, rev, t0, t1)
		return
	}
	first4Asm(x, src[:4*q], rev[:q], t0[:1], t1[:2])
}

// pass4AVX is pass4 with k and k+1 in one register. An odd h, which no
// transform's pair pass has, runs on the Go loop.
func pass4AVX(x []complex128, h int, ta, tb []complex128) {
	if h%2 != 0 || len(x)%(4*h) != 0 {
		pass4(x, h, ta, tb)
		return
	}
	pass4Asm(x, h, ta[:h], tb[:2*h])
}

// sum4AVX is sum4 with k and k+1 in one register. With an odd keep, the
// Go loop computes the last sum of every block.
func sum4AVX(x []complex128, h, keep int, ta, tb []complex128) {
	if keep > h || len(x)%(4*h) != 0 {
		sum4(x, h, keep, ta, tb)
		return
	}
	even := keep &^ 1
	if even > 0 {
		sum4Asm(x, h, even, ta[:even], tb[:even])
	}
	if even < keep {
		sum4(x[even:], h, keep-even, ta[even:], tb[even:])
	}
}

// pass4RowsAVX is pass4Rows with columns c and c+1 in one register. An
// odd width does not split into column pairs and runs on the Go loop.
func pass4RowsAVX(m []complex128, w, h int, ta, tb []complex128) {
	if w%2 != 0 {
		pass4Rows(m, w, h, ta, tb)
		return
	}
	rows := len(m) / w
	for b := 0; b < rows; b += 4 * h {
		for k := 0; k < h; k++ {
			i := (b + k) * w
			rows4Asm(m[i:i+w], m[i+h*w:][:w], m[i+2*h*w:][:w], m[i+3*h*w:][:w], ta[k], tb[k], tb[h+k])
		}
	}
}

// sum4RowsAVX is sum4Rows with columns c and c+1 in one register. An odd
// width runs on the Go loop.
func sum4RowsAVX(m []complex128, w, h, keep int, ta, tb []complex128) {
	if w%2 != 0 {
		sum4Rows(m, w, h, keep, ta, tb)
		return
	}
	rows := len(m) / w
	for b := 0; b < rows; b += 4 * h {
		for k := 0; k < keep; k++ {
			i := (b + k) * w
			rowSums4Asm(m[i:i+w], m[i+h*w:][:w], m[i+2*h*w:][:w], m[i+3*h*w:][:w], ta[k], tb[k])
		}
	}
}
