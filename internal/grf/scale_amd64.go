//go:build !race

package grf

import "vasched/internal/cpufeat"

// scaleKernel reports whether scaleRow runs its AVX2 kernel, chosen once
// per process. Race builds leave the assembly out (scale_other.go): the
// race detector does not see its memory accesses.
var scaleKernel = cpufeat.AVX2()

// scaleRowAsm is scaleRowGo for n points, a multiple of 4, four points
// per step. Each lane rounds z·l and then (z·l)·norm, the two products of
// the Go loop, with no fused multiply-add, so every part keeps its bits.
//
//go:noescape
func scaleRowAsm(row *complex128, z, l *float64, n int, norm float64)

// scaleRow sets row[c] to the white noise z[2c] + z[2c+1]i scaled by
// l[c]·norm, as scaleRowGo does; len(z) must be 2·len(l) and len(row)
// at least len(l). A length that is not a multiple of four leaves its
// last points to the Go loop.
func scaleRow(row []complex128, z, l []float64, norm float64) {
	n := len(l) &^ 3
	if !scaleKernel || n == 0 || len(z) != 2*len(l) || len(row) < len(l) {
		scaleRowGo(row, z, l, norm)
		return
	}
	scaleRowAsm(&row[0], &z[0], &l[0], n, norm)
	scaleRowGo(row[n:], z[2*n:], l[n:], norm)
}
