//go:build !amd64 || race

package grf

// This build has no scaling kernel: other architectures have no such
// assembly, and race builds leave it out because the race detector does
// not see the memory accesses of assembly code.
const scaleKernel = false

func scaleRow(row []complex128, z, l []float64, norm float64) { scaleRowGo(row, z, l, norm) }
