//go:build !amd64 || race

package vmath

// This build has no exponential kernel: other architectures have no such
// assembly, and race builds leave it out because the race detector does
// not see the memory accesses of assembly code. Exp loops over math.Exp.
const useKernel = false

func expKernel(dst, src []float64) int { return 0 }
