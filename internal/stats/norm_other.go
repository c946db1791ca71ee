//go:build !amd64 || race

package stats

// This build has no normal-draw kernel: other architectures have no such
// assembly, and race builds leave it out because the race detector does
// not see the memory accesses of assembly code. NormFill runs its Go loop.
const (
	normKernel    = false
	normKernelMin = 0
)

func (r *RNG) normFillKernel([]float64) int { return 0 }
