//go:build !amd64 || race

package fft

// avxKernels is nil: this build has no AVX kernels. Other architectures
// have no such assembly, and race builds leave it out because the race
// detector does not see the memory accesses of assembly code, so they run
// the Go loops and the detector sees every access to the transform
// buffers.
var avxKernels *kernelSet
