// Package cpufeat reports which x86 extensions the CPU has and the
// operating system enables, so that packages with assembly kernels can
// choose them once per process. Every answer is false on other
// architectures.
package cpufeat

// AVX reports whether the CPU has AVX and the operating system saves the
// YMM registers.
func AVX() bool { return avx }

// AVX2 reports whether AVX is usable and the CPU also has AVX2.
func AVX2() bool { return avx2 }

// BMI2 reports whether the CPU has the BMI2 bit-manipulation
// instructions, such as SHRX.
func BMI2() bool { return bmi2 }

// FMA reports whether AVX is usable and the CPU also has the fused
// multiply-add instructions (FMA3).
func FMA() bool { return fma }

var avx, avx2, bmi2, fma = detect()
