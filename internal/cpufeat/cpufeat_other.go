//go:build !amd64

package cpufeat

func detect() (avx, avx2, bmi2, fma bool) { return false, false, false, false }
