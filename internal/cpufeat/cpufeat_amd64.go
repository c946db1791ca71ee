package cpufeat

// detect reads CPUID leaf 1 and requires both OSXSAVE and AVX. Only then
// does it run XGETBV, and it requires XCR0's SSE and AVX state bits,
// which say that the operating system saves the YMM registers. AVX2 is
// CPUID leaf 7's EBX bit 5 on top of that, and FMA leaf 1's ECX bit 12;
// BMI2, leaf 7's EBX bit 8, needs no operating system support.
func detect() (avx, avx2, bmi2, fma bool) {
	const osxsave, avxBit, fmaBit, avx2Bit, bmi2Bit = 1 << 27, 1 << 28, 1 << 12, 1 << 5, 1 << 8
	top, _, _, _ := cpuid(0, 0)
	var ebx7 uint32
	if top >= 7 {
		_, ebx7, _, _ = cpuid(7, 0)
	}
	bmi2 = ebx7&bmi2Bit != 0
	_, _, ecx, _ := cpuid(1, 0)
	if ecx&(osxsave|avxBit) != osxsave|avxBit || xcr0()&6 != 6 {
		return false, false, bmi2, false
	}
	return true, ebx7&avx2Bit != 0, bmi2, ecx&fmaBit != 0
}

// Implemented in cpufeat_amd64.s.
func cpuid(leaf, sub uint32) (eax, ebx, ecx, edx uint32)
func xcr0() uint32
