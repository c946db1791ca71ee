package cpufeat

import (
	"os"
	"runtime"
	"slices"
	"strings"
	"testing"
)

// TestDetectMatchesLinux checks the detection against the flags Linux
// lists in /proc/cpuinfo, which name avx, avx2 and fma only once the
// kernel has enabled the YMM state.
func TestDetectMatchesLinux(t *testing.T) {
	if AVX2() && !AVX() {
		t.Fatal("AVX2 reported without AVX")
	}
	if FMA() && !AVX() {
		t.Fatal("FMA reported without AVX")
	}
	if runtime.GOARCH != "amd64" {
		if AVX() || AVX2() || BMI2() || FMA() {
			t.Fatalf("GOARCH=%s reports AVX %v, AVX2 %v, BMI2 %v, FMA %v", runtime.GOARCH, AVX(), AVX2(), BMI2(), FMA())
		}
		return
	}
	flags, ok := linuxFlags()
	if !ok {
		t.Skip("no CPU flags to check the detection against")
	}
	if got, want := AVX(), slices.Contains(flags, "avx"); got != want {
		t.Errorf("AVX() = %v, /proc/cpuinfo lists avx: %v", got, want)
	}
	if got, want := AVX2(), slices.Contains(flags, "avx2"); got != want {
		t.Errorf("AVX2() = %v, /proc/cpuinfo lists avx2: %v", got, want)
	}
	if got, want := BMI2(), slices.Contains(flags, "bmi2"); got != want {
		t.Errorf("BMI2() = %v, /proc/cpuinfo lists bmi2: %v", got, want)
	}
	if got, want := FMA(), slices.Contains(flags, "fma"); got != want {
		t.Errorf("FMA() = %v, /proc/cpuinfo lists fma: %v", got, want)
	}
}

// linuxFlags returns the first CPU's flags in /proc/cpuinfo; ok is false
// where there is no such line.
func linuxFlags() (flags []string, ok bool) {
	if runtime.GOOS != "linux" {
		return nil, false
	}
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return nil, false
	}
	for _, line := range strings.Split(string(b), "\n") {
		if key, list, found := strings.Cut(line, ":"); found && strings.TrimSpace(key) == "flags" {
			return strings.Fields(list), true
		}
	}
	return nil, false
}
