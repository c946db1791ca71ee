package fft

import (
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"slices"
	"strings"
	"testing"
)

// kernelSets returns the kernel sets this build can run on this CPU: the
// Go loops, and the AVX kernels where they are built in and supported.
func kernelSets() []*kernelSet {
	if avxKernels == nil {
		return []*kernelSet{goKernels}
	}
	return []*kernelSet{goKernels, avxKernels}
}

// using runs f with every transform on the kernel set ks.
func using(ks *kernelSet, f func()) {
	defer func(old *kernelSet) { active = old }(active)
	active = ks
	f()
}

// eachKernelSet runs test once per kernel set, as a subtest named after
// the set.
func eachKernelSet(t *testing.T, test func(t *testing.T)) {
	for _, ks := range kernelSets() {
		t.Run(ks.name, func(t *testing.T) { using(ks, func() { test(t) }) })
	}
}

// forward, inverse and inverse2D are the in-place 1-D transforms and the
// normalised inverse 2-D transform. No program needs them, so the tests
// build them from the package's passes; the inverse direction's twiddle
// tables are the frozen reference's.

func forward(x []complex128) error { return transform(x, -1) }

func inverse(x []complex128) error {
	if err := transform(x, +1); err != nil {
		return err
	}
	normalise(x, len(x))
	return nil
}

// transform computes the whole transform of x in place, reading the input
// from a copy.
func transform(x []complex128, sign float64) error {
	n := len(x)
	if !IsPow2(n) {
		return fmt.Errorf("fft: length %d is not a power of two", n)
	}
	tw := stageTwiddles(n)
	if sign > 0 {
		tw = refStageTwiddles(n, sign)
	}
	prefix(x, append([]complex128(nil), x...), n, tw)
	return nil
}

// inverse2D divides by cols after the row stage and by rows after the
// column stage, as two 1-D inverse calls do.
func inverse2D(x []complex128, rows, cols int) error {
	if len(x) != rows*cols {
		return fmt.Errorf("fft: matrix buffer has %d elements, want %d", len(x), rows*cols)
	}
	if !IsPow2(rows) || !IsPow2(cols) {
		return fmt.Errorf("fft: dimensions %dx%d are not powers of two", rows, cols)
	}
	rowStage(x, rows, cols, refStageTwiddles(cols, +1))
	normalise(x, cols)
	colStage(x, rows, cols, rows, refStageTwiddles(rows, +1))
	normalise(x, rows)
	return nil
}

// normalise divides every entry of x by n.
func normalise(x []complex128, n int) {
	d := complex(float64(n), 0)
	for i := range x {
		x[i] /= d
	}
}

// TestActiveKernels pins which kernels each build runs: the Go loops under
// the race detector and on other architectures, and on amd64 the AVX
// kernels exactly when the CPU and the operating system support AVX. On
// Linux the kernel's flags in /proc/cpuinfo are the independent witness:
// Linux lists avx only once it has enabled the YMM state.
func TestActiveKernels(t *testing.T) {
	wantAVX := false
	if runtime.GOARCH == "amd64" && !raceEnabled {
		avx, ok := linuxReportsAVX()
		if !ok {
			t.Logf("no CPU flags to check the detection against; running the %s kernels", active.name)
			avx = avxKernels != nil
		}
		wantAVX = avx
	}
	want := goKernels
	if wantAVX {
		want = avxKernels
	}
	if (avxKernels != nil) != wantAVX || active != want {
		t.Fatalf("race=%v GOARCH=%s: running the %s kernels, AVX kernels present: %v, want AVX: %v",
			raceEnabled, runtime.GOARCH, active.name, avxKernels != nil, wantAVX)
	}
}

// linuxReportsAVX reports whether the first CPU's flags line in
// /proc/cpuinfo lists avx; ok is false where there is no such line.
func linuxReportsAVX() (avx, ok bool) {
	if runtime.GOOS != "linux" {
		return false, false
	}
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return false, false
	}
	for _, line := range strings.Split(string(b), "\n") {
		if key, flags, found := strings.Cut(line, ":"); found && strings.TrimSpace(key) == "flags" {
			return slices.Contains(strings.Fields(flags), "avx"), true
		}
	}
	return false, false
}

// keepsBelow returns the keeps a sum pass over half-blocks of h points is
// tried with: 1 to 9, h−1 and h, the odd ones leaving a tail.
func keepsBelow(h int) []int {
	var keeps []int
	for k := 1; k <= min(9, h); k++ {
		keeps = append(keeps, k)
	}
	for _, k := range []int{h - 1, h} {
		if k > 9 {
			keeps = append(keeps, k)
		}
	}
	return keeps
}

// twin runs pass with each kernel set on its own copy of x and fails
// unless both copies end with the same bits at every point, NaN matching
// NaN. Points a pass does not write keep their input on both sides.
func twin(t *testing.T, what string, x []complex128, pass func(ks *kernelSet, x []complex128)) {
	t.Helper()
	g, a := slices.Clone(x), slices.Clone(x)
	pass(goKernels, g)
	pass(avxKernels, a)
	if i := firstDiff(a, g, len(x)); i >= 0 {
		t.Fatalf("%s: point %d is %v on AVX, %v on Go", what, i, a[i], g[i])
	}
}

// TestAVXKernelsMatchGoTwins calls every AVX kernel and its Go twin
// directly on the same buffers and twiddles: at every h from 1 to 512 over
// one and three blocks, with keeps 1 to 9, h−1 and h, with matrix widths
// 1 to 9, and first4 at every length from 4 to 4096, on the normal,
// special-value and mixed inputs of the reference tests. The twiddles are
// drawn like the inputs, so special values reach every product.
func TestAVXKernelsMatchGoTwins(t *testing.T) {
	if avxKernels == nil {
		t.Skip("no AVX kernels in this build or on this CPU")
	}
	rng := rand.New(rand.NewSource(25))
	for _, kind := range kinds {
		for n := 4; n <= 4096; n *= 2 {
			src := randomInput(rng, n, kind)
			t0, t1 := randomInput(rng, 1, kind), randomInput(rng, 2, kind)
			twin(t, fmt.Sprintf("first4 n=%d %v", n, kind), randomInput(rng, n, kind), func(ks *kernelSet, x []complex128) {
				ks.first4(x, src, bitrev(n), t0, t1)
			})
		}
		for h := 1; h <= 512; h *= 2 {
			ta, tb := randomInput(rng, h, kind), randomInput(rng, 2*h, kind)
			for _, blocks := range []int{1, 3} {
				n := 4 * h * blocks
				what := fmt.Sprintf("h=%d n=%d %v", h, n, kind)
				x := randomInput(rng, n, kind)
				twin(t, "pass4 "+what, x, func(ks *kernelSet, x []complex128) { ks.pass4(x, h, ta, tb) })
				for _, keep := range keepsBelow(h) {
					twin(t, fmt.Sprintf("sum4 keep=%d %s", keep, what), x, func(ks *kernelSet, x []complex128) {
						ks.sum4(x, h, keep, ta, tb)
					})
				}
				for w := 1; w <= 9; w++ {
					m := randomInput(rng, n*w, kind)
					twin(t, fmt.Sprintf("pass4Rows w=%d %s", w, what), m, func(ks *kernelSet, m []complex128) {
						ks.pass4Rows(m, w, h, ta, tb)
					})
					for _, keep := range keepsBelow(h) {
						twin(t, fmt.Sprintf("sum4Rows w=%d keep=%d %s", w, keep, what), m, func(ks *kernelSet, m []complex128) {
							ks.sum4Rows(m, w, h, keep, ta, tb)
						})
					}
				}
			}
		}
	}
}

// TestEachAVXKernelMatchesReference runs the frozen reference comparisons
// with one AVX kernel at a time among the Go loops, so that each kernel
// on its own reproduces the radix-2 network: the row-stage kernels on
// prefix transforms of every length from 1 to 4096 and the column-stage
// ones on region transforms of every row count from 1 to 2048, with the
// widths and keeps of the twin test.
func TestEachAVXKernelMatchesReference(t *testing.T) {
	if avxKernels == nil {
		t.Skip("no AVX kernels in this build or on this CPU")
	}
	rowStage := func(t *testing.T, rng *rand.Rand, kind inputKind) {
		for n := 1; n <= 4096; n *= 2 {
			in := randomInput(rng, n, kind)
			for _, keep := range append(keepsBelow(n), n/4, n/2) {
				checkPrefix(t, in, keep)
			}
		}
	}
	colStage := func(t *testing.T, rng *rand.Rand, kind inputKind) {
		const cols = 16
		for rows := 1; rows <= 2048; rows *= 2 {
			in := randomInput(rng, rows*cols, kind)
			for kc := 1; kc <= 9; kc++ {
				for _, kr := range keepsBelow(rows) {
					checkRegion(t, in, rows, cols, kr, kc)
				}
			}
		}
	}
	kernels := []struct {
		name  string
		swap  func(ks *kernelSet)
		check func(t *testing.T, rng *rand.Rand, kind inputKind)
	}{
		{"first4", func(ks *kernelSet) { ks.first4 = avxKernels.first4 }, rowStage},
		{"pass4", func(ks *kernelSet) { ks.pass4 = avxKernels.pass4 }, rowStage},
		{"sum4", func(ks *kernelSet) { ks.sum4 = avxKernels.sum4 }, rowStage},
		{"pass4Rows", func(ks *kernelSet) { ks.pass4Rows = avxKernels.pass4Rows }, colStage},
		{"sum4Rows", func(ks *kernelSet) { ks.sum4Rows = avxKernels.sum4Rows }, colStage},
	}
	for _, k := range kernels {
		t.Run(k.name, func(t *testing.T) {
			ks := *goKernels
			ks.name = "go with AVX " + k.name
			k.swap(&ks)
			using(&ks, func() {
				rng := rand.New(rand.NewSource(26))
				for _, kind := range kinds {
					k.check(t, rng, kind)
				}
			})
		})
	}
}
