package fft

import (
	"fmt"
	"math"
	"math/bits"
	"math/rand"
	"sync"
	"testing"
)

// The radix-2 kernel that the paired-pass kernel replaced, frozen: its
// transform, forwardPrefix, transform2D, ForwardRegionRows and columns,
// with the swap-pair table, the twiddle tables of both directions and the
// pooled column buffer they used, are copied verbatim apart from a ref
// prefix on every name and a test-local butterfly counter in place of the
// package's. The comparisons below require the package's transforms, on
// every kernel set, to reproduce it bit for bit; every golden, grf lock
// hash and bench digest depends on that.

type refTwiddleKey struct {
	n       int
	forward bool
}

var refTwiddleCache sync.Map // refTwiddleKey -> [][]complex128

func refStageTwiddles(n int, sign float64) [][]complex128 {
	key := refTwiddleKey{n: n, forward: sign < 0}
	if v, ok := refTwiddleCache.Load(key); ok {
		return v.([][]complex128)
	}
	var tables [][]complex128
	for size := 2; size <= n; size <<= 1 {
		half := size / 2
		step := 2 * math.Pi / float64(size) * sign
		wBase := complex(math.Cos(step), math.Sin(step))
		t := make([]complex128, half)
		w := complex(1, 0)
		for k := 0; k < half; k++ {
			t[k] = w
			w *= wBase
		}
		tables = append(tables, t)
	}
	v, _ := refTwiddleCache.LoadOrStore(key, tables)
	return v.([][]complex128)
}

var refBitrevCache sync.Map // int -> [][2]int32

func refBitrevPairs(n int) [][2]int32 {
	if v, ok := refBitrevCache.Load(n); ok {
		return v.([][2]int32)
	}
	shift := 64 - uint(bits.Len(uint(n-1)))
	pairs := make([][2]int32, 0, n/2)
	for i := 0; i < n; i++ {
		j := int(bits.Reverse64(uint64(i)) >> shift)
		if j > i {
			pairs = append(pairs, [2]int32{int32(i), int32(j)})
		}
	}
	v, _ := refBitrevCache.LoadOrStore(n, pairs)
	return v.([][2]int32)
}

func refForward(x []complex128) error {
	return refTransform(x, -1)
}

func refInverse(x []complex128) error {
	if err := refTransform(x, +1); err != nil {
		return err
	}
	n := complex(float64(len(x)), 0)
	for i := range x {
		x[i] /= n
	}
	return nil
}

// refTransform performs the iterative Cooley-Tukey butterfly with the given
// sign in the twiddle exponent.
func refTransform(x []complex128, sign float64) error {
	n := len(x)
	if !IsPow2(n) {
		return fmt.Errorf("fft: length %d is not a power of two", n)
	}
	// Bit-reversal permutation.
	for _, p := range refBitrevPairs(n) {
		x[p[0]], x[p[1]] = x[p[1]], x[p[0]]
	}
	tables := refStageTwiddles(n, sign)
	for si, size := 0, 2; size <= n; si, size = si+1, size<<1 {
		half := size / 2
		t := tables[si]
		// Butterflies within a stage touch disjoint index pairs, so either
		// loop order computes bit-identical results. Early stages have many
		// tiny blocks: iterating the twiddle index outermost there amortises
		// the loop bookkeeping that would otherwise dominate.
		if half <= 16 {
			for k := 0; k < half; k++ {
				w := t[k]
				for i := k; i < n; i += size {
					a := x[i]
					b := x[i+half] * w
					x[i] = a + b
					x[i+half] = a - b
				}
			}
			continue
		}
		for start := 0; start < n; start += size {
			lo := x[start : start+half : start+half]
			hi := x[start+half : start+size : start+size]
			for k, w := range t {
				a := lo[k]
				b := hi[k] * w
				lo[k] = a + b
				hi[k] = a - b
			}
		}
	}
	refPointsTransformed += int64(n) * int64(bits.Len(uint(n))-1)
	return nil
}

// refPointsTransformed stands in for the package counter, so the reference
// leaves fft.PointsTransformed to the kernel under test.
var refPointsTransformed int64

// refForwardPrefix computes the forward DFT of x but guarantees only the
// first keep outputs; positions keep..n-1 are left as garbage. A needed
// output at index k < keep of a stage's block requires only the first
// min(keep, half) entries of each half-size sub-block, so stages larger
// than keep can skip the a-b butterfly outputs (and, past the midpoint,
// whole butterflies) that nothing downstream reads. Every value that IS
// produced comes from exactly the expression the full transform runs, so
// the kept prefix is bit-for-bit identical to Forward's.
func refForwardPrefix(x []complex128, keep int) error {
	n := len(x)
	if keep >= n {
		return refForward(x)
	}
	if !IsPow2(n) {
		return fmt.Errorf("fft: length %d is not a power of two", n)
	}
	if keep <= 0 {
		return nil
	}
	for _, p := range refBitrevPairs(n) {
		x[p[0]], x[p[1]] = x[p[1]], x[p[0]]
	}
	tables := refStageTwiddles(n, -1)
	var outs int64
	for si, size := 0, 2; size <= n; si, size = si+1, size<<1 {
		half := size / 2
		t := tables[si]
		if keep >= size {
			outs += int64(n)
			// Every output of this stage feeds a needed value: run the
			// stage exactly as the full transform does.
			if half <= 16 {
				for k := 0; k < half; k++ {
					w := t[k]
					for i := k; i < n; i += size {
						a := x[i]
						b := x[i+half] * w
						x[i] = a + b
						x[i+half] = a - b
					}
				}
				continue
			}
			for start := 0; start < n; start += size {
				lo := x[start : start+half : start+half]
				hi := x[start+half : start+size : start+size]
				for k, w := range t {
					a := lo[k]
					b := hi[k] * w
					lo[k] = a + b
					hi[k] = a - b
				}
			}
			continue
		}
		// Pruned stage: per block, butterflies below fullK need both
		// outputs, those below sumK need only the a+b side, the rest feed
		// nothing that survives to the kept prefix.
		fullK := keep - half
		if fullK < 0 {
			fullK = 0
		}
		sumK := keep
		if sumK > half {
			sumK = half
		}
		outs += int64(n/size) * int64(fullK+sumK)
		for start := 0; start < n; start += size {
			lo := x[start : start+half : start+half]
			hi := x[start+half : start+size : start+size]
			for k := 0; k < fullK; k++ {
				a := lo[k]
				b := hi[k] * t[k]
				lo[k] = a + b
				hi[k] = a - b
			}
			for k := fullK; k < sumK; k++ {
				lo[k] = lo[k] + hi[k]*t[k]
			}
		}
	}
	refPointsTransformed += outs
	return nil
}

// refTransform2D applies tf to every row, then to every column.
func refTransform2D(x []complex128, rows, cols int, tf func([]complex128) error) error {
	if len(x) != rows*cols {
		return fmt.Errorf("fft: matrix buffer has %d elements, want %d", len(x), rows*cols)
	}
	if !IsPow2(rows) || !IsPow2(cols) {
		return fmt.Errorf("fft: dimensions %dx%d are not powers of two", rows, cols)
	}
	for r := 0; r < rows; r++ {
		if err := tf(x[r*cols : (r+1)*cols]); err != nil {
			return err
		}
	}
	return refColumns(x, rows, cols, rows, tf)
}

// refForwardRegionRows is the row-streaming region transform the old
// kernel ran: every row prefix-transformed and cut to its kept prefix,
// then the kept columns prefix-transformed.
func refForwardRegionRows(dst, row []complex128, rows, cols, keepRows, keepCols int, fill func(r int, row []complex128)) error {
	if !IsPow2(rows) || !IsPow2(cols) {
		return fmt.Errorf("fft: dimensions %dx%d are not powers of two", rows, cols)
	}
	if keepRows < 0 || keepRows > rows || keepCols < 0 || keepCols > cols {
		return fmt.Errorf("fft: region %dx%d outside matrix %dx%d", keepRows, keepCols, rows, cols)
	}
	if len(dst) != rows*keepCols || len(row) != cols {
		return fmt.Errorf("fft: buffers of %d and %d elements, want %d and %d", len(dst), len(row), rows*keepCols, cols)
	}
	for r := 0; r < rows; r++ {
		fill(r, row)
		if err := refForwardPrefix(row, keepCols); err != nil {
			return err
		}
		copy(dst[r*keepCols:(r+1)*keepCols], row)
	}
	return refColumns(dst, rows, keepCols, keepRows, func(col []complex128) error { return refForwardPrefix(col, keepRows) })
}

// refColScratch recycles the column-block buffer of the 2-D transforms so
// steady-state callers (the grf samplers) allocate nothing per transform.
var refColScratch = sync.Pool{New: func() any { return []complex128(nil) }}

// refColBlock is how many columns are gathered per pass: each cache line of
// the matrix holds 4 complex128s, so gathering 4 adjacent columns at once
// fetches every line exactly once, and the 4-column buffer stays hot.
const refColBlock = 4

// refColumns applies tf to every column of the rows×cols matrix x, scattering
// back only the first keepRows entries of each. Columns are gathered
// colBlock at a time into a contiguous buffer; the per-column data and
// transform are exactly those of a one-column gather, so results are
// bit-for-bit independent of the blocking.
func refColumns(x []complex128, rows, cols, keepRows int, tf func([]complex128) error) error {
	sc := refColScratch.Get().([]complex128)
	if cap(sc) < refColBlock*rows {
		sc = make([]complex128, refColBlock*rows)
	}
	sc = sc[:refColBlock*rows]
	defer refColScratch.Put(sc)
	for c0 := 0; c0 < cols; c0 += refColBlock {
		cb := min(refColBlock, cols-c0)
		for r := 0; r < rows; r++ {
			base := r*cols + c0
			for j := 0; j < cb; j++ {
				sc[j*rows+r] = x[base+j]
			}
		}
		for j := 0; j < cb; j++ {
			if err := tf(sc[j*rows : (j+1)*rows]); err != nil {
				return err
			}
		}
		for r := 0; r < keepRows; r++ {
			base := r*cols + c0
			for j := 0; j < cb; j++ {
				x[base+j] = sc[j*rows+r]
			}
		}
	}
	return nil
}

// sameBits reports whether a and b have identical bit patterns in both
// parts, with every NaN equal to every other NaN: a NaN's payload is not
// part of the contract, only that the same outputs are NaN.
func sameBits(a, b complex128) bool {
	eq := func(x, y float64) bool {
		if math.IsNaN(x) || math.IsNaN(y) {
			return math.IsNaN(x) && math.IsNaN(y)
		}
		return math.Float64bits(x) == math.Float64bits(y)
	}
	return eq(real(a), real(b)) && eq(imag(a), imag(b))
}

// firstDiff returns the first index below n at which got and want differ,
// or -1.
func firstDiff(got, want []complex128, n int) int {
	for i := 0; i < n; i++ {
		if !sameBits(got[i], want[i]) {
			return i
		}
	}
	return -1
}

// special is the pool the special-value inputs are drawn from: signed
// zeros, the smallest and largest subnormals, values at the overflow
// edge, the infinities and NaN, mixed with ordinary normals.
var special = []float64{
	0, math.Copysign(0, -1), math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64,
	0x1p-1022 - 0x1p-1074, -(0x1p-1022 - 0x1p-1074), math.MaxFloat64, -math.MaxFloat64,
	math.Inf(1), math.Inf(-1), math.NaN(), 1, -1, 0.5, 1e300, -1e-300,
}

// inputKind selects how randomInput fills a buffer.
type inputKind int

const (
	normals  inputKind = iota // every part a standard normal
	specials                  // every part drawn from special
	sparse                    // normals with about one part in eight special
)

func (k inputKind) String() string { return [...]string{"normals", "specials", "sparse"}[k] }

func randomInput(rng *rand.Rand, n int, kind inputKind) []complex128 {
	part := func() float64 {
		switch {
		case kind == specials, kind == sparse && rng.Intn(8) == 0:
			return special[rng.Intn(len(special))]
		}
		return rng.NormFloat64()
	}
	x := make([]complex128, n)
	for i := range x {
		x[i] = complex(part(), part())
	}
	return x
}

var kinds = []inputKind{normals, specials, sparse}

// TestForwardMatchesReference compares forward and inverse with the frozen
// kernel at every power-of-two length from 1 to 4096, which covers odd
// and even stage counts, on normal, special-value and mixed inputs.
func TestForwardMatchesReference(t *testing.T) {
	eachKernelSet(t, func(t *testing.T) {
		rng := rand.New(rand.NewSource(21))
		for n := 1; n <= 4096; n *= 2 {
			for _, kind := range kinds {
				in := randomInput(rng, n, kind)
				for _, inv := range []bool{false, true} {
					got := append([]complex128(nil), in...)
					want := append([]complex128(nil), in...)
					var err, refErr error
					if inv {
						err, refErr = inverse(got), refInverse(want)
					} else {
						err, refErr = forward(got), refForward(want)
					}
					if err != nil || refErr != nil {
						t.Fatalf("n=%d: %v, reference %v", n, err, refErr)
					}
					if i := firstDiff(got, want, n); i >= 0 {
						t.Fatalf("n=%d %v inverse=%v: output %d is %v, reference %v", n, kind, inv, i, got[i], want[i])
					}
				}
			}
		}
	})
}

// TestForwardPrefixMatchesReference compares every keep from 0 to n+1 of
// the prefix transform with the frozen one, at every length from 1 to 512,
// and the kept outputs only: the rest is garbage on both sides. The
// butterfly-output count must match too.
func TestForwardPrefixMatchesReference(t *testing.T) {
	eachKernelSet(t, func(t *testing.T) {
		rng := rand.New(rand.NewSource(22))
		for n := 1; n <= 512; n *= 2 {
			for _, kind := range kinds {
				in := randomInput(rng, n, kind)
				for keep := 0; keep <= n+1; keep++ {
					checkPrefix(t, in, keep)
				}
			}
		}
	})
}

// checkPrefix runs one prefix transform through the active kernels and
// the frozen reference and fails on the first kept output or count that
// differs.
func checkPrefix(t *testing.T, in []complex128, keep int) {
	t.Helper()
	n := len(in)
	got := make([]complex128, n)
	want := append([]complex128(nil), in...)
	prefix(got, in, keep, stageTwiddles(n))
	r0 := refPointsTransformed
	if err := refForwardPrefix(want, keep); err != nil {
		t.Fatal(err)
	}
	if pts, refPts := outputs(n, keep), refPointsTransformed-r0; pts != refPts {
		t.Fatalf("n=%d keep=%d: %d butterfly outputs counted, reference %d", n, keep, pts, refPts)
	}
	if i := firstDiff(got, want, min(keep, n)); i >= 0 {
		t.Fatalf("%s kernels, n=%d keep=%d: output %d is %v, reference %v", active.name, n, keep, i, got[i], want[i])
	}
}

// TestForward2DMatchesReference compares Forward2D and inverse2D with the
// frozen row-then-gathered-column transform on square and oblong shapes,
// among them single rows and single columns.
func TestForward2DMatchesReference(t *testing.T) {
	eachKernelSet(t, func(t *testing.T) {
		rng := rand.New(rand.NewSource(23))
		shapes := [][2]int{{1, 1}, {1, 8}, {8, 1}, {2, 2}, {4, 16}, {16, 4}, {32, 32}, {8, 128}, {128, 8}, {64, 256}}
		for _, sh := range shapes {
			rows, cols := sh[0], sh[1]
			for _, kind := range kinds {
				in := randomInput(rng, rows*cols, kind)
				for _, inv := range []bool{false, true} {
					got := append([]complex128(nil), in...)
					want := append([]complex128(nil), in...)
					var err, refErr error
					if inv {
						err, refErr = inverse2D(got, rows, cols), refTransform2D(want, rows, cols, refInverse)
					} else {
						err, refErr = Forward2D(got, rows, cols), refTransform2D(want, rows, cols, refForward)
					}
					if err != nil || refErr != nil {
						t.Fatalf("%dx%d: %v, reference %v", rows, cols, err, refErr)
					}
					if i := firstDiff(got, want, rows*cols); i >= 0 {
						t.Fatalf("%dx%d %v inverse=%v: output (%d,%d) is %v, reference %v",
							rows, cols, kind, inv, i/cols, i%cols, got[i], want[i])
					}
				}
			}
		}
	})
}

// TestForwardRegionRowsMatchesReference compares the streamed region
// transform with the frozen one on every kept shape of several matrices,
// and the counted butterfly outputs with the reference's.
func TestForwardRegionRowsMatchesReference(t *testing.T) {
	eachKernelSet(t, func(t *testing.T) {
		rng := rand.New(rand.NewSource(24))
		shapes := [][2]int{{1, 1}, {2, 8}, {8, 2}, {16, 16}, {32, 8}, {8, 64}}
		for _, sh := range shapes {
			rows, cols := sh[0], sh[1]
			for _, kind := range kinds {
				in := randomInput(rng, rows*cols, kind)
				for kr := 0; kr <= rows; kr++ {
					for kc := 0; kc <= cols; kc++ {
						checkRegion(t, in, rows, cols, kr, kc)
					}
				}
			}
		}
		// The paper and quick shapes: a 1024² (512²) torus cut to its
		// 256² (128²) corner.
		for _, n := range []int{512, 1024} {
			checkRegion(t, randomInput(rng, n*n, normals), n, n, n/4, n/4)
		}
	})
}

// checkRegion runs one region transform through the active kernels and
// the frozen reference and fails on the first kept output or count that
// differs.
func checkRegion(t *testing.T, in []complex128, rows, cols, kr, kc int) {
	t.Helper()
	fill := func(r int, row []complex128) { copy(row, in[r*cols:(r+1)*cols]) }
	got := make([]complex128, rows*kc)
	want := make([]complex128, rows*kc)
	p0 := PointsTransformed()
	if err := ForwardRegionRows(got, make([]complex128, cols), rows, cols, kr, kc, fill); err != nil {
		t.Fatalf("%dx%d region %dx%d: %v", rows, cols, kr, kc, err)
	}
	pts := PointsTransformed() - p0
	r0 := refPointsTransformed
	if err := refForwardRegionRows(want, make([]complex128, cols), rows, cols, kr, kc, fill); err != nil {
		t.Fatal(err)
	}
	if refPts := refPointsTransformed - r0; pts != refPts {
		t.Fatalf("%dx%d region %dx%d: %d butterfly outputs counted, reference %d", rows, cols, kr, kc, pts, refPts)
	}
	if i := firstDiff(got, want, kr*kc); i >= 0 {
		t.Fatalf("%s kernels, %dx%d region %dx%d: output (%d,%d) is %v, reference %v",
			active.name, rows, cols, kr, kc, i/kc, i%kc, got[i], want[i])
	}
}

// FuzzForwardPrefix compares a fuzzed prefix transform on every kernel set
// with the frozen one. The input bytes are the length's exponent (0–12),
// the keep, and then the float64 parts in order, eight bytes each,
// zero-padded; the seed corpus is in testdata/fuzz/FuzzForwardPrefix.
func FuzzForwardPrefix(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 3 {
			return
		}
		n := 1 << (data[0] % 13)
		keep := (int(data[1])<<8 | int(data[2])) % (n + 2)
		data = data[3:]
		in := make([]complex128, n)
		part := func(i int) float64 {
			var b [8]byte
			if i*8 < len(data) {
				copy(b[:], data[i*8:])
			}
			return math.Float64frombits(uint64(b[0]) | uint64(b[1])<<8 | uint64(b[2])<<16 | uint64(b[3])<<24 |
				uint64(b[4])<<32 | uint64(b[5])<<40 | uint64(b[6])<<48 | uint64(b[7])<<56)
		}
		for i := range in {
			in[i] = complex(part(2*i), part(2*i+1))
		}
		for _, ks := range kernelSets() {
			using(ks, func() { checkPrefix(t, in, keep) })
		}
	})
}
