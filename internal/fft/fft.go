// Package fft implements radix-2 complex fast Fourier transforms in one and
// two dimensions. It exists to support circulant-embedding sampling of
// Gaussian random fields in package grf; the API is therefore minimal but
// the transforms are exact (up to floating point) and unit-normalised so
// that Inverse(Forward(x)) == x.
package fft

import (
	"fmt"
	"math"
	"math/bits"
	"sync"
	"sync/atomic"
)

// pointsTransformed counts butterfly outputs written by every transform in
// the process: a full n-point FFT adds n*log2(n), a prefix-pruned one adds
// only what it computed. One atomic add per 1-D transform keeps the cost
// invisible next to the butterflies themselves. The batched die pipeline's
// speedup gate reads this to prove — deterministically, immune to
// wall-clock noise — how much transform work pruning removes per die.
var pointsTransformed atomic.Int64

// PointsTransformed returns the cumulative butterfly-output count.
func PointsTransformed() int64 { return pointsTransformed.Load() }

// IsPow2 reports whether n is a positive power of two.
func IsPow2(n int) bool { return n > 0 && n&(n-1) == 0 }

// NextPow2 returns the smallest power of two >= n. It panics for n <= 0.
func NextPow2(n int) int {
	if n <= 0 {
		panic("fft: NextPow2 of non-positive size")
	}
	if IsPow2(n) {
		return n
	}
	return 1 << bits.Len(uint(n))
}

// Forward computes the in-place forward DFT of x, whose length must be a
// power of two. The convention is X[k] = sum_j x[j] exp(-2πi jk/n).
func Forward(x []complex128) error {
	return transform(x, -1)
}

// Inverse computes the in-place inverse DFT of x (including the 1/n
// normalisation), whose length must be a power of two.
func Inverse(x []complex128) error {
	if err := transform(x, +1); err != nil {
		return err
	}
	n := complex(float64(len(x)), 0)
	for i := range x {
		x[i] /= n
	}
	return nil
}

// twiddleKey identifies one cached twiddle-table set.
type twiddleKey struct {
	n       int
	forward bool
}

// twiddleCache holds, per (length, direction), one table per butterfly
// stage. Tables are immutable after construction and shared by every
// transform of that size in the process — the grf samplers call these
// transforms once or twice per generated die, so the trigonometric
// recurrences are paid once instead of per call.
var twiddleCache sync.Map // twiddleKey -> [][]complex128

// stageTwiddles returns the per-stage twiddle factors for an n-point
// transform. Each stage table is built with the exact same repeated-
// multiplication recurrence the butterfly loop historically ran (w starts
// at 1 and is multiplied by wBase), so cached transforms are bit-for-bit
// identical to the uncached ones.
func stageTwiddles(n int, sign float64) [][]complex128 {
	key := twiddleKey{n: n, forward: sign < 0}
	if v, ok := twiddleCache.Load(key); ok {
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
	v, _ := twiddleCache.LoadOrStore(key, tables)
	return v.([][]complex128)
}

// bitrevCache holds, per length, the swap pairs of the bit-reversal
// permutation, so the per-element Reverse64 arithmetic is paid once per
// size instead of per transform.
var bitrevCache sync.Map // int -> [][2]int32

func bitrevPairs(n int) [][2]int32 {
	if v, ok := bitrevCache.Load(n); ok {
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
	v, _ := bitrevCache.LoadOrStore(n, pairs)
	return v.([][2]int32)
}

// transform performs the iterative Cooley-Tukey butterfly with the given
// sign in the twiddle exponent.
func transform(x []complex128, sign float64) error {
	n := len(x)
	if !IsPow2(n) {
		return fmt.Errorf("fft: length %d is not a power of two", n)
	}
	// Bit-reversal permutation.
	for _, p := range bitrevPairs(n) {
		x[p[0]], x[p[1]] = x[p[1]], x[p[0]]
	}
	tables := stageTwiddles(n, sign)
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
	pointsTransformed.Add(int64(n) * int64(bits.Len(uint(n))-1))
	return nil
}

// forwardPrefix computes the forward DFT of x but guarantees only the
// first keep outputs; positions keep..n-1 are left as garbage. A needed
// output at index k < keep of a stage's block requires only the first
// min(keep, half) entries of each half-size sub-block, so stages larger
// than keep can skip the a-b butterfly outputs (and, past the midpoint,
// whole butterflies) that nothing downstream reads. Every value that IS
// produced comes from exactly the expression the full transform runs, so
// the kept prefix is bit-for-bit identical to Forward's.
func forwardPrefix(x []complex128, keep int) error {
	n := len(x)
	if keep >= n {
		return Forward(x)
	}
	if !IsPow2(n) {
		return fmt.Errorf("fft: length %d is not a power of two", n)
	}
	if keep <= 0 {
		return nil
	}
	for _, p := range bitrevPairs(n) {
		x[p[0]], x[p[1]] = x[p[1]], x[p[0]]
	}
	tables := stageTwiddles(n, -1)
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
	pointsTransformed.Add(outs)
	return nil
}

// Forward2D computes the forward DFT of an rows×cols matrix stored
// row-major in x. Both dimensions must be powers of two.
func Forward2D(x []complex128, rows, cols int) error {
	return transform2D(x, rows, cols, Forward)
}

// Inverse2D computes the inverse DFT (normalised) of an rows×cols matrix
// stored row-major in x.
func Inverse2D(x []complex128, rows, cols int) error {
	return transform2D(x, rows, cols, Inverse)
}

// ForwardRegion2D computes the forward DFT of an rows×cols matrix but
// materialises only the top-left keepRows×keepCols corner of the result,
// written back in place. It is ForwardRegionRows over the rows of x;
// values outside the region must be treated as garbage.
func ForwardRegion2D(x []complex128, rows, cols, keepRows, keepCols int) error {
	if len(x) != rows*cols {
		return fmt.Errorf("fft: matrix buffer has %d elements, want %d", len(x), rows*cols)
	}
	if keepRows < 0 || keepRows > rows || keepCols < 0 || keepCols > cols {
		return fmt.Errorf("fft: region %dx%d outside matrix %dx%d", keepRows, keepCols, rows, cols)
	}
	dst := make([]complex128, rows*keepCols)
	err := ForwardRegionRows(dst, make([]complex128, cols), rows, cols, keepRows, keepCols,
		func(r int, row []complex128) { copy(row, x[r*cols:(r+1)*cols]) })
	if err != nil {
		return err
	}
	for r := 0; r < keepRows; r++ {
		copy(x[r*cols:r*cols+keepCols], dst[r*keepCols:(r+1)*keepCols])
	}
	return nil
}

// ForwardRegionRows computes the top-left keepRows×keepCols corner of the
// forward DFT of an rows×cols matrix whose rows are streamed rather than
// stored: fill writes input row r into row (caller-owned scratch of
// length cols), for r = 0..rows-1 in order. Each row is prefix-
// transformed there and only its first keepCols outputs (the only ones
// the column stage reads) are kept, in dst with row stride keepCols; the
// column stage then runs on that compact rows×keepCols buffer. On return
// the first keepRows rows of dst hold the corner and the rest is garbage.
//
// Every value the corner depends on comes from exactly the expression the
// full Forward2D runs, so the corner is bit-for-bit identical to
// Forward2D's. Circulant-embedding samplers are the intended caller: the
// padded torus is 4x the chip grid in each dimension, so the kept corner
// is 1/16 of the transform and dst a quarter of the full matrix.
func ForwardRegionRows(dst, row []complex128, rows, cols, keepRows, keepCols int, fill func(r int, row []complex128)) error {
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
		if err := forwardPrefix(row, keepCols); err != nil {
			return err
		}
		copy(dst[r*keepCols:(r+1)*keepCols], row)
	}
	return columns(dst, rows, keepCols, keepRows, func(col []complex128) error { return forwardPrefix(col, keepRows) })
}

// colScratch recycles the column-block buffer of the 2-D transforms so
// steady-state callers (the grf samplers) allocate nothing per transform.
var colScratch = sync.Pool{New: func() any { return []complex128(nil) }}

// colBlock is how many columns are gathered per pass: each cache line of
// the matrix holds 4 complex128s, so gathering 4 adjacent columns at once
// fetches every line exactly once, and the 4-column buffer stays hot.
const colBlock = 4

// transform2D applies tf to every row, then to every column.
func transform2D(x []complex128, rows, cols int, tf func([]complex128) error) error {
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
	return columns(x, rows, cols, rows, tf)
}

// columns applies tf to every column of the rows×cols matrix x, scattering
// back only the first keepRows entries of each. Columns are gathered
// colBlock at a time into a contiguous buffer; the per-column data and
// transform are exactly those of a one-column gather, so results are
// bit-for-bit independent of the blocking.
func columns(x []complex128, rows, cols, keepRows int, tf func([]complex128) error) error {
	sc := colScratch.Get().([]complex128)
	if cap(sc) < colBlock*rows {
		sc = make([]complex128, colBlock*rows)
	}
	sc = sc[:colBlock*rows]
	defer colScratch.Put(sc)
	for c0 := 0; c0 < cols; c0 += colBlock {
		cb := min(colBlock, cols-c0)
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
