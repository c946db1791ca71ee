// Package fft implements the forward complex fast Fourier transforms of
// power-of-two sizes that circulant-embedding sampling of Gaussian random
// fields in package grf needs: a whole 2-D transform (Forward2D) and the
// top-left corner of one whose rows are streamed (ForwardRegionRows). The
// transforms are unnormalised, X[k] = sum_j x[j] exp(-2πi jk/n) along
// each dimension.
//
// Every transform is the decimation-in-time Cooley-Tukey network of
// radix-2 butterflies, but the kernel passes over the data fewer times
// than one pass per stage: consecutive stages run in pairs as one radix-2²
// pass over four points, the first pass reads its inputs at bit-reversed
// positions instead of a pass of its own permuting them, and a 2-D
// transform's column stage runs its butterflies along whole rows. Each
// output is still the expression of its radix-2 butterfly, with the same
// operands in the same order, so the results are those of the plain
// one-stage-per-pass loop bit for bit. On amd64 the five pair passes run
// on AVX kernels, two butterflies per register with exactly the Go loops'
// operations in each lane (avx_amd64.go); the Go loops are the fallback.
package fft

import (
	"cmp"
	"fmt"
	"math"
	"math/bits"
	"sync"
	"sync/atomic"
)

// pointsTransformed counts butterfly outputs written by every transform in
// the process: a full n-point FFT adds n*log2(n), a prefix-pruned one adds
// only the outputs its kept prefix needs. One atomic add per transform
// keeps the cost invisible next to the butterflies themselves. The batched
// die pipeline's speedup gate reads this to prove — deterministically,
// immune to wall-clock noise — how much transform work pruning removes per
// die.
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

// twiddleCache holds, per length, one table per butterfly stage. Tables
// are immutable after construction and shared by every transform of that
// size in the process — the grf samplers call these transforms once or
// twice per generated die, so the trigonometric recurrences are paid once
// instead of per call.
var twiddleCache sync.Map // int -> [][]complex128

// stageTwiddles returns the per-stage twiddle factors for an n-point
// forward transform. Each stage table is built with the exact same
// repeated-multiplication recurrence the butterfly loop historically ran
// (w starts at 1 and is multiplied by wBase), so cached transforms are
// bit-for-bit identical to the uncached ones.
func stageTwiddles(n int) [][]complex128 {
	if v, ok := twiddleCache.Load(n); ok {
		return v.([][]complex128)
	}
	var tables [][]complex128
	for size := 2; size <= n; size <<= 1 {
		half := size / 2
		step := -2 * math.Pi / float64(size)
		wBase := complex(math.Cos(step), math.Sin(step))
		t := make([]complex128, half)
		w := complex(1, 0)
		for k := 0; k < half; k++ {
			t[k] = w
			w *= wBase
		}
		tables = append(tables, t)
	}
	v, _ := twiddleCache.LoadOrStore(n, tables)
	return v.([][]complex128)
}

// revCache holds, per length, the bit-reversal permutation as an index
// table, so the per-index Reverse64 arithmetic is paid once per size
// instead of per transform.
var revCache sync.Map // int -> []int32

// bitrev returns the n-point bit-reversal table: entry i is i with its
// log2(n) low bits in reverse order.
func bitrev(n int) []int32 {
	if v, ok := revCache.Load(n); ok {
		return v.([]int32)
	}
	shift := 64 - uint(bits.Len(uint(n-1)))
	rev := make([]int32, n)
	for i := range rev {
		rev[i] = int32(bits.Reverse64(uint64(i)) >> shift)
	}
	v, _ := revCache.LoadOrStore(n, rev)
	return v.([]int32)
}

// outputs returns the butterfly outputs an n-point transform needs for
// its first keep outputs: n per stage whose blocks fit in keep, and in a
// larger stage, per block, both outputs of the butterflies below keep−half
// and the sum output of those below min(keep, half). It is what
// PointsTransformed counts.
func outputs(n, keep int) int64 {
	if keep >= n {
		return int64(n) * int64(bits.Len(uint(n))-1)
	}
	var outs int64
	for size := 2; size <= n; size <<= 1 {
		half := size / 2
		if keep >= size {
			outs += int64(n)
			continue
		}
		outs += int64(n/size) * int64(max(keep-half, 0)+min(keep, half))
	}
	return outs
}

// passKind names the three shapes of pass a transform is built from. A
// pass over stage s works on blocks of 2^(s+1) points (pair passes: two
// stages, blocks of 2^(s+2)), and h = 2^s is the distance between the two
// inputs of each of stage s's butterflies.
type passKind uint8

const (
	// pair runs stages s and s+1 whole as one radix-2² pass. For each k <
	// h, the points k, k+h, k+2h and k+3h of a block go through stage
	// s's butterflies (k, k+h) and (k+2h, k+3h), both with twiddle
	// t_s[k], then through stage s+1's (k, k+2h) with t_{s+1}[k] and
	// (k+h, k+3h) with t_{s+1}[k+h].
	pair passKind = iota
	// single runs stage s alone and computes, in each block, both outputs
	// of the butterflies below keep−h and the sum output of those below
	// min(keep, h): every output of a whole stage, the needed ones of the
	// one stage whose half-block is shorter than the kept prefix.
	single
	// sumPair runs stages s and s+1 whose half-blocks both hold at least
	// keep points: of each block only the first keep sums are needed,
	// which for k < keep is (x_k + x_{k+h}·t_s[k]) + (x_{k+2h} +
	// x_{k+3h}·t_s[k])·t_{s+1}[k].
	sumPair
)

// eachPass calls do for every pass of an n-point transform that keeps its
// first keep outputs (keep >= 1), in stage order. Stages whose blocks fit
// in keep run whole, in pairs, the last one alone if their number is
// odd; stages 0 and 1 always run whole, which for keep < 4 computes a few
// outputs nothing reads. Of the larger stages, the one whose half-block
// is shorter than keep (only when keep is not a power of two) runs alone
// and the others in sum-only pairs, again the last one alone if their
// number is odd.
func eachPass(n, keep int, do func(kind passKind, s int)) {
	stages := bits.Len(uint(n)) - 1
	full := stages
	if keep < n {
		full = max(bits.Len(uint(keep))-1, min(2, stages))
	}
	s := 0
	for ; s+1 < full; s += 2 {
		do(pair, s)
	}
	if s < full {
		do(single, s)
		s++
	}
	if s < stages && keep > 1<<s {
		do(single, s)
		s++
	}
	for ; s+1 < stages; s += 2 {
		do(sumPair, s)
	}
	if s < stages {
		do(single, s)
	}
}

// kernelSet holds one implementation of each of the five pair passes,
// which are all the passes the paper-scale transforms run; the
// single-stage passes pass2 and pass2Rows have only their Go loop. Every
// set computes the same outputs bit for bit: goKernels are the portable Go
// loops below, and avxKernels (amd64 only) the same butterflies two to an
// AVX register.
type kernelSet struct {
	name      string
	first4    func(x, src []complex128, rev []int32, t0, t1 []complex128)
	pass4     func(x []complex128, h int, ta, tb []complex128)
	sum4      func(x []complex128, h, keep int, ta, tb []complex128)
	pass4Rows func(m []complex128, w, h int, ta, tb []complex128)
	sum4Rows  func(m []complex128, w, h, keep int, ta, tb []complex128)
}

var goKernels = &kernelSet{"go", first4, pass4, sum4, pass4Rows, sum4Rows}

// active is the kernel set every transform runs, chosen once per process:
// the AVX kernels where this build has them and the CPU and the operating
// system support AVX, the Go loops everywhere else.
var active = cmp.Or(avxKernels, goKernels)

// prefix computes into x the first keep outputs of the n-point transform
// of src (n = len(x) = len(src), a power of two) whose per-stage twiddle
// tables are tw; the rest of x is garbage. The first pass reads src at
// bit-reversed positions and every later pass works in place on x, so src
// is only read and must not overlap x.
func prefix(x, src []complex128, keep int, tw [][]complex128) {
	n := len(x)
	if keep <= 0 {
		return
	}
	if n < 4 {
		copy(x, src) // the bit reversal of one or two points is the identity
	}
	ks := active
	eachPass(n, keep, func(kind passKind, s int) {
		h := 1 << s
		switch {
		case kind == pair && s == 0:
			ks.first4(x, src, bitrev(n), tw[0], tw[1])
		case kind == pair:
			ks.pass4(x, h, tw[s], tw[s+1])
		case kind == single:
			pass2(x, h, keep, tw[s])
		default:
			ks.sum4(x, h, keep, tw[s], tw[s+1])
		}
	})
}

// bf2 is the radix-2 butterfly: with v = b·w it returns a+v and a−v.
// Every kernel computes each butterfly output through it (or, where only
// the sum is needed, as a + b·w), so every output is the expression the
// one-stage-per-pass loop computed, with the same operands.
func bf2(a, b, w complex128) (complex128, complex128) {
	v := b * w
	return a + v, a - v
}

// first4 runs stages 0 and 1 of an n-point transform (n >= 4) as one pair
// pass from src into x. Output group m (points 4m..4m+3) takes its inputs
// from the bit-reversed positions of 4m..4m+3, which are R, R+2q, R+q and
// R+3q for q = n/4 and R the (log2(n)−2)-bit reversal of m. Walking R in
// order reads src as four sequential streams, and the group it feeds
// starts at rev[R] = 4m.
func first4(x, src []complex128, rev []int32, t0, t1 []complex128) {
	q := len(x) / 4
	w0, w1, w2 := t0[0], t1[0], t1[1]
	s0 := src[:q]
	s1, s2, s3 := src[q:2*q], src[2*q:3*q], src[3*q:4*q]
	s1, s2, s3 = s1[:len(s0)], s2[:len(s0)], s3[:len(s0)]
	for r, p := range rev[:len(s0)] {
		o := (*[4]complex128)(x[p : p+4])
		y0, y1 := bf2(s0[r], s2[r], w0)
		y2, y3 := bf2(s1[r], s3[r], w0)
		o[0], o[2] = bf2(y0, y2, w1)
		o[1], o[3] = bf2(y1, y3, w2)
	}
}

// pass4 runs stages s and s+1 (h = 2^s) of the transform in x as one pair
// pass.
func pass4(x []complex128, h int, ta, tb []complex128) {
	n := len(x)
	for b := 0; b < n; b += 4 * h {
		x0 := x[b : b+h : b+h]
		x1, x2, x3 := x[b+h:b+2*h], x[b+2*h:b+3*h], x[b+3*h:b+4*h]
		x1, x2, x3 = x1[:len(x0)], x2[:len(x0)], x3[:len(x0)]
		ta, tlo, thi := ta[:len(x0)], tb[:len(x0)], tb[h:][:len(x0)]
		for k := range x0 {
			y0, y1 := bf2(x0[k], x1[k], ta[k])
			y2, y3 := bf2(x2[k], x3[k], ta[k])
			x0[k], x2[k] = bf2(y0, y2, tlo[k])
			x1[k], x3[k] = bf2(y1, y3, thi[k])
		}
	}
}

// pass2 runs stage s (h = 2^s) of the transform in x alone, computing the
// outputs a transform keeping keep outputs needs (a single pass).
func pass2(x []complex128, h, keep int, t []complex128) {
	n := len(x)
	full, sum := min(max(keep-h, 0), h), min(keep, h)
	t = t[:sum]
	for b := 0; b < n; b += 2 * h {
		lo := x[b : b+sum : b+sum]
		hi := x[b+h : b+h+sum][:len(lo)]
		for k := range lo[:full] {
			lo[k], hi[k] = bf2(lo[k], hi[k], t[k])
		}
		for k := full; k < len(lo); k++ {
			lo[k] = lo[k] + hi[k]*t[k]
		}
	}
}

// sum4 runs stages s and s+1 (h = 2^s >= keep) of the transform in x as
// one sum-only pair pass, leaving the first keep sums of each block.
func sum4(x []complex128, h, keep int, ta, tb []complex128) {
	n := len(x)
	ta, tb = ta[:keep], tb[:keep]
	for b := 0; b < n; b += 4 * h {
		x0 := x[b : b+keep : b+keep]
		x1, x2, x3 := x[b+h:b+h+keep], x[b+2*h:b+2*h+keep], x[b+3*h:b+3*h+keep]
		x1, x2, x3 = x1[:len(x0)], x2[:len(x0)], x3[:len(x0)]
		for k := range x0 {
			y0 := x0[k] + x1[k]*ta[k]
			y2 := x2[k] + x3[k]*ta[k]
			x0[k] = y0 + y2*tb[k]
		}
	}
}

// Forward2D computes the forward DFT of an rows×cols matrix stored
// row-major in x. Both dimensions must be powers of two.
func Forward2D(x []complex128, rows, cols int) error {
	if len(x) != rows*cols {
		return fmt.Errorf("fft: matrix buffer has %d elements, want %d", len(x), rows*cols)
	}
	if !IsPow2(rows) || !IsPow2(cols) {
		return fmt.Errorf("fft: dimensions %dx%d are not powers of two", rows, cols)
	}
	rowStage(x, rows, cols, stageTwiddles(cols))
	colStage(x, rows, cols, rows, stageTwiddles(rows))
	pointsTransformed.Add(int64(rows)*outputs(cols, cols) + int64(cols)*outputs(rows, rows))
	return nil
}

// rowStage transforms every row of the rows×cols matrix x with the twiddle
// tables tw, storing the result of row r at row rev(r), the bit-reversed
// index, which is the order the column stage's first pass reads. Rows r
// and rev(r) trade places, so both are copied into a two-row buffer before
// either is overwritten.
func rowStage(x []complex128, rows, cols int, tw [][]complex128) {
	buf := make([]complex128, 2*cols)
	a, b := buf[:cols], buf[cols:]
	for r, p := range bitrev(rows) {
		q := int(p)
		if q < r {
			continue
		}
		xr, xq := x[r*cols:(r+1)*cols], x[q*cols:(q+1)*cols]
		copy(a, xr)
		copy(b, xq)
		prefix(xq, a, cols, tw)
		if q != r {
			prefix(xr, b, cols, tw)
		}
	}
}

// ForwardRegionRows computes the top-left keepRows×keepCols corner of the
// forward DFT of an rows×cols matrix whose rows are streamed rather than
// stored: fill writes input row r into row (caller-owned scratch of
// length cols), for r = 0..rows-1 in order. Each row is prefix-
// transformed from there and only its first keepCols outputs (the only
// ones the column stage reads) are kept, in dst with row stride keepCols
// and at the bit-reversed row index, which is the order the column
// stage's first pass reads; the column stage then runs on that compact
// rows×keepCols buffer. On return the first keepRows rows of dst hold the
// corner and the rest is garbage.
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
	work := make([]complex128, cols)
	tw := stageTwiddles(cols)
	for r, p := range bitrev(rows) {
		fill(r, row)
		prefix(work, row, keepCols, tw)
		q := int(p) * keepCols
		copy(dst[q:q+keepCols], work)
	}
	colStage(dst, rows, keepCols, keepRows, stageTwiddles(rows))
	pointsTransformed.Add(int64(rows)*outputs(cols, keepCols) + int64(keepCols)*outputs(rows, keepRows))
	return nil
}

// colStage runs the column transforms of the rows×w matrix m, whose rows
// hold the row stage's results at bit-reversed row indices, and leaves
// the first keep outputs of every column in the first keep rows. Every
// butterfly of the column stage pairs two whole rows with one twiddle,
// so each pass runs its butterflies along rows: the same operands as one
// column transform at a time, with sequential access and no gather. tw
// holds the rows-point transform's twiddle tables.
func colStage(m []complex128, rows, w, keep int, tw [][]complex128) {
	if w == 0 || keep <= 0 {
		return
	}
	ks := active
	eachPass(rows, keep, func(kind passKind, s int) {
		h := 1 << s
		switch kind {
		case pair:
			ks.pass4Rows(m, w, h, tw[s], tw[s+1])
		case single:
			pass2Rows(m, w, h, keep, tw[s])
		default:
			ks.sum4Rows(m, w, h, keep, tw[s], tw[s+1])
		}
	})
}

// pass4Rows is pass4 on the rows of the row-major matrix m of width w.
func pass4Rows(m []complex128, w, h int, ta, tb []complex128) {
	rows := len(m) / w
	for b := 0; b < rows; b += 4 * h {
		for k := 0; k < h; k++ {
			i := (b + k) * w
			r0 := m[i : i+w : i+w]
			r1, r2, r3 := m[i+h*w:], m[i+2*h*w:], m[i+3*h*w:]
			r1, r2, r3 = r1[:len(r0)], r2[:len(r0)], r3[:len(r0)]
			w1, w2, w3 := ta[k], tb[k], tb[h+k]
			for c := range r0 {
				y0, y1 := bf2(r0[c], r1[c], w1)
				y2, y3 := bf2(r2[c], r3[c], w1)
				r0[c], r2[c] = bf2(y0, y2, w2)
				r1[c], r3[c] = bf2(y1, y3, w3)
			}
		}
	}
}

// pass2Rows is pass2 on the rows of the row-major matrix m of width w.
func pass2Rows(m []complex128, w, h, keep int, t []complex128) {
	rows := len(m) / w
	full, sum := min(max(keep-h, 0), h), min(keep, h)
	for b := 0; b < rows; b += 2 * h {
		for k := 0; k < sum; k++ {
			i := (b + k) * w
			lo := m[i : i+w : i+w]
			hi := m[i+h*w:][:len(lo)]
			tk := t[k]
			if k < full {
				for c := range lo {
					lo[c], hi[c] = bf2(lo[c], hi[c], tk)
				}
				continue
			}
			for c := range lo {
				lo[c] = lo[c] + hi[c]*tk
			}
		}
	}
}

// sum4Rows is sum4 on the rows of the row-major matrix m of width w.
func sum4Rows(m []complex128, w, h, keep int, ta, tb []complex128) {
	rows := len(m) / w
	for b := 0; b < rows; b += 4 * h {
		for k := 0; k < keep; k++ {
			i := (b + k) * w
			r0 := m[i : i+w : i+w]
			r1, r2, r3 := m[i+h*w:], m[i+2*h*w:], m[i+3*h*w:]
			r1, r2, r3 = r1[:len(r0)], r2[:len(r0)], r3[:len(r0)]
			w1, w2 := ta[k], tb[k]
			for c := range r0 {
				y0 := r0[c] + r1[c]*w1
				y2 := r2[c] + r3[c]*w1
				r0[c] = y0 + y2*w2
			}
		}
	}
}
