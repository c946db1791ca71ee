package fft

import (
	"fmt"
	"math"
	"math/cmplx"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestIsPow2(t *testing.T) {
	for _, n := range []int{1, 2, 4, 1024} {
		if !IsPow2(n) {
			t.Errorf("IsPow2(%d) = false", n)
		}
	}
	for _, n := range []int{0, -4, 3, 6, 1000} {
		if IsPow2(n) {
			t.Errorf("IsPow2(%d) = true", n)
		}
	}
}

func TestNextPow2(t *testing.T) {
	cases := map[int]int{1: 1, 2: 2, 3: 4, 5: 8, 8: 8, 1000: 1024}
	for in, want := range cases {
		if got := NextPow2(in); got != want {
			t.Errorf("NextPow2(%d) = %d, want %d", in, got, want)
		}
	}
}

func TestForwardImpulse(t *testing.T) {
	// DFT of a unit impulse is all ones.
	x := make([]complex128, 8)
	x[0] = 1
	if err := forward(x); err != nil {
		t.Fatal(err)
	}
	for i, v := range x {
		if cmplx.Abs(v-1) > 1e-12 {
			t.Fatalf("bin %d = %v, want 1", i, v)
		}
	}
}

func TestForwardSingleTone(t *testing.T) {
	// A complex exponential at bin 3 transforms to a single spike of
	// magnitude n at index 3.
	const n = 16
	x := make([]complex128, n)
	for j := range x {
		arg := 2 * math.Pi * 3 * float64(j) / n
		x[j] = cmplx.Exp(complex(0, arg))
	}
	if err := forward(x); err != nil {
		t.Fatal(err)
	}
	for k, v := range x {
		want := complex(0, 0)
		if k == 3 {
			want = complex(n, 0)
		}
		if cmplx.Abs(v-want) > 1e-9 {
			t.Fatalf("bin %d = %v, want %v", k, v, want)
		}
	}
}

func TestRoundTrip(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	for _, n := range []int{1, 2, 8, 64, 512} {
		x := make([]complex128, n)
		orig := make([]complex128, n)
		for i := range x {
			x[i] = complex(r.NormFloat64(), r.NormFloat64())
			orig[i] = x[i]
		}
		if err := forward(x); err != nil {
			t.Fatal(err)
		}
		if err := inverse(x); err != nil {
			t.Fatal(err)
		}
		for i := range x {
			if cmplx.Abs(x[i]-orig[i]) > 1e-10 {
				t.Fatalf("n=%d index %d: %v != %v", n, i, x[i], orig[i])
			}
		}
	}
}

func TestParseval(t *testing.T) {
	// sum |x|^2 == (1/n) sum |X|^2.
	r := rand.New(rand.NewSource(9))
	const n = 128
	x := make([]complex128, n)
	var tEnergy float64
	for i := range x {
		x[i] = complex(r.NormFloat64(), r.NormFloat64())
		tEnergy += real(x[i])*real(x[i]) + imag(x[i])*imag(x[i])
	}
	if err := forward(x); err != nil {
		t.Fatal(err)
	}
	var fEnergy float64
	for _, v := range x {
		fEnergy += real(v)*real(v) + imag(v)*imag(v)
	}
	if math.Abs(tEnergy-fEnergy/n) > 1e-8*tEnergy {
		t.Fatalf("Parseval violated: %v vs %v", tEnergy, fEnergy/n)
	}
}

func TestNonPow2Rejected(t *testing.T) {
	if err := forward(make([]complex128, 3)); err == nil {
		t.Fatal("forward accepted length 3")
	}
	if err := inverse(make([]complex128, 6)); err == nil {
		t.Fatal("inverse accepted length 6")
	}
	if err := Forward2D(make([]complex128, 12), 3, 4); err == nil {
		t.Fatal("Forward2D accepted 3x4")
	}
	if err := Forward2D(make([]complex128, 7), 2, 4); err == nil {
		t.Fatal("Forward2D accepted wrong buffer size")
	}
}

func TestRoundTrip2D(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	const rows, cols = 8, 16
	x := make([]complex128, rows*cols)
	orig := make([]complex128, rows*cols)
	for i := range x {
		x[i] = complex(r.NormFloat64(), r.NormFloat64())
		orig[i] = x[i]
	}
	if err := Forward2D(x, rows, cols); err != nil {
		t.Fatal(err)
	}
	if err := inverse2D(x, rows, cols); err != nil {
		t.Fatal(err)
	}
	for i := range x {
		if cmplx.Abs(x[i]-orig[i]) > 1e-10 {
			t.Fatalf("index %d differs after 2D round trip", i)
		}
	}
}

func TestForward2DSeparableTone(t *testing.T) {
	// 2-D exponential at (2, 5) transforms to one spike.
	const rows, cols = 8, 16
	x := make([]complex128, rows*cols)
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			arg := 2 * math.Pi * (2*float64(r)/rows + 5*float64(c)/cols)
			x[r*cols+c] = cmplx.Exp(complex(0, arg))
		}
	}
	if err := Forward2D(x, rows, cols); err != nil {
		t.Fatal(err)
	}
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			want := complex(0, 0)
			if r == 2 && c == 5 {
				want = complex(rows*cols, 0)
			}
			if cmplx.Abs(x[r*cols+c]-want) > 1e-8 {
				t.Fatalf("bin (%d,%d) = %v, want %v", r, c, x[r*cols+c], want)
			}
		}
	}
}

// Property: linearity — FFT(a*x + y) == a*FFT(x) + FFT(y).
func TestLinearityProperty(t *testing.T) {
	f := func(seed int64, scale float64) bool {
		if math.IsNaN(scale) || math.IsInf(scale, 0) || math.Abs(scale) > 1e6 {
			return true
		}
		r := rand.New(rand.NewSource(seed))
		const n = 32
		x := make([]complex128, n)
		y := make([]complex128, n)
		mix := make([]complex128, n)
		for i := range x {
			x[i] = complex(r.NormFloat64(), r.NormFloat64())
			y[i] = complex(r.NormFloat64(), r.NormFloat64())
			mix[i] = complex(scale, 0)*x[i] + y[i]
		}
		if forward(x) != nil || forward(y) != nil || forward(mix) != nil {
			return false
		}
		for i := range x {
			want := complex(scale, 0)*x[i] + y[i]
			if cmplx.Abs(mix[i]-want) > 1e-6*(1+cmplx.Abs(want)) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// The benchmarks copy a fixed input into the transform buffer before every
// transform: transforming one buffer in place again and again grows its
// entries until every one is non-finite (from about the 200th call at
// 1,024 points), and would time NaN arithmetic.

func BenchmarkForward1K(b *testing.B) {
	in := make([]complex128, 1024)
	for i := range in {
		in[i] = complex(float64(i%7), float64(i%3))
	}
	x := make([]complex128, len(in))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		copy(x, in)
		_ = forward(x)
	}
}

func BenchmarkForward2D256(b *testing.B) {
	in := make([]complex128, 256*256)
	for i := range in {
		in[i] = complex(float64(i%13), 0)
	}
	x := make([]complex128, len(in))
	for _, ks := range kernelSets() {
		b.Run(ks.name, func(b *testing.B) {
			using(ks, func() {
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					copy(x, in)
					_ = Forward2D(x, 256, 256)
				}
			})
		})
	}
}

// BenchmarkForwardRegionRows times the die sampler's transform on each
// kernel set: an n×n torus streamed row by row and cut to its
// (n/4)×(n/4) corner, at the paper's map resolution (1024² to 256²) and
// the quick one (512² to 128²). The fill copies a fixed row, where the
// sampler draws noise.
func BenchmarkForwardRegionRows(b *testing.B) {
	for _, n := range []int{1024, 512} {
		rng := rand.New(rand.NewSource(int64(n)))
		in := make([]complex128, n)
		for i := range in {
			in[i] = complex(rng.NormFloat64(), rng.NormFloat64())
		}
		dst, row := make([]complex128, n*n/4), make([]complex128, n)
		fill := func(r int, row []complex128) { copy(row, in) }
		for _, ks := range kernelSets() {
			b.Run(fmt.Sprintf("%dto%d/%s", n, n/4, ks.name), func(b *testing.B) {
				using(ks, func() {
					b.ReportAllocs()
					b.ResetTimer()
					for i := 0; i < b.N; i++ {
						if err := ForwardRegionRows(dst, row, n, n, n/4, n/4, fill); err != nil {
							b.Fatal(err)
						}
					}
				})
			})
		}
	}
}
