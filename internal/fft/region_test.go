package fft

import (
	"math"
	"math/rand"
	"testing"
)

// regionOf runs ForwardRegionRows over the rows of the stored matrix x,
// filling each streamed row by copying it, and returns the compact
// rows×keepCols result.
func regionOf(x []complex128, rows, cols, keepRows, keepCols int) ([]complex128, error) {
	dst := make([]complex128, rows*keepCols)
	err := ForwardRegionRows(dst, make([]complex128, cols), rows, cols, keepRows, keepCols,
		func(r int, row []complex128) { copy(row, x[r*cols:(r+1)*cols]) })
	return dst, err
}

// TestForwardRegion2DMatchesFull pins the pruning contract: the kept
// keepRows×keepCols corner of ForwardRegionRows must be bit-for-bit
// identical to the same corner of the full Forward2D, for every region
// shape including the degenerate full and empty ones. The grf samplers
// rely on this exactness — a single ulp of drift there would cascade
// into every experiment golden.
func TestForwardRegion2DMatchesFull(t *testing.T) {
	dims := [][2]int{{4, 4}, {8, 16}, {16, 8}, {32, 32}, {64, 128}}
	for _, d := range dims {
		rows, cols := d[0], d[1]
		rng := rand.New(rand.NewSource(int64(rows*1000 + cols)))
		orig := make([]complex128, rows*cols)
		for i := range orig {
			orig[i] = complex(rng.NormFloat64(), rng.NormFloat64())
		}
		full := append([]complex128(nil), orig...)
		if err := Forward2D(full, rows, cols); err != nil {
			t.Fatal(err)
		}
		regions := [][2]int{{rows, cols}, {rows / 4, cols / 4}, {rows / 2, cols}, {rows, cols / 2}, {1, 1}, {0, 0}}
		for _, reg := range regions {
			kr, kc := reg[0], reg[1]
			got, err := regionOf(orig, rows, cols, kr, kc)
			if err != nil {
				t.Fatalf("%dx%d region %dx%d: %v", rows, cols, kr, kc, err)
			}
			for r := 0; r < kr; r++ {
				for c := 0; c < kc; c++ {
					g, w := got[r*kc+c], full[r*cols+c]
					if math.Float64bits(real(g)) != math.Float64bits(real(w)) ||
						math.Float64bits(imag(g)) != math.Float64bits(imag(w)) {
						t.Fatalf("%dx%d region %dx%d: mismatch at (%d,%d): got %v want %v",
							rows, cols, kr, kc, r, c, g, w)
					}
				}
			}
		}
	}
}

// TestForwardRegion2DErrors covers the argument validation paths.
func TestForwardRegion2DErrors(t *testing.T) {
	x := make([]complex128, 16)
	if _, err := regionOf(x, 4, 4, 5, 4); err == nil {
		t.Error("keepRows > rows accepted")
	}
	if err := ForwardRegionRows(nil, make([]complex128, 4), 4, 4, 4, -1, nil); err == nil {
		t.Error("negative keepCols accepted")
	}
	if _, err := regionOf(x, 4, 4, 4, 5); err == nil {
		t.Error("keepCols > cols accepted")
	}
	if err := ForwardRegionRows(make([]complex128, 15), make([]complex128, 4), 4, 4, 4, 4, nil); err == nil {
		t.Error("short buffer accepted")
	}
	if err := ForwardRegionRows(make([]complex128, 16), make([]complex128, 3), 4, 4, 4, 4, nil); err == nil {
		t.Error("short row accepted")
	}
	if _, err := regionOf(make([]complex128, 12), 3, 4, 3, 4); err == nil {
		t.Error("non-power-of-two rows accepted")
	}
}
