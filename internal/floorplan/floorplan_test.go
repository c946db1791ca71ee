package floorplan

import (
	"math"
	"strings"
	"testing"
)

func TestRectBasics(t *testing.T) {
	r := Rect{0, 0, 0.5, 0.25}
	if r.Width() != 0.5 || r.Height() != 0.25 {
		t.Fatalf("dims: %v x %v", r.Width(), r.Height())
	}
	if math.Abs(r.Area()-0.125) > 1e-15 {
		t.Fatalf("area: %v", r.Area())
	}
	if !r.Contains(0, 0) || r.Contains(0.5, 0.1) || r.Contains(0.2, 0.25) {
		t.Fatal("containment semantics wrong (lo inclusive, hi exclusive)")
	}
}

func TestSharedEdge(t *testing.T) {
	a := Rect{0, 0, 0.5, 0.5}
	b := Rect{0.5, 0, 1, 0.5} // right neighbour, full side shared
	if got := a.SharedEdge(b); math.Abs(got-0.5) > 1e-12 {
		t.Fatalf("vertical contact = %v, want 0.5", got)
	}
	c := Rect{0, 0.5, 0.25, 1} // below, quarter of width shared
	if got := a.SharedEdge(c); math.Abs(got-0.25) > 1e-12 {
		t.Fatalf("horizontal contact = %v, want 0.25", got)
	}
	d := Rect{0.6, 0.6, 1, 1} // diagonal, no contact
	if got := a.SharedEdge(d); got != 0 {
		t.Fatalf("no contact expected, got %v", got)
	}
	// Symmetry.
	if a.SharedEdge(b) != b.SharedEdge(a) {
		t.Fatal("SharedEdge not symmetric")
	}
}

func TestUnitKindStringsAndSRAM(t *testing.T) {
	if UnitL1D.String() != "L1D" || UnitIntExec.String() != "INT" {
		t.Fatal("unit names wrong")
	}
	if !UnitL2.IsSRAM() || !UnitL1I.IsSRAM() || UnitFrontend.IsSRAM() {
		t.Fatal("SRAM classification wrong")
	}
	if !strings.HasPrefix(UnitKind(99).String(), "UnitKind(") {
		t.Fatal("unknown kind should format diagnostically")
	}
}

func Test20CoreLayout(t *testing.T) {
	f := New20CoreCMP()
	if f.NumCores != 20 {
		t.Fatalf("NumCores = %d", f.NumCores)
	}
	if f.DieAreaMM2 != 340 {
		t.Fatalf("area = %v", f.DieAreaMM2)
	}
	// 20 cores x 6 units + 4 L2 banks.
	if len(f.Blocks) != 20*6+4 {
		t.Fatalf("block count = %d", len(f.Blocks))
	}
	if len(f.L2Blocks()) != 4 {
		t.Fatalf("L2 banks = %d", len(f.L2Blocks()))
	}
	for c := 0; c < 20; c++ {
		if got := len(f.CoreBlocks(c)); got != 6 {
			t.Fatalf("core %d has %d blocks", c, got)
		}
	}
}

func TestLayoutCoversDieWithoutOverlap(t *testing.T) {
	f := New20CoreCMP()
	total := 0.0
	for _, b := range f.Blocks {
		total += b.R.Area()
	}
	if math.Abs(total-1) > 1e-9 {
		t.Fatalf("blocks cover %v of the die, want 1", total)
	}
	// Spot-check disjointness on a sample grid: each point is in exactly
	// one block.
	for i := 0; i < 40; i++ {
		for j := 0; j < 40; j++ {
			x := (float64(i) + 0.5) / 40
			y := (float64(j) + 0.5) / 40
			count := 0
			for _, b := range f.Blocks {
				if b.R.Contains(x, y) {
					count++
				}
			}
			if count != 1 {
				t.Fatalf("point (%v,%v) in %d blocks", x, y, count)
			}
		}
	}
}

func TestBlockAt(t *testing.T) {
	f := New20CoreCMP()
	idx := f.BlockAt(0.05, 0.05)
	if idx < 0 || f.Blocks[idx].Kind != UnitL2 {
		t.Fatalf("top-left should be L2, got %v", idx)
	}
	if got := f.BlockAt(1.5, 0.5); got != -1 {
		t.Fatalf("outside point returned %d", got)
	}
}

func TestCoreBlocksBelongToCoreRect(t *testing.T) {
	f := New20CoreCMP()
	for c := 0; c < f.NumCores; c++ {
		cr := f.CoreRect(c)
		var area float64
		for _, b := range f.CoreBlocks(c) {
			if b.Core != c {
				t.Fatalf("block %s assigned to core %d", b.Name, b.Core)
			}
			if b.R.X0 < cr.X0-1e-9 || b.R.X1 > cr.X1+1e-9 ||
				b.R.Y0 < cr.Y0-1e-9 || b.R.Y1 > cr.Y1+1e-9 {
				t.Fatalf("block %s escapes its core rect", b.Name)
			}
			area += b.R.Area()
		}
		if math.Abs(area-cr.Area()) > 1e-9 {
			t.Fatalf("core %d units cover %v of %v", c, area, cr.Area())
		}
	}
}

func TestDieEdge(t *testing.T) {
	f := New20CoreCMP()
	if got := f.DieEdgeMM(); math.Abs(got-math.Sqrt(340)) > 1e-12 {
		t.Fatalf("edge = %v", got)
	}
}

func TestSmallCMPs(t *testing.T) {
	for _, n := range []int{1, 2, 4, 5, 7, 10, 16} {
		f := NewCMP(n, 100)
		if f.NumCores != n {
			t.Fatalf("n=%d: NumCores = %d", n, f.NumCores)
		}
		total := 0.0
		for _, b := range f.Blocks {
			total += b.R.Area()
		}
		// Small layouts may have an unused gap where a core row is not
		// full; coverage must never exceed the die.
		if total > 1+1e-9 {
			t.Fatalf("n=%d: blocks cover %v > 1", n, total)
		}
		for c := 0; c < n; c++ {
			blocks := f.CoreBlocks(c)
			if len(blocks) != 6 {
				t.Fatalf("n=%d: core %d has %d units", n, c, len(blocks))
			}
			idx := f.CoreBlockIndices(c)
			for i, bi := range idx {
				if f.Blocks[bi] != blocks[i] || i > 0 && bi <= idx[i-1] {
					t.Fatalf("n=%d: core %d block indices %v", n, c, idx)
				}
			}
		}
	}
}

func TestInvalidCoreCountPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewCMP(0, 100)
}

func TestCoreUnitKindsComplete(t *testing.T) {
	kinds := CoreUnitKinds()
	if len(kinds) != 6 {
		t.Fatalf("core has %d unit kinds", len(kinds))
	}
	seen := map[UnitKind]bool{}
	for _, k := range kinds {
		if k == UnitL2 {
			t.Fatal("L2 is not a core unit")
		}
		if seen[k] {
			t.Fatalf("duplicate kind %v", k)
		}
		seen[k] = true
	}
}
