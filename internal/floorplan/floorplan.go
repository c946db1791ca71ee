// Package floorplan describes the die geometry: the placement of cores,
// their internal units, and the shared L2 banks, in normalised chip
// coordinates. The variation model samples parameter maps over this
// geometry, the thermal model derives its RC network from block adjacency,
// and the critical-path model asks which region of the map each pipeline
// unit occupies.
//
// The default layout reproduces the paper's Figure 3: four rows of five
// cores with an L2 band above the first and third rows.
package floorplan

import (
	"fmt"
	"math"
	"sort"
)

// Rect is an axis-aligned rectangle in normalised chip coordinates
// ([0,1] x [0,1], origin at the top-left of Figure 3).
type Rect struct {
	X0, Y0, X1, Y1 float64
}

// Width returns the horizontal extent.
func (r Rect) Width() float64 { return r.X1 - r.X0 }

// Height returns the vertical extent.
func (r Rect) Height() float64 { return r.Y1 - r.Y0 }

// Area returns the rectangle's area in normalised units.
func (r Rect) Area() float64 { return r.Width() * r.Height() }

// Contains reports whether point (x, y) lies inside the rectangle
// (inclusive of the low edges, exclusive of the high edges).
func (r Rect) Contains(x, y float64) bool {
	return x >= r.X0 && x < r.X1 && y >= r.Y0 && y < r.Y1
}

// SharedEdge returns the length of the boundary shared between two
// rectangles that touch but do not overlap; it returns 0 if they do not
// touch. The thermal model uses this as the lateral coupling width.
func (r Rect) SharedEdge(o Rect) float64 {
	const eps = 1e-9
	// Vertical contact (left/right edges touch).
	if math.Abs(r.X1-o.X0) < eps || math.Abs(o.X1-r.X0) < eps {
		lo := math.Max(r.Y0, o.Y0)
		hi := math.Min(r.Y1, o.Y1)
		if hi > lo {
			return hi - lo
		}
	}
	// Horizontal contact (top/bottom edges touch).
	if math.Abs(r.Y1-o.Y0) < eps || math.Abs(o.Y1-r.Y0) < eps {
		lo := math.Max(r.X0, o.X0)
		hi := math.Min(r.X1, o.X1)
		if hi > lo {
			return hi - lo
		}
	}
	return 0
}

// UnitKind identifies the functional unit a block implements. The split
// matters because logic and SRAM stages have different critical-path
// statistics and different dynamic-power activity.
type UnitKind int

// The unit kinds of an Alpha 21264-like core plus the shared L2.
const (
	UnitFrontend UnitKind = iota // fetch, decode, branch prediction
	UnitIntExec                  // integer scheduler + ALUs + register file
	UnitFPExec                   // floating-point scheduler + units
	UnitLSU                      // load-store unit
	UnitL1I                      // L1 instruction cache
	UnitL1D                      // L1 data cache
	UnitL2                       // shared L2 bank
	numUnitKinds
)

// String returns the unit's short name.
func (k UnitKind) String() string {
	switch k {
	case UnitFrontend:
		return "FE"
	case UnitIntExec:
		return "INT"
	case UnitFPExec:
		return "FP"
	case UnitLSU:
		return "LSU"
	case UnitL1I:
		return "L1I"
	case UnitL1D:
		return "L1D"
	case UnitL2:
		return "L2"
	default:
		return fmt.Sprintf("UnitKind(%d)", int(k))
	}
}

// IsSRAM reports whether the unit is dominated by memory arrays, which
// changes its critical-path model (6T-cell access paths average over fewer
// devices and therefore see more random variation).
func (k UnitKind) IsSRAM() bool {
	switch k {
	case UnitL1I, UnitL1D, UnitL2:
		return true
	}
	return false
}

// CoreUnitKinds lists the units inside one core, in layout order.
func CoreUnitKinds() []UnitKind {
	return []UnitKind{UnitFrontend, UnitL1I, UnitIntExec, UnitLSU, UnitFPExec, UnitL1D}
}

// Block is one placed unit: a core sub-unit or an L2 bank.
type Block struct {
	// Name is unique within the floorplan, e.g. "C7.INT" or "L2.1".
	Name string
	// Kind is the functional unit type.
	Kind UnitKind
	// Core is the owning core index, or -1 for shared L2 banks.
	Core int
	// R is the block's position.
	R Rect
}

// Floorplan is a complete die layout.
type Floorplan struct {
	NumCores int
	Blocks   []Block
	// DieAreaMM2 is the physical die area the normalised square maps to.
	DieAreaMM2 float64

	coreRects []Rect
	byCore    [][]int // indices into Blocks per core
	l2Blocks  []int
}

// DieEdgeMM returns the physical edge length of the (square) die in mm.
func (f *Floorplan) DieEdgeMM() float64 { return math.Sqrt(f.DieAreaMM2) }

// CoreRect returns the bounding rectangle of core c.
func (f *Floorplan) CoreRect(c int) Rect { return f.coreRects[c] }

// CoreBlockIndices returns the indices into Blocks of core c's blocks,
// in ascending order. The slice is the floorplan's own and must not be
// modified.
func (f *Floorplan) CoreBlockIndices(c int) []int { return f.byCore[c] }

// L2BlockIndices returns the indices into Blocks of the L2 banks, in
// ascending order. The slice is the floorplan's own and must not be
// modified.
func (f *Floorplan) L2BlockIndices() []int { return f.l2Blocks }

// CoreBlocks returns the blocks belonging to core c.
func (f *Floorplan) CoreBlocks(c int) []Block {
	idx := f.byCore[c]
	out := make([]Block, len(idx))
	for i, b := range idx {
		out[i] = f.Blocks[b]
	}
	return out
}

// L2Blocks returns the shared L2 bank blocks.
func (f *Floorplan) L2Blocks() []Block {
	out := make([]Block, len(f.l2Blocks))
	for i, b := range f.l2Blocks {
		out[i] = f.Blocks[b]
	}
	return out
}

// BlockAt returns the index of the block containing normalised point
// (x, y), or -1 if the point falls outside every block.
func (f *Floorplan) BlockAt(x, y float64) int {
	for i, b := range f.Blocks {
		if b.R.Contains(x, y) {
			return i
		}
	}
	return -1
}

// CellCores returns the core owning each cell of a rows x cols grid laid
// over the die, the grid of the variation maps: entry r*cols+c is the
// Core of the block that BlockAt reports for the cell centre
// ((c+0.5)/cols, (r+0.5)/rows), or -1 where that is an L2 bank or no
// block. Per-core map edits (aging drift, body bias) read it instead of
// locating every cell centre.
//
// Each block claims the cells whose centres it contains. Centres grow
// monotonically along each axis, so the centres inside [X0, X1) are one
// contiguous run of columns found by binary search with Contains' own
// comparisons, and likewise for rows. Blocks are visited last to first,
// so a cell ends with the first block that contains its centre, as in
// BlockAt.
func (f *Floorplan) CellCores(rows, cols int) []int32 {
	if rows <= 0 || cols <= 0 {
		return nil
	}
	centres := func(n int) []float64 {
		out := make([]float64, n)
		for i := range out {
			out[i] = (float64(i) + 0.5) / float64(n)
		}
		return out
	}
	ys, xs := centres(rows), centres(cols)
	t := make([]int32, rows*cols)
	for i := range t {
		t[i] = -1
	}
	for bi := len(f.Blocks) - 1; bi >= 0; bi-- {
		b := &f.Blocks[bi]
		r0, r1 := sort.SearchFloat64s(ys, b.R.Y0), sort.SearchFloat64s(ys, b.R.Y1)
		c0, c1 := sort.SearchFloat64s(xs, b.R.X0), sort.SearchFloat64s(xs, b.R.X1)
		for r := r0; r < r1; r++ {
			row := t[r*cols : (r+1)*cols]
			for c := c0; c < c1; c++ {
				row[c] = int32(b.Core)
			}
		}
	}
	return t
}

// New20CoreCMP builds the paper's Figure 3 layout: 20 cores in four rows of
// five, with an L2 band above rows one and three, on a 340 mm^2 die.
func New20CoreCMP() *Floorplan {
	return NewCMP(20, 340)
}

// NewCMP builds a CMP floorplan with numCores cores (arranged in rows of
// five, or fewer for small configurations) interleaved with L2 bands in the
// style of Figure 3. Die area is in mm^2.
func NewCMP(numCores int, dieAreaMM2 float64) *Floorplan {
	if numCores <= 0 {
		panic(fmt.Sprintf("floorplan: invalid core count %d", numCores))
	}
	cols := 5
	if numCores < 5 {
		cols = numCores
	}
	rows := (numCores + cols - 1) / cols

	// One L2 band above every pair of core rows (Figure 3 has two bands
	// for four rows).
	l2Bands := (rows + 1) / 2
	const l2BandH = 0.10
	coreRowH := (1.0 - float64(l2Bands)*l2BandH) / float64(rows)
	coreW := 1.0 / float64(cols)

	f := &Floorplan{
		NumCores:   numCores,
		DieAreaMM2: dieAreaMM2,
		coreRects:  make([]Rect, numCores),
		byCore:     make([][]int, numCores),
	}

	y := 0.0
	core := 0
	for row := 0; row < rows; row++ {
		if row%2 == 0 {
			// L2 band split into two side-by-side banks.
			half := 0.5
			f.l2Blocks = append(f.l2Blocks, len(f.Blocks))
			f.Blocks = append(f.Blocks, Block{
				Name: fmt.Sprintf("L2.%d", len(f.l2Blocks)-1),
				Kind: UnitL2, Core: -1,
				R: Rect{0, y, half, y + l2BandH},
			})
			f.l2Blocks = append(f.l2Blocks, len(f.Blocks))
			f.Blocks = append(f.Blocks, Block{
				Name: fmt.Sprintf("L2.%d", len(f.l2Blocks)-1),
				Kind: UnitL2, Core: -1,
				R: Rect{half, y, 1, y + l2BandH},
			})
			y += l2BandH
		}
		for col := 0; col < cols && core < numCores; col++ {
			cr := Rect{
				X0: float64(col) * coreW, Y0: y,
				X1: float64(col+1) * coreW, Y1: y + coreRowH,
			}
			f.coreRects[core] = cr
			addCoreUnits(f, core, cr)
			core++
		}
		y += coreRowH
	}
	return f
}

// addCoreUnits subdivides a core rectangle into its six units, laid out in
// a 2-wide, 3-tall grid.
func addCoreUnits(f *Floorplan, core int, cr Rect) {
	kinds := CoreUnitKinds()
	uw := cr.Width() / 2
	uh := cr.Height() / 3
	for i, k := range kinds {
		col := i % 2
		row := i / 2
		b := Block{
			Name: fmt.Sprintf("C%d.%s", core+1, k),
			Kind: k,
			Core: core,
			R: Rect{
				X0: cr.X0 + float64(col)*uw, Y0: cr.Y0 + float64(row)*uh,
				X1: cr.X0 + float64(col+1)*uw, Y1: cr.Y0 + float64(row+1)*uh,
			},
		}
		f.byCore[core] = append(f.byCore[core], len(f.Blocks))
		f.Blocks = append(f.Blocks, b)
	}
}
