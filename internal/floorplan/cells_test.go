package floorplan

import "testing"

// TestCellCoresMatchBlockAt compares the cell table with locating every
// cell centre through BlockAt, on every small CMP and on square and
// non-square grids from 1x1 to 256x256; an empty grid has no cells.
func TestCellCoresMatchBlockAt(t *testing.T) {
	shapes := [][2]int{
		{1, 1}, {1, 7}, {7, 1}, {2, 3}, {5, 5}, {10, 10}, {13, 29},
		{64, 64}, {100, 37}, {37, 100}, {128, 256}, {255, 256}, {256, 256},
	}
	for n := 1; n <= 20; n++ {
		f := NewCMP(n, 340)
		for _, sh := range shapes {
			rows, cols := sh[0], sh[1]
			cells := f.CellCores(rows, cols)
			if len(cells) != rows*cols {
				t.Fatalf("%d cores, %dx%d grid: %d cells", n, rows, cols, len(cells))
			}
			for r := 0; r < rows; r++ {
				y := (float64(r) + 0.5) / float64(rows)
				for c := 0; c < cols; c++ {
					x := (float64(c) + 0.5) / float64(cols)
					want := -1
					if bi := f.BlockAt(x, y); bi >= 0 {
						want = f.Blocks[bi].Core
					}
					if got := int(cells[r*cols+c]); got != want {
						t.Fatalf("%d cores, %dx%d grid, cell (%d, %d): table says core %d, BlockAt %d",
							n, rows, cols, r, c, got, want)
					}
				}
			}
		}
	}
	if f := New20CoreCMP(); f.CellCores(0, 5) != nil || f.CellCores(5, 0) != nil {
		t.Fatal("an empty grid has cells")
	}
}
