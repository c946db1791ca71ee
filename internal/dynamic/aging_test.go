package dynamic

import (
	"math"
	"testing"

	"vasched/internal/chip"
	"vasched/internal/delay"
	"vasched/internal/floorplan"
	"vasched/internal/power"
	"vasched/internal/stats"
	"vasched/internal/thermal"
	"vasched/internal/varmodel"
)

// frozenAgeMaps is AgeMaps' former loop, which located every cell centre
// through BlockAt, frozen to pin the cell-table form against it.
func frozenAgeMaps(maps *varmodel.DieMaps, fp *floorplan.Floorplan, dVth []float64) []float64 {
	field := *maps.VthSys
	data := append([]float64(nil), maps.VthSys.Data...)
	rows, cols := field.Rows, field.Cols
	for r := 0; r < rows; r++ {
		y := (float64(r) + 0.5) / float64(rows)
		for c := 0; c < cols; c++ {
			x := (float64(c) + 0.5) / float64(cols)
			bi := fp.BlockAt(x, y)
			if bi < 0 {
				continue
			}
			core := fp.Blocks[bi].Core
			if core < 0 {
				continue
			}
			data[r*cols+c] += dVth[core]
		}
	}
	return data
}

// drawShifts draws non-negative per-core Vth shifts up to maxV, leaving
// about a quarter of the cores unshifted.
func drawShifts(rng *stats.RNG, n int, maxV float64) []float64 {
	d := make([]float64, n)
	for i := range d {
		if rng.Float64() < 0.75 {
			d[i] = maxV * rng.Float64()
		}
	}
	return d
}

// TestHorizonAgeMapsMatchesFrozenLoop compares AgeMaps with the frozen
// BlockAt loop bit for bit over drawn shifts.
func TestHorizonAgeMapsMatchesFrozenLoop(t *testing.T) {
	c, _ := testParts(t)
	rng := stats.NewRNG(41)
	for draw := 0; draw < 8; draw++ {
		dVth := drawShifts(rng, c.NumCores(), 0.06)
		aged, err := AgeMaps(c.Maps, c.FP, dVth)
		if err != nil {
			t.Fatal(err)
		}
		want := frozenAgeMaps(c.Maps, c.FP, dVth)
		for i, got := range aged.VthSys.Data {
			if math.Float64bits(got) != math.Float64bits(want[i]) {
				t.Fatalf("draw %d, cell %d: %v, frozen loop %v", draw, i, got, want[i])
			}
		}
	}
}

// TestHorizonAgedDieNeverFaster is the metamorphic aging invariant per
// core: raising each core's Vth by a drawn non-negative shift never makes
// any core faster or leakier at any ladder level, and a zero shift
// rebuilds the fresh chip's tables bit for bit. It runs the cell table,
// the delay law and the leakage law together through chip.Build.
func TestHorizonAgedDieNeverFaster(t *testing.T) {
	fresh, _ := testParts(t)
	build := func(dVth []float64) *chip.Chip {
		t.Helper()
		maps, err := AgeMaps(fresh.Maps, fresh.FP, dVth)
		if err != nil {
			t.Fatal(err)
		}
		c, err := chip.Build(maps, fresh.FP, delay.DefaultConfig(),
			power.DefaultModel(testVarCfg().Tech), thermal.DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		return c
	}

	same := build(make([]float64, fresh.NumCores()))
	for core := 0; core < fresh.NumCores(); core++ {
		if len(same.VFTable[core]) != len(fresh.VFTable[core]) {
			t.Fatalf("core %d: zero shift changed the V/f table length", core)
		}
		for i, vf := range fresh.VFTable[core] {
			if got := same.VFTable[core][i]; math.Float64bits(got.V) != math.Float64bits(vf.V) ||
				math.Float64bits(got.F) != math.Float64bits(vf.F) {
				t.Fatalf("core %d: zero shift changed V/f entry %d: %+v vs %+v", core, i, got, vf)
			}
		}
		for li, w := range fresh.StaticAtLevel[core] {
			if got := same.StaticAtLevel[core][li]; math.Float64bits(got) != math.Float64bits(w) {
				t.Fatalf("core %d level %d: zero shift changed static power %v to %v", core, li, w, got)
			}
		}
	}

	rng := stats.NewRNG(7)
	slower := 0
	for draw := 0; draw < 4; draw++ {
		aged := build(drawShifts(rng, fresh.NumCores(), 0.06))
		for core := 0; core < fresh.NumCores(); core++ {
			for li, v := range fresh.Levels {
				fa, ff := aged.FmaxAt(core, v), fresh.FmaxAt(core, v)
				if fa > ff {
					t.Fatalf("draw %d core %d at %.2f V: aged %v Hz faster than fresh %v Hz", draw, core, v, fa, ff)
				}
				if fa < ff {
					slower++
				}
				if sa, sf := aged.StaticAtLevel[core][li], fresh.StaticAtLevel[core][li]; sa > sf {
					t.Fatalf("draw %d core %d at %.2f V: aged leaks %v W, fresh %v W", draw, core, v, sa, sf)
				}
			}
		}
	}
	if slower == 0 {
		t.Fatal("no drawn shift slowed any core")
	}
}
