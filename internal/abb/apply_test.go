package abb

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

// frozenApply is Apply's former loop, which located every cell centre
// through BlockAt, frozen to pin the cell-table form against it.
func frozenApply(maps *varmodel.DieMaps, fp *floorplan.Floorplan, bias Assignment, cfg Config) []float64 {
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
			data[r*cols+c] -= cfg.VthPerBiasV * bias[core]
		}
	}
	return data
}

// TestApplyMatchesFrozenLoop compares Apply with the frozen BlockAt loop
// bit for bit over drawn per-core biases on the DAC's levels.
func TestApplyMatchesFrozenLoop(t *testing.T) {
	c := base(t)
	cfg := DefaultConfig()
	levels := cfg.biasLevels()
	rng := stats.NewRNG(5)
	for draw := 0; draw < 8; draw++ {
		bias := make(Assignment, c.NumCores())
		for core := range bias {
			bias[core] = levels[rng.Intn(len(levels))]
		}
		maps, err := Apply(c.Maps, c.FP, bias, cfg)
		if err != nil {
			t.Fatal(err)
		}
		want := frozenApply(c.Maps, c.FP, bias, cfg)
		for i, got := range maps.VthSys.Data {
			if math.Float64bits(got) != math.Float64bits(want[i]) {
				t.Fatalf("draw %d, cell %d: %v, frozen loop %v", draw, i, got, want[i])
			}
		}
	}
}

// TestZeroBiasRebuildsTheSameChip checks that a die rebuilt from
// zero-bias maps has the base chip's V/f and static-power tables bit for
// bit.
func TestZeroBiasRebuildsTheSameChip(t *testing.T) {
	c := base(t)
	maps, err := Apply(c.Maps, c.FP, make(Assignment, c.NumCores()), DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	same, err := chip.Build(maps, c.FP, delay.DefaultConfig(), power.DefaultModel(c.Tech), thermal.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	for core := 0; core < c.NumCores(); core++ {
		if len(same.VFTable[core]) != len(c.VFTable[core]) {
			t.Fatalf("core %d: V/f table length changed", core)
		}
		for i, vf := range c.VFTable[core] {
			if got := same.VFTable[core][i]; math.Float64bits(got.F) != math.Float64bits(vf.F) || got.V != vf.V {
				t.Fatalf("core %d entry %d: %+v vs %+v", core, i, got, vf)
			}
		}
		for li, w := range c.StaticAtLevel[core] {
			if got := same.StaticAtLevel[core][li]; math.Float64bits(got) != math.Float64bits(w) {
				t.Fatalf("core %d level %d: static power %v vs %v", core, li, got, w)
			}
		}
	}
}
