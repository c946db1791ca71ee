package chip

import (
	"math"
	"math/rand"
	"testing"

	"vasched/internal/floorplan"
	"vasched/internal/workload"
)

// refLeakInto is leakInto as it was before its exponentials were
// batched, frozen as the reference: one block at a time, each through
// the law's Factor and RandomUplift, two math.Exp calls per block.
func refLeakInto(c *Chip, leak []float64, states []CoreState, temps []float64) []float64 {
	sigma := c.Maps.VthSigmaRan
	blocks := c.FP.Blocks
	for bi := range blocks {
		b := &blocks[bi]
		v := c.Tech.VddNominal
		if b.Kind != floorplan.UnitL2 {
			if states[b.Core].App == nil {
				leak[bi] = 0
				continue
			}
			v = states[b.Core].V
		}
		leak[bi] = c.blockStatic(bi, v, temps[bi], c.leakLaw.RandomUplift(sigma, temps[bi]))
	}
	return leak
}

// drawStates powers each core with probability 3/4 (every core on draw
// 0, none on draw 1), running a random SPEC app at a ladder voltage:
// voltage level (core+draw) mod levels, or, when feasible is set, a
// random level the core supports, at its rated frequency there.
func drawStates(c *Chip, g *rand.Rand, draw int, feasible bool) []CoreState {
	apps := workload.SPEC()
	st := c.OffStates()
	for core := range st {
		if draw == 1 || (draw != 0 && g.Intn(4) == 0) {
			continue
		}
		lvl := (core + draw) % len(c.Levels)
		if feasible {
			lo := c.MinLevelIndex(core)
			lvl = lo + g.Intn(len(c.Levels)-lo)
		}
		v := c.Levels[lvl]
		st[core] = CoreState{App: apps[g.Intn(len(apps))], V: v, F: c.FmaxAt(core, v), ElapsedMS: 100 * g.Float64()}
	}
	return st
}

// TestLeakIntoMatchesFrozenLoop compares leakInto with the frozen
// per-block loop bit for bit, over drawn states (powered-off cores, L2
// banks, every ladder voltage on every core) at block temperatures drawn
// from ambient to the clamp, the clamp and ambient included.
func TestLeakIntoMatchesFrozenLoop(t *testing.T) {
	c, _ := testChip(t)
	cfg := c.Therm.Config()
	g := rand.New(rand.NewSource(20))
	nb := len(c.FP.Blocks)
	got, want, exps, temps, on := make([]float64, nb), make([]float64, nb), make([]float64, 2*nb), make([]float64, nb), make([]int32, nb)
	for draw := 0; draw < 300; draw++ {
		st := drawStates(c, g, draw, false)
		for bi := range temps {
			switch g.Intn(10) {
			case 0:
				temps[bi] = cfg.AmbientC
			case 1:
				temps[bi] = cfg.MaxTempC
			default:
				temps[bi] = cfg.AmbientC + (cfg.MaxTempC-cfg.AmbientC)*g.Float64()
			}
		}
		c.leakInto(got, exps, on, st, temps)
		refLeakInto(c, want, st, temps)
		for bi := range want {
			if math.Float64bits(got[bi]) != math.Float64bits(want[bi]) {
				t.Fatalf("draw %d block %d at %v °C: leakInto %v W, frozen loop %v W", draw, bi, temps[bi], got[bi], want[bi])
			}
		}
	}
}

// TestEvaluateMatchesFrozenLeakage runs the steady-state fixed point and
// transient steps with leakInto and with the frozen loop on drawn
// feasible states, and requires the same bits in every result.
func TestEvaluateMatchesFrozenLeakage(t *testing.T) {
	c, cpu := testChip(t)
	g := rand.New(rand.NewSource(21))
	nb := len(c.FP.Blocks)
	dyn, coreDyn, leak := make([]float64, nb), make([]float64, c.NumCores()), make([]float64, nb)
	for draw := 0; draw < 12; draw++ {
		st := drawStates(c, g, draw, true)
		got, err := c.Evaluate(st, cpu)
		if err != nil {
			t.Fatal(err)
		}
		coreIPC, err := c.assembleDynamic(dyn, coreDyn, st, cpu)
		if err != nil {
			t.Fatal(err)
		}
		frozen := func(temps []float64) []float64 { return refLeakInto(c, leak, st, temps) }
		temps, lk, iters, err := c.Therm.FixedPointWith(c.Therm.NewFixedPointScratch(), dyn, frozen, 0.01, 60)
		if err != nil {
			t.Fatal(err)
		}
		want := c.buildResult(st, dyn, lk, temps, coreIPC, iters)
		sameResult(t, "steady", draw, got, want)
	}

	// Transient: the same ticks through Step and through a copy of Step
	// that leaks through the frozen loop, with new states every 8 ticks.
	ts, ref := c.NewTransientState(), c.NewTransientState()
	st := drawStates(c, g, 0, true)
	for tick := 0; tick < 40; tick++ {
		if tick%8 == 0 {
			st = drawStates(c, g, tick/8, true)
			if err := ts.Assemble(st, cpu); err != nil {
				t.Fatal(err)
			}
			if err := ref.Assemble(st, cpu); err != nil {
				t.Fatal(err)
			}
		}
		got, err := ts.Step(st, 1)
		if err != nil {
			t.Fatal(err)
		}
		want, err := ref.frozenStep(st, 1)
		if err != nil {
			t.Fatal(err)
		}
		sameResult(t, "transient", tick, got, want)
	}
}

// frozenStep is Step with the frozen leakage loop.
func (ts *TransientState) frozenStep(states []CoreState, dtMS float64) (*EvalResult, error) {
	c := ts.c
	stepper, err := c.stepperFor(dtMS)
	if err != nil {
		return nil, err
	}
	copy(ts.prev, ts.res.BlockTempC)
	leak := refLeakInto(c, ts.leak, states, ts.prev)
	for i := range ts.total {
		ts.total[i] = ts.dyn[i] + leak[i]
	}
	if err := stepper.StepInto(ts.res.BlockTempC, ts.rhs, ts.total, ts.prev); err != nil {
		return nil, err
	}
	c.buildResultInto(&ts.res, states, ts.dyn, leak, ts.res.BlockTempC, 1)
	return &ts.res, nil
}

// sameResult requires the same bits in every field of two results.
func sameResult(t *testing.T, what string, i int, got, want *EvalResult) {
	t.Helper()
	same := func(a, b []float64) bool {
		if len(a) != len(b) {
			return false
		}
		for k := range a {
			if math.Float64bits(a[k]) != math.Float64bits(b[k]) {
				return false
			}
		}
		return true
	}
	if !same([]float64{got.TotalW, got.DynW, got.StaticW, got.L2PowerW}, []float64{want.TotalW, want.DynW, want.StaticW, want.L2PowerW}) ||
		got.ThermalIters != want.ThermalIters ||
		!same(got.BlockTempC, want.BlockTempC) || !same(got.CorePowerW, want.CorePowerW) ||
		!same(got.CoreTempC, want.CoreTempC) || !same(got.CoreIPC, want.CoreIPC) {
		t.Fatalf("%s %d: results differ: total %v / %v W, static %v / %v W, %d / %d iterations",
			what, i, got.TotalW, want.TotalW, got.StaticW, want.StaticW, got.ThermalIters, want.ThermalIters)
	}
}
