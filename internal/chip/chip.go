// Package chip assembles the device-level models into one manufactured
// die: it characterises each core's frequency and leakage from the die's
// variation maps (the "manufacturer profiling" of the paper's Table 3) and
// evaluates whole-chip power and temperature for a given assignment of
// threads and (V, f) operating points (what the on-chip sensors observe at
// run time).
package chip

import (
	"fmt"
	"sync"

	"vasched/internal/cpusim"
	"vasched/internal/delay"
	"vasched/internal/floorplan"
	"vasched/internal/power"
	"vasched/internal/stats"
	"vasched/internal/tech"
	"vasched/internal/thermal"
	"vasched/internal/varmodel"
	"vasched/internal/workload"
)

// Chip is one characterised die.
type Chip struct {
	FP    *floorplan.Floorplan
	Maps  *varmodel.DieMaps
	Tech  tech.Params
	Power power.Model
	Therm *thermal.Model

	// Paths holds each core's critical-path population.
	Paths []*delay.CorePaths
	// VFTable is the manufacturer (voltage, frequency) table per core,
	// rated at the worst-case temperature.
	VFTable [][]delay.VF
	// StaticAtLevel is the manufacturer-measured static power per core at
	// each ladder voltage (zero load, reference temperature), indexed
	// [core][level]. This is the VarP/VarP&AppP profile data.
	StaticAtLevel [][]float64
	// Levels is the voltage ladder shared by all tables.
	Levels []float64

	// Per-block leakage cache (constant per die): effective mean Vth and
	// nominal static share, indexed like FP.Blocks.
	blockVthEff []float64
	blockRefW   []float64
	// numL2 is the number of L2 banks, which share the L2 dynamic power.
	numL2 int
	// steppers caches transient thermal factorisations by step length;
	// stepMu makes the cache safe when one characterised die is shared by
	// concurrent timeline simulations (the farm engine's die cache hands
	// the same *Chip to every job that wants the same die).
	stepMu   sync.Mutex
	steppers map[float64]*thermal.Transient
	// evalPool recycles per-evaluation scratch buffers so the DVFS inner
	// loop's chip evaluations do not allocate per call; pooling (rather
	// than a single buffer set) keeps concurrent evaluations of a shared
	// die safe.
	evalPool sync.Pool
}

// evalScratch is one evaluation's worth of reusable buffers.
type evalScratch struct {
	dyn, coreDyn, total, rhs, leak []float64
	fps                            *thermal.FixedPointScratch
}

func (c *Chip) getScratch() *evalScratch {
	if sc, ok := c.evalPool.Get().(*evalScratch); ok {
		return sc
	}
	nb := len(c.FP.Blocks)
	return &evalScratch{
		dyn:     make([]float64, nb),
		coreDyn: make([]float64, c.NumCores()),
		total:   make([]float64, nb),
		rhs:     make([]float64, nb),
		leak:    make([]float64, nb),
		fps:     c.Therm.NewFixedPointScratch(),
	}
}

// Build characterises the die described by maps on the given floorplan.
func Build(maps *varmodel.DieMaps, fp *floorplan.Floorplan, dcfg delay.Config, pm power.Model, tcfg thermal.Config) (*Chip, error) {
	if err := pm.Validate(); err != nil {
		return nil, err
	}
	tm, err := thermal.New(fp, tcfg)
	if err != nil {
		return nil, err
	}
	c := &Chip{
		FP:    fp,
		Maps:  maps,
		Tech:  maps.Cfg.Tech,
		Power: pm,
		Therm: tm,
	}
	c.Levels = c.Tech.VoltageLevels()
	c.steppers = make(map[float64]*thermal.Transient)
	c.blockVthEff = make([]float64, len(fp.Blocks))
	c.blockRefW = make([]float64, len(fp.Blocks))
	for bi, b := range fp.Blocks {
		c.blockVthEff[bi], c.blockRefW[bi] = pm.BlockVthEff(maps, fp, b)
	}
	c.numL2 = len(fp.L2Blocks())
	rng := stats.NewRNG(maps.Seed).Derive(101)
	c.Paths = make([]*delay.CorePaths, fp.NumCores)
	c.VFTable = make([][]delay.VF, fp.NumCores)
	c.StaticAtLevel = make([][]float64, fp.NumCores)
	for core := 0; core < fp.NumCores; core++ {
		cp, err := delay.BuildCore(maps, fp, core, rng.Derive(int64(core)), dcfg)
		if err != nil {
			return nil, fmt.Errorf("chip: characterising core %d: %w", core, err)
		}
		c.Paths[core] = cp
		c.VFTable[core] = cp.VFTable(c.Levels, c.Tech.TRatingC)
		if len(c.VFTable[core]) == 0 {
			return nil, fmt.Errorf("chip: core %d supports no operating point", core)
		}
		row := make([]float64, len(c.Levels))
		for li, v := range c.Levels {
			row[li] = c.CoreStaticCached(core, v, c.Tech.TRefC)
		}
		c.StaticAtLevel[core] = row
	}
	return c, nil
}

// NumCores returns the core count.
func (c *Chip) NumCores() int { return c.FP.NumCores }

// FmaxAt returns the rated maximum frequency of core at supply v,
// interpolated down to the nearest tabulated voltage level. It returns 0
// if v is below every feasible level.
func (c *Chip) FmaxAt(core int, v float64) float64 {
	best := 0.0
	for _, vf := range c.VFTable[core] {
		if vf.V <= v+1e-9 && vf.F > best {
			best = vf.F
		}
	}
	return best
}

// FmaxNominal returns core's rated frequency at the nominal supply.
func (c *Chip) FmaxNominal(core int) float64 {
	return c.FmaxAt(core, c.Tech.VddNominal)
}

// MinLevelIndex returns the lowest ladder index at which core has a
// feasible operating point.
func (c *Chip) MinLevelIndex(core int) int {
	if len(c.VFTable[core]) == 0 {
		return len(c.Levels) - 1
	}
	vmin := c.VFTable[core][0].V
	for i, v := range c.Levels {
		if v >= vmin-1e-9 {
			return i
		}
	}
	return len(c.Levels) - 1
}

// LevelFor returns the index of the ladder level equal to v, or an error.
func (c *Chip) LevelFor(v float64) (int, error) {
	for i, lv := range c.Levels {
		if lv == v || (lv-v) < 1e-9 && (v-lv) < 1e-9 {
			return i, nil
		}
	}
	return 0, fmt.Errorf("chip: voltage %v not on the ladder", v)
}

// CoreState is one core's assignment for evaluation.
type CoreState struct {
	// App is the thread mapped to this core; nil means the core is
	// powered off.
	App *workload.AppProfile
	// V and F are the operating point. F must not exceed the core's rated
	// frequency at V.
	V, F float64
	// ElapsedMS is the thread's execution progress, used to select its
	// current phase.
	ElapsedMS float64
}

// dynamic power distribution across core units: fractions of the core's
// dynamic power dissipated in each block, for integer and FP codes.
var dynSplit = map[floorplan.UnitKind][2]float64{
	floorplan.UnitFrontend: {0.20, 0.18},
	floorplan.UnitIntExec:  {0.30, 0.17},
	floorplan.UnitFPExec:   {0.10, 0.25},
	floorplan.UnitLSU:      {0.15, 0.15},
	floorplan.UnitL1I:      {0.10, 0.08},
	floorplan.UnitL1D:      {0.15, 0.17},
}

// EvalResult reports whole-chip conditions for one assignment.
type EvalResult struct {
	TotalW  float64
	DynW    float64
	StaticW float64
	// CorePowerW is total (dynamic + leakage) power per core; powered-off
	// cores report 0.
	CorePowerW []float64
	// CoreTempC is the area-weighted mean temperature per core.
	CoreTempC []float64
	// CoreIPC is the achieved IPC per active core at its operating point.
	CoreIPC []float64
	// L2PowerW is the shared L2's total power.
	L2PowerW float64
	// BlockTempC has per-floorplan-block temperatures.
	BlockTempC []float64
	// ThermalIters is the number of leakage-temperature iterations used.
	ThermalIters int
}

// assembleDynamic computes per-block dynamic power and per-core IPC for
// the given states. dyn and coreDyn are caller-provided buffers (cleared
// here); coreIPC is freshly allocated because it escapes into the result.
func (c *Chip) assembleDynamic(dyn, coreDyn []float64, states []CoreState, cpu *cpusim.Model) (coreIPC []float64, err error) {
	coreIPC = make([]float64, c.NumCores())
	if err := c.assembleDynamicInto(dyn, coreDyn, coreIPC, states, cpu); err != nil {
		return nil, err
	}
	return coreIPC, nil
}

// assembleDynamicInto is assembleDynamic with a caller-provided coreIPC
// buffer — the zero-allocation form the time-stepped simulations use.
func (c *Chip) assembleDynamicInto(dyn, coreDyn, coreIPC []float64, states []CoreState, cpu *cpusim.Model) error {
	if len(states) != c.NumCores() {
		return fmt.Errorf("chip: %d states for %d cores", len(states), c.NumCores())
	}
	clear(dyn)
	clear(coreDyn)
	clear(coreIPC)
	l2Accesses := 0.0

	for core, st := range states {
		if st.App == nil {
			continue
		}
		if st.F <= 0 || st.V <= 0 {
			return fmt.Errorf("chip: core %d active with invalid (V,f)=(%v,%v)", core, st.V, st.F)
		}
		if rated := c.FmaxAt(core, st.V); st.F > rated+1e-6 {
			return fmt.Errorf("chip: core %d frequency %.3g exceeds rated %.3g at %.2fV",
				core, st.F, rated, st.V)
		}
		phase := st.App.PhaseAt(st.ElapsedMS)
		ipc, err := cpu.IPC(st.App, phase, st.F)
		if err != nil {
			return err
		}
		coreIPC[core] = ipc
		// Dynamic power: the profile's Table 5 number scaled by (V,f) and
		// activity; the phase's power scale rides on the activity term.
		nomIPC := st.App.IPCNom
		dynW := c.Power.DynamicCoreW(st.App.DynPowerW*phase.PowerScale, nomIPC, st.V, st.F, ipc)
		coreDyn[core] = dynW
		l2Accesses += cpu.L2AccessRate(st.App, st.F, ipc)
	}

	// Distribute core dynamic power over units and L2 dynamic over banks.
	blocks := c.FP.Blocks
	for bi := range blocks {
		b := &blocks[bi]
		if b.Kind == floorplan.UnitL2 {
			continue
		}
		st := states[b.Core]
		if st.App == nil {
			continue
		}
		idx := 0
		if st.App.FP {
			idx = 1
		}
		dyn[bi] = coreDyn[b.Core] * dynSplit[b.Kind][idx]
	}
	l2DynTotal := c.Power.L2DynamicW(l2Accesses)
	for bi := range blocks {
		if blocks[bi].Kind == floorplan.UnitL2 {
			dyn[bi] = l2DynTotal / float64(c.numL2)
		}
	}
	return nil
}

// leakageFn returns the per-block leakage closure for the given states:
// active core blocks leak at the core's supply; L2 leaks at nominal;
// powered-off cores are gated (no leakage). The caller-provided leak
// slice is reused across calls of the closure.
func (c *Chip) leakageFn(leak []float64, states []CoreState) func(temps []float64) []float64 {
	return func(temps []float64) []float64 {
		blocks := c.FP.Blocks
		for bi := range blocks {
			b := &blocks[bi]
			switch {
			case b.Kind == floorplan.UnitL2:
				leak[bi] = c.Power.BlockStaticFromCache(c.blockVthEff[bi], c.blockRefW[bi],
					c.Maps.VthSigmaRan, c.Tech.VddNominal, temps[bi])
			case states[b.Core].App != nil:
				leak[bi] = c.Power.BlockStaticFromCache(c.blockVthEff[bi], c.blockRefW[bi],
					c.Maps.VthSigmaRan, states[b.Core].V, temps[bi])
			default:
				leak[bi] = 0
			}
		}
		return leak
	}
}

// Evaluate computes the chip's steady-state power and temperature for the
// given core states, using cpu to obtain per-thread IPC and the Su et al.
// leakage-temperature fixed point for the static power.
func (c *Chip) Evaluate(states []CoreState, cpu *cpusim.Model) (*EvalResult, error) {
	sc := c.getScratch()
	defer c.evalPool.Put(sc)
	coreIPC, err := c.assembleDynamic(sc.dyn, sc.coreDyn, states, cpu)
	if err != nil {
		return nil, err
	}
	temps, leak, iters, err := c.Therm.FixedPointWith(sc.fps, sc.dyn, c.leakageFn(sc.leak, states), 0.01, 60)
	if err != nil {
		return nil, err
	}
	// temps aliases the pooled scratch; the result retains its own copy.
	tout := make([]float64, len(temps))
	copy(tout, temps)
	return c.buildResult(states, sc.dyn, leak, tout, coreIPC, iters), nil
}

// EvaluateTransientInto advances the chip's thermal state by dtMS from
// prevBlockTemps under the given core states, writing into a caller-owned
// result: leakage is evaluated at the previous temperatures (explicit) and
// conduction integrated implicitly. Unlike Evaluate, temperatures carry
// inertia across calls — the model activity-migration policies need. A nil
// prevBlockTemps starts from ambient. out's slices are reused when already
// sized for this chip, so a tight stepping loop (core.System.Run)
// allocates nothing per tick after the first call. prevBlockTemps must not
// alias out.BlockTempC — keep a separate previous-temperature buffer and
// copy out.BlockTempC into it between steps.
func (c *Chip) EvaluateTransientInto(out *EvalResult, states []CoreState, cpu *cpusim.Model, prevBlockTemps []float64, dtMS float64) error {
	sc := c.getScratch()
	defer c.evalPool.Put(sc)
	nb := len(c.FP.Blocks)
	nc := c.NumCores()
	if len(out.CorePowerW) != nc {
		out.CorePowerW = make([]float64, nc)
	}
	if len(out.CoreTempC) != nc {
		out.CoreTempC = make([]float64, nc)
	}
	if len(out.CoreIPC) != nc {
		out.CoreIPC = make([]float64, nc)
	}
	if len(out.BlockTempC) != nb {
		out.BlockTempC = make([]float64, nb)
	}
	dyn := sc.dyn
	if err := c.assembleDynamicInto(dyn, sc.coreDyn, out.CoreIPC, states, cpu); err != nil {
		return err
	}
	stepper, err := c.stepperFor(dtMS)
	if err != nil {
		return err
	}
	if prevBlockTemps == nil {
		prevBlockTemps = c.Therm.AmbientTemps(nil)
	}
	leak := c.leakageFn(sc.leak, states)(prevBlockTemps)
	total := sc.total
	for i := range total {
		total[i] = dyn[i] + leak[i]
	}
	if err := stepper.StepInto(out.BlockTempC, sc.rhs, total, prevBlockTemps); err != nil {
		return err
	}
	c.buildResultInto(out, states, dyn, leak, out.BlockTempC, 1)
	return nil
}

// stepperFor returns the cached transient stepper for dtMS, factorising on
// first use.
func (c *Chip) stepperFor(dtMS float64) (*thermal.Transient, error) {
	c.stepMu.Lock()
	stepper, ok := c.steppers[dtMS]
	c.stepMu.Unlock()
	if ok {
		return stepper, nil
	}
	stepper, err := c.Therm.NewTransient(dtMS)
	if err != nil {
		return nil, err
	}
	c.stepMu.Lock()
	if prior, ok := c.steppers[dtMS]; ok {
		stepper = prior // another goroutine factorised first; share it
	} else {
		c.steppers[dtMS] = stepper
	}
	c.stepMu.Unlock()
	return stepper, nil
}

// buildResult aggregates per-block power and temperatures into the
// caller-facing summary.
func (c *Chip) buildResult(states []CoreState, dyn, leak, temps []float64, coreIPC []float64, iters int) *EvalResult {
	res := &EvalResult{
		CorePowerW: make([]float64, c.NumCores()),
		CoreTempC:  make([]float64, c.NumCores()),
		CoreIPC:    coreIPC,
		BlockTempC: temps,
	}
	c.buildResultInto(res, states, dyn, leak, temps, iters)
	return res
}

// buildResultInto fills res's aggregates in place. res.CorePowerW,
// res.CoreTempC and res.BlockTempC must already be sized; temps may alias
// res.BlockTempC.
func (c *Chip) buildResultInto(res *EvalResult, states []CoreState, dyn, leak, temps []float64, iters int) {
	res.TotalW, res.DynW, res.StaticW, res.L2PowerW = 0, 0, 0, 0
	res.ThermalIters = iters
	clear(res.CorePowerW)
	blocks := c.FP.Blocks
	for bi := range blocks {
		b := &blocks[bi]
		p := dyn[bi] + leak[bi]
		res.TotalW += p
		res.DynW += dyn[bi]
		res.StaticW += leak[bi]
		if b.Kind == floorplan.UnitL2 {
			res.L2PowerW += p
		} else {
			res.CorePowerW[b.Core] += p
		}
	}
	for core := 0; core < c.NumCores(); core++ {
		res.CoreTempC[core] = c.Therm.CoreMeanTemp(temps, core)
	}
}

// CoreStaticCached returns core's static power at supply v and uniform
// block temperature tempC using the per-die leakage cache; it matches
// power.Model.CoreStaticW.
func (c *Chip) CoreStaticCached(core int, v, tempC float64) float64 {
	sum := 0.0
	blocks := c.FP.Blocks
	for bi := range blocks {
		if blocks[bi].Core == core {
			sum += c.Power.BlockStaticFromCache(c.blockVthEff[bi], c.blockRefW[bi], c.Maps.VthSigmaRan, v, tempC)
		}
	}
	return sum
}

// OffStates returns a state slice with every core powered off, for callers
// that activate a subset.
func (c *Chip) OffStates() []CoreState {
	return make([]CoreState, c.NumCores())
}
