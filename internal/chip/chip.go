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
	// nominal static share, indexed like FP.Blocks, and the power model's
	// leakage law.
	blockVthEff []float64
	blockRefW   []float64
	leakLaw     tech.LeakageLaw
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
	dyn, coreDyn, leak []float64
	fps                *thermal.FixedPointScratch
}

func (c *Chip) getScratch() *evalScratch {
	if sc, ok := c.evalPool.Get().(*evalScratch); ok {
		return sc
	}
	nb := len(c.FP.Blocks)
	return &evalScratch{
		dyn:     make([]float64, nb),
		coreDyn: make([]float64, c.NumCores()),
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
	c.leakLaw = pm.Tech.Leakage()
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
// dynamic power dissipated in each block, for integer and FP codes,
// indexed by unit kind (L2 banks share the L2 dynamic power instead).
var dynSplit = [...][2]float64{
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

// blockStatic returns block bi's static power at supply v and temperature
// tempC from the per-die cache, given the random-variation uplift at
// tempC. It matches power.Model.BlockStaticW up to rounding.
func (c *Chip) blockStatic(bi int, v, tempC, uplift float64) float64 {
	return c.blockRefW[bi] * c.leakLaw.Factor(c.blockVthEff[bi], v, tempC) * uplift
}

// leakInto writes the per-block leakage for the given states at block
// temperatures temps into leak: active core blocks leak at the core's
// supply; L2 leaks at nominal; powered-off cores are gated (no leakage).
func (c *Chip) leakInto(leak []float64, states []CoreState, temps []float64) []float64 {
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
	leakage := func(temps []float64) []float64 { return c.leakInto(sc.leak, states, temps) }
	temps, leak, iters, err := c.Therm.FixedPointWith(sc.fps, sc.dyn, leakage, 0.01, 60)
	if err != nil {
		return nil, err
	}
	// temps aliases the pooled scratch; the result retains its own copy.
	tout := make([]float64, len(temps))
	copy(tout, temps)
	return c.buildResult(states, sc.dyn, leak, tout, coreIPC, iters), nil
}

// TransientState is one time-stepped run's private thermal state on a
// chip: the block temperatures the next step starts from, the dynamic
// power and IPCs last assembled, the resolved thermal stepper and the
// result's buffers. Unlike Evaluate, temperatures carry inertia across
// steps. A run calls Assemble when its operating points change and Step
// on every tick; a tick whose operating points did not change skips
// Assemble, because the dynamic power and IPCs it would compute are the
// ones already held. After its first step a run allocates nothing and
// takes no lock (a step of a new length resolves its stepper once). The
// chip may be shared; a TransientState must not be.
type TransientState struct {
	c                              *Chip
	dyn, coreDyn, leak, total, rhs []float64
	prev                           []float64 // block temperatures the next step starts from
	stepper                        *thermal.Transient
	dtMS                           float64
	res                            EvalResult
}

// NewTransientState returns a run state at ambient temperature with no
// dynamic power assembled.
func (c *Chip) NewTransientState() *TransientState {
	nb, nc := len(c.FP.Blocks), c.NumCores()
	return &TransientState{
		c:       c,
		dyn:     make([]float64, nb),
		coreDyn: make([]float64, nc),
		leak:    make([]float64, nb),
		total:   make([]float64, nb),
		rhs:     make([]float64, nb),
		prev:    make([]float64, nb),
		res: EvalResult{
			CorePowerW: make([]float64, nc),
			CoreTempC:  make([]float64, nc),
			CoreIPC:    make([]float64, nc),
			BlockTempC: c.Therm.AmbientTemps(nil),
		},
	}
}

// Assemble computes the per-block dynamic power and per-core IPC of the
// given states, which the following steps integrate.
func (ts *TransientState) Assemble(states []CoreState, cpu *cpusim.Model) error {
	return ts.c.assembleDynamicInto(ts.dyn, ts.coreDyn, ts.res.CoreIPC, states, cpu)
}

// Step advances the thermal state by dtMS under the last assembled dynamic
// power: leakage of the given states is evaluated at the previous
// temperatures (explicit) and conduction integrated implicitly. The
// returned result is owned by ts and overwritten by the next Step.
func (ts *TransientState) Step(states []CoreState, dtMS float64) (*EvalResult, error) {
	c := ts.c
	if ts.stepper == nil || dtMS != ts.dtMS {
		stepper, err := c.stepperFor(dtMS)
		if err != nil {
			return nil, err
		}
		ts.stepper, ts.dtMS = stepper, dtMS
	}
	copy(ts.prev, ts.res.BlockTempC)
	leak := c.leakInto(ts.leak, states, ts.prev)
	for i := range ts.total {
		ts.total[i] = ts.dyn[i] + leak[i]
	}
	if err := ts.stepper.StepInto(ts.res.BlockTempC, ts.rhs, ts.total, ts.prev); err != nil {
		return nil, err
	}
	c.buildResultInto(&ts.res, states, ts.dyn, leak, ts.res.BlockTempC, 1)
	return &ts.res, nil
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
	uplift := c.leakLaw.RandomUplift(c.Maps.VthSigmaRan, tempC)
	sum := 0.0
	for _, bi := range c.FP.CoreBlockIndices(core) {
		sum += c.blockStatic(bi, v, tempC, uplift)
	}
	return sum
}

// OffStates returns a state slice with every core powered off, for callers
// that activate a subset.
func (c *Chip) OffStates() []CoreState {
	return make([]CoreState, c.NumCores())
}
