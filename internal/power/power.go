// Package power models chip power consumption: static (leakage) power per
// block from the variation maps via the tech leakage law, and dynamic power
// per core from the running thread's activity. The constants are calibrated
// so that a nominal 20-core die lands in the paper's 50-100 W operating
// envelope, with per-core dynamic power spanning Table 5's 1.5-4.4 W range.
package power

import (
	"fmt"

	"vasched/internal/floorplan"
	"vasched/internal/tech"
	"vasched/internal/varmodel"
)

// Model holds the power-model calibration.
type Model struct {
	// Tech supplies the leakage and delay laws.
	Tech tech.Params
	// CoreStaticNomW is one core's static power at (VddNominal, TRefC)
	// with nominal (variation-free) process parameters.
	CoreStaticNomW float64
	// L2StaticNomW is the whole shared L2's static power at the same
	// reference point. The L2 stays on the nominal supply (it is shared,
	// so per-core DVFS does not scale it).
	L2StaticNomW float64
	// SRAMLeakWeight boosts the per-area leakage density of SRAM blocks
	// relative to logic (dense arrays leak more per unit area).
	SRAMLeakWeight float64
	// ClockFrac is the fraction of a core's dynamic power consumed by the
	// clock tree and other activity that persists while the pipeline
	// stalls; the rest scales with IPC.
	ClockFrac float64
	// L2DynPerAccessJ is the dynamic energy per L2 access.
	L2DynPerAccessJ float64
}

// DefaultModel returns the calibrated 32 nm model.
func DefaultModel(t tech.Params) Model {
	return Model{
		Tech:            t,
		CoreStaticNomW:  2.0,
		L2StaticNomW:    5.0,
		SRAMLeakWeight:  1.5,
		ClockFrac:       0.35,
		L2DynPerAccessJ: 2.0e-9,
	}
}

// Validate reports calibration errors.
func (m Model) Validate() error {
	if m.CoreStaticNomW <= 0 || m.L2StaticNomW < 0 {
		return fmt.Errorf("power: non-positive static calibration")
	}
	if m.ClockFrac < 0 || m.ClockFrac > 1 {
		return fmt.Errorf("power: clock fraction %v outside [0,1]", m.ClockFrac)
	}
	if m.SRAMLeakWeight <= 0 {
		return fmt.Errorf("power: non-positive SRAM leakage weight")
	}
	return m.Tech.Validate()
}

// BlockStaticW returns the static power of floorplan block b on the given
// die at supply v and block temperature tempC. Core blocks share the
// core's supply; L2 blocks are always at the nominal supply.
func (m Model) BlockStaticW(maps *varmodel.DieMaps, fp *floorplan.Floorplan, b floorplan.Block, v, tempC float64) float64 {
	vth := maps.VthMeanOverRect(b.R.X0, b.R.Y0, b.R.X1, b.R.Y1)
	leff := maps.LeffMeanOverRect(b.R.X0, b.R.Y0, b.R.X1, b.R.Y1)
	// Short-channel coupling: regions with shorter gates leak more.
	vth = m.Tech.EffectiveVth(vth, leff)
	law := m.Tech.Leakage()
	uplift := law.RandomUplift(maps.VthSigmaRan, tempC)
	factor := law.Factor(vth, v, tempC) * uplift

	if b.Kind == floorplan.UnitL2 {
		// Distribute the L2 budget over the banks by area.
		l2Area := 0.0
		for _, lb := range fp.L2Blocks() {
			l2Area += lb.R.Area()
		}
		return m.L2StaticNomW * (b.R.Area() / l2Area) * factor
	}

	// Distribute the core budget over the core's blocks by weighted area.
	coreBlocks := fp.CoreBlocks(b.Core)
	total := 0.0
	for _, cb := range coreBlocks {
		total += m.blockWeight(cb)
	}
	return m.CoreStaticNomW * (m.blockWeight(b) / total) * factor
}

func (m Model) blockWeight(b floorplan.Block) float64 {
	w := b.R.Area()
	if b.Kind.IsSRAM() {
		w *= m.SRAMLeakWeight
	}
	return w
}

// BlockVthEff returns the block's effective (roll-off-coupled) mean
// threshold voltage and its nominal static power share at the reference
// point. Callers that evaluate leakage repeatedly (the thermal fixed point
// runs per millisecond of simulated time) cache these per-die constants
// and evaluate refW * Factor(vthEff) * RandomUplift through one
// tech.LeakageLaw instead of calling BlockStaticW.
func (m Model) BlockVthEff(maps *varmodel.DieMaps, fp *floorplan.Floorplan, b floorplan.Block) (vthEff, refW float64) {
	vth := maps.VthMeanOverRect(b.R.X0, b.R.Y0, b.R.X1, b.R.Y1)
	leff := maps.LeffMeanOverRect(b.R.X0, b.R.Y0, b.R.X1, b.R.Y1)
	vthEff = m.Tech.EffectiveVth(vth, leff)
	if b.Kind == floorplan.UnitL2 {
		l2Area := 0.0
		for _, lb := range fp.L2Blocks() {
			l2Area += lb.R.Area()
		}
		return vthEff, m.L2StaticNomW * (b.R.Area() / l2Area)
	}
	total := 0.0
	for _, cb := range fp.CoreBlocks(b.Core) {
		total += m.blockWeight(cb)
	}
	return vthEff, m.CoreStaticNomW * (m.blockWeight(b) / total)
}

// CoreStaticW returns the total static power of core c at supply v with
// all its blocks at temperature tempC.
func (m Model) CoreStaticW(maps *varmodel.DieMaps, fp *floorplan.Floorplan, core int, v, tempC float64) float64 {
	sum := 0.0
	for _, b := range fp.CoreBlocks(core) {
		sum += m.BlockStaticW(maps, fp, b, v, tempC)
	}
	return sum
}

// L2StaticW returns the total static power of the shared L2 with its banks
// at temperature tempC. The L2 runs at the nominal supply.
func (m Model) L2StaticW(maps *varmodel.DieMaps, fp *floorplan.Floorplan, tempC float64) float64 {
	sum := 0.0
	for _, b := range fp.L2Blocks() {
		sum += m.BlockStaticW(maps, fp, b, m.Tech.VddNominal, tempC)
	}
	return sum
}

// DynamicCoreW returns the dynamic power of a core running a thread whose
// calibrated dynamic power is dynNomW at (FNominalHz, VddNominal) with
// nominal IPC ipcNom, when operated at supply v, frequency fHz, and
// achieved IPC ipc. Dynamic power scales as C V^2 f, with the non-clock
// share further scaled by relative activity (IPC).
func (m Model) DynamicCoreW(dynNomW, ipcNom, v, fHz, ipc float64) float64 {
	if dynNomW <= 0 || fHz <= 0 {
		return 0
	}
	scaleVF := (v / m.Tech.VddNominal) * (v / m.Tech.VddNominal) * (fHz / m.Tech.FNominalHz)
	activity := 1.0
	if ipcNom > 0 {
		activity = m.ClockFrac + (1-m.ClockFrac)*(ipc/ipcNom)
	}
	return dynNomW * scaleVF * activity
}

// L2DynamicW returns the dynamic power of the shared L2 given an aggregate
// access rate in accesses per second.
func (m Model) L2DynamicW(accessesPerSec float64) float64 {
	if accessesPerSec < 0 {
		return 0
	}
	return m.L2DynPerAccessJ * accessesPerSec
}
