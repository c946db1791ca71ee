// Package thermal implements a HotSpot-style steady-state block-level
// thermal model. Each floorplan block is a node in a thermal resistance
// network: a vertical conductance carries heat through the package to the
// ambient, and lateral conductances couple blocks that share an edge.
// Steady-state temperatures solve G*T = P. The package also implements the
// Su et al. leakage-temperature fixed point: leakage depends exponentially
// on temperature and temperature depends on total power, so the two are
// iterated to convergence.
package thermal

import (
	"errors"
	"fmt"
	"math"

	"vasched/internal/floorplan"
	"vasched/internal/linsolve"
)

// Config holds the thermal calibration.
type Config struct {
	// AmbientC is the heatsink/ambient temperature in Celsius.
	AmbientC float64
	// VerticalConductance is the conductance from a block to ambient per
	// mm^2 of block area, in W/(K*mm^2). It lumps die, spreader, sink and
	// convection.
	VerticalConductance float64
	// LateralConductance is the conductance between adjacent blocks per
	// mm of shared edge per mm of center distance, in W*mm/(K*mm) - i.e.
	// multiplied by edge length and divided by center distance.
	LateralConductance float64
	// MaxTempC clamps solutions (thermal throttling would engage far
	// before this in a real system; the clamp keeps the leakage fixed
	// point from diverging under absurd power inputs).
	MaxTempC float64
}

// DefaultConfig returns a calibration that puts a fully loaded nominal
// 20-core die around the paper's observed ~95 C peak.
func DefaultConfig() Config {
	return Config{
		AmbientC:            45,
		VerticalConductance: 0.013,
		LateralConductance:  0.08,
		MaxTempC:            150,
	}
}

// Model is the assembled RC network for one floorplan.
type Model struct {
	cfg   Config
	fp    *floorplan.Floorplan
	n     int
	lu    *linsolve.LU
	gVert []float64 // per-block vertical conductance, W/K
	// coreBlocks lists each core's blocks in floorplan order, with their
	// areas, for CoreMeanTemp.
	coreBlocks [][]blockArea
}

type blockArea struct {
	block int
	area  float64
}

// New builds the conductance matrix for fp and factors it once; Solve then
// costs one pair of triangular substitutions per call.
func New(fp *floorplan.Floorplan, cfg Config) (*Model, error) {
	if !(cfg.VerticalConductance > 0) || math.IsInf(cfg.VerticalConductance, 1) ||
		!(cfg.LateralConductance >= 0) || math.IsInf(cfg.LateralConductance, 1) {
		return nil, fmt.Errorf("thermal: invalid conductances %+v", cfg)
	}
	if math.IsNaN(cfg.AmbientC) || math.IsInf(cfg.AmbientC, 0) || !(cfg.MaxTempC > cfg.AmbientC) {
		return nil, fmt.Errorf("thermal: need a finite ambient below the clamp, got ambient %v °C, clamp %v °C", cfg.AmbientC, cfg.MaxTempC)
	}
	n := len(fp.Blocks)
	if n == 0 {
		return nil, errors.New("thermal: empty floorplan")
	}
	g, gVert := conductance(fp, cfg, make([]float64, n))
	lu, err := linsolve.Factor(g, n)
	if err != nil {
		return nil, fmt.Errorf("thermal: factoring conductance matrix: %w", err)
	}
	coreBlocks := make([][]blockArea, fp.NumCores)
	for i := range fp.Blocks {
		if b := &fp.Blocks[i]; b.Core >= 0 {
			coreBlocks[b.Core] = append(coreBlocks[b.Core], blockArea{i, b.R.Area()})
		}
	}
	return &Model{cfg: cfg, fp: fp, n: n, lu: lu, gVert: gVert, coreBlocks: coreBlocks}, nil
}

// conductance assembles the network's n x n conductance matrix for fp,
// adding diagAdd[i] to block i's vertical conductance on the diagonal:
// zeros for the steady state, C/dt for a backward-Euler step. It also
// returns the per-block vertical conductances.
func conductance(fp *floorplan.Floorplan, cfg Config, diagAdd []float64) (g, gVert []float64) {
	n := len(fp.Blocks)
	edge := fp.DieEdgeMM()
	g = make([]float64, n*n)
	gVert = make([]float64, n)
	for i := range fp.Blocks {
		bi := &fp.Blocks[i]
		areaMM2 := bi.R.Area() * edge * edge
		gv := cfg.VerticalConductance * areaMM2
		gVert[i] = gv
		g[i*n+i] += gv + diagAdd[i]
		for j := i + 1; j < n; j++ {
			bj := &fp.Blocks[j]
			shared := bi.R.SharedEdge(bj.R)
			if shared <= 0 {
				continue
			}
			cxi, cyi := (bi.R.X0+bi.R.X1)/2, (bi.R.Y0+bi.R.Y1)/2
			cxj, cyj := (bj.R.X0+bj.R.X1)/2, (bj.R.Y0+bj.R.Y1)/2
			distMM := math.Hypot(cxi-cxj, cyi-cyj) * edge
			if distMM <= 0 {
				continue
			}
			gl := cfg.LateralConductance * (shared * edge) / distMM
			g[i*n+i] += gl
			g[j*n+j] += gl
			g[i*n+j] -= gl
			g[j*n+i] -= gl
		}
	}
	return g, gVert
}

// Config returns the model's calibration.
func (m *Model) Config() Config { return m.cfg }

// SolveInto computes the steady-state block temperatures in Celsius for
// the given per-block power in watts into the caller-provided dst, which
// must not alias powerW. It is the zero-allocation form of Solve.
func (m *Model) SolveInto(dst, powerW []float64) error {
	if len(powerW) != m.n {
		return fmt.Errorf("thermal: power vector has %d entries, want %d", len(powerW), m.n)
	}
	if err := m.lu.SolveInto(dst, powerW); err != nil {
		return err
	}
	for i, d := range dst {
		tc := m.cfg.AmbientC + d
		if tc > m.cfg.MaxTempC {
			tc = m.cfg.MaxTempC
		}
		if tc < m.cfg.AmbientC {
			tc = m.cfg.AmbientC
		}
		dst[i] = tc
	}
	return nil
}

// Solve returns the steady-state block temperatures in Celsius for the
// given per-block power in watts.
func (m *Model) Solve(powerW []float64) ([]float64, error) {
	t := make([]float64, m.n)
	if err := m.SolveInto(t, powerW); err != nil {
		return nil, err
	}
	return t, nil
}

// FixedPoint iterates the leakage-temperature loop: dynPowerW is the
// temperature-independent per-block power; leakage(temps) returns the
// per-block leakage at the given block temperatures. Iteration continues
// until the largest block-temperature change falls below tolC (damped to
// guarantee convergence) or maxIter is reached.
//
// It returns the converged temperatures, the per-block leakage at those
// temperatures, and the number of iterations used.
func (m *Model) FixedPoint(dynPowerW []float64, leakage func(tempsC []float64) []float64, tolC float64, maxIter int) ([]float64, []float64, int, error) {
	return m.FixedPointWith(nil, dynPowerW, leakage, tolC, maxIter)
}

// FixedPointScratch holds the iteration buffers of FixedPointWith so the
// inner DVFS loop can run the leakage fixed point without allocating. A
// scratch must not be used by two fixed points concurrently.
type FixedPointScratch struct {
	temps, total, next []float64
}

// NewFixedPointScratch returns a scratch sized for m.
func (m *Model) NewFixedPointScratch() *FixedPointScratch {
	return &FixedPointScratch{
		temps: make([]float64, m.n),
		total: make([]float64, m.n),
		next:  make([]float64, m.n),
	}
}

// FixedPointWith is FixedPoint with caller-provided scratch. The returned
// temperature slice aliases sc.temps and is only valid until the scratch's
// next use; callers that retain it must copy. A nil sc allocates fresh
// buffers, making it equivalent to FixedPoint.
func (m *Model) FixedPointWith(sc *FixedPointScratch, dynPowerW []float64, leakage func(tempsC []float64) []float64, tolC float64, maxIter int) ([]float64, []float64, int, error) {
	if len(dynPowerW) != m.n {
		return nil, nil, 0, fmt.Errorf("thermal: power vector has %d entries, want %d", len(dynPowerW), m.n)
	}
	if tolC <= 0 {
		tolC = 0.01
	}
	if maxIter <= 0 {
		maxIter = 50
	}
	if sc == nil {
		sc = m.NewFixedPointScratch()
	}
	temps, total, next := sc.temps, sc.total, sc.next
	for i := range temps {
		temps[i] = m.cfg.AmbientC + 20 // warm start
	}
	var leak []float64
	const damping = 0.7
	for iter := 1; iter <= maxIter; iter++ {
		leak = leakage(temps)
		if len(leak) != m.n {
			return nil, nil, iter, fmt.Errorf("thermal: leakage returned %d entries, want %d", len(leak), m.n)
		}
		for i := range total {
			total[i] = dynPowerW[i] + leak[i]
		}
		if err := m.SolveInto(next, total); err != nil {
			return nil, nil, iter, err
		}
		worst := 0.0
		for i := range temps {
			blended := temps[i] + damping*(next[i]-temps[i])
			if d := math.Abs(blended - temps[i]); d > worst {
				worst = d
			}
			temps[i] = blended
		}
		if worst < tolC {
			return temps, leak, iter, nil
		}
	}
	return temps, leak, maxIter, nil
}

// AmbientTemps fills dst with the ambient temperature — the initial
// condition of every transient simulation (cold silicon) — and returns it.
// A nil dst allocates a fresh vector sized for the model.
func (m *Model) AmbientTemps(dst []float64) []float64 {
	if dst == nil {
		dst = make([]float64, m.n)
	}
	for i := range dst {
		dst[i] = m.cfg.AmbientC
	}
	return dst
}

// CoreMeanTemp returns the area-weighted mean temperature of core c's
// blocks given a block temperature vector. A core with no blocks reads
// ambient.
func (m *Model) CoreMeanTemp(tempsC []float64, core int) float64 {
	if core < 0 || core >= len(m.coreBlocks) {
		return m.cfg.AmbientC
	}
	var sum, area float64
	for _, b := range m.coreBlocks[core] {
		sum += tempsC[b.block] * b.area
		area += b.area
	}
	if area == 0 {
		return m.cfg.AmbientC
	}
	return sum / area
}

// MaxTemp returns the hottest block temperature.
func (m *Model) MaxTemp(tempsC []float64) float64 {
	mx := tempsC[0]
	for _, t := range tempsC[1:] {
		if t > mx {
			mx = t
		}
	}
	return mx
}

// Transient extends the steady-state model with per-block thermal
// capacitance, enabling time-stepped simulation: C dT/dt = P - G (T - Tamb)
// discretised with backward Euler, so each step solves
// (G + C/dt) T_new = P + (C/dt) T_old. The factorisation is reused across
// steps of equal length. Thermal inertia is what makes activity migration
// pay off: a previously idle core absorbs a hot thread for a while before
// reaching steady temperature.
type Transient struct {
	m     *Model
	dtSec float64
	lu    *linsolve.LU
	cOver []float64 // C_i/dt per block, W/K
}

// HeatCapacityPerMM2 is the lumped thermal capacitance per mm^2 of die
// (silicon volumetric heat capacity times an effective die+spreader
// thickness); together with the vertical conductance it sets the block
// thermal time constant (tens of milliseconds here, matching HotSpot-class
// models).
const HeatCapacityPerMM2 = 5e-4 // J/(K*mm^2)

// NewTransient prepares a stepper with the given step length in
// milliseconds.
func (m *Model) NewTransient(dtMS float64) (*Transient, error) {
	if dtMS <= 0 {
		return nil, fmt.Errorf("thermal: non-positive step %v ms", dtMS)
	}
	dt := dtMS / 1000
	edge := m.fp.DieEdgeMM()
	cOver := make([]float64, m.n)
	for i := range m.fp.Blocks {
		areaMM2 := m.fp.Blocks[i].R.Area() * edge * edge
		cOver[i] = HeatCapacityPerMM2 * areaMM2 / dt
	}
	g, _ := conductance(m.fp, m.cfg, cOver)
	lu, err := linsolve.Factor(g, m.n)
	if err != nil {
		return nil, fmt.Errorf("thermal: factoring transient matrix: %w", err)
	}
	return &Transient{m: m, dtSec: dt, lu: lu, cOver: cOver}, nil
}

// StepMS returns the stepper's step length in milliseconds.
func (tr *Transient) StepMS() float64 { return tr.dtSec * 1000 }

// StepInto advances one time step from prevTempsC under the given
// per-block power, writing the new block temperatures into dst using rhs
// as scratch. dst and rhs must each be n long and must not alias powerW,
// prevTempsC, or each other.
func (tr *Transient) StepInto(dst, rhs, powerW, prevTempsC []float64) error {
	n := tr.m.n
	if len(powerW) != n || len(prevTempsC) != n {
		return fmt.Errorf("thermal: transient step with %d powers / %d temps for %d blocks",
			len(powerW), len(prevTempsC), n)
	}
	for i := 0; i < n; i++ {
		rhs[i] = powerW[i] + tr.cOver[i]*(prevTempsC[i]-tr.m.cfg.AmbientC)
	}
	if err := tr.lu.SolveInto(dst, rhs); err != nil {
		return err
	}
	for i, d := range dst {
		tc := tr.m.cfg.AmbientC + d
		if tc > tr.m.cfg.MaxTempC {
			tc = tr.m.cfg.MaxTempC
		}
		if tc < tr.m.cfg.AmbientC {
			tc = tr.m.cfg.AmbientC
		}
		dst[i] = tc
	}
	return nil
}

// Step advances one time step from prevTempsC under the given per-block
// power and returns the new block temperatures.
func (tr *Transient) Step(powerW, prevTempsC []float64) ([]float64, error) {
	out := make([]float64, tr.m.n)
	rhs := make([]float64, tr.m.n)
	if err := tr.StepInto(out, rhs, powerW, prevTempsC); err != nil {
		return nil, err
	}
	return out, nil
}
