// Package wearout models lifetime degradation of the CMP's cores — the
// paper's second stated extension ("understanding how our variation-aware
// algorithms affect CMP wearout"). Two classic mechanisms are tracked,
// both strongly temperature-activated, which is what couples wearout to
// the scheduling and power-management decisions this repository studies:
//
//   - Electromigration, with Black's-equation temperature acceleration
//     AF_EM = exp(Ea/k * (1/Tref - 1/T)).
//   - Bias temperature instability (NBTI), accelerated by both temperature
//     and supply voltage: AF_BTI = (V/Vref)^gamma * exp(Ea/k * (1/Tref - 1/T)).
//
// An Accumulator integrates the combined acceleration factor over time per
// core; the result is a wearout index in "equivalent nominal hours per
// hour": 1.0 means the core ages as fast as at the reference operating
// point, 2.0 twice as fast.
package wearout

import (
	"fmt"
	"math"

	"vasched/internal/vmath"
)

// Params holds the aging-model constants.
type Params struct {
	// ActivationEnergyEV is the thermal activation energy in eV (~0.9 for
	// electromigration in copper interconnect, ~0.1-0.2 for NBTI; a
	// combined effective value is used).
	ActivationEnergyEV float64
	// TRefC and VRef define the reference operating point with
	// acceleration factor 1.
	TRefC float64
	VRef  float64
	// VoltageExponent is gamma in the BTI voltage-acceleration power law.
	VoltageExponent float64
	// EMWeight balances the two mechanisms in the combined factor
	// (0 = all BTI, 1 = all EM).
	EMWeight float64
}

// DefaultParams returns a calibration with the reference point at the
// paper's nominal 60 C / 1.0 V.
func DefaultParams() Params {
	return Params{
		ActivationEnergyEV: 0.7,
		TRefC:              60,
		VRef:               1.0,
		VoltageExponent:    3,
		EMWeight:           0.5,
	}
}

// Validate reports configuration errors.
func (p Params) Validate() error {
	if p.ActivationEnergyEV <= 0 || p.VRef <= 0 {
		return fmt.Errorf("wearout: non-positive activation energy or Vref")
	}
	if p.EMWeight < 0 || p.EMWeight > 1 {
		return fmt.Errorf("wearout: EM weight %v outside [0,1]", p.EMWeight)
	}
	return nil
}

// boltzmannEV is the Boltzmann constant in eV/K.
const boltzmannEV = 8.617333e-5

// thermalArg returns the exponent of the Arrhenius acceleration factor
// at tempC.
func (p Params) thermalArg(tempC float64) float64 {
	tRef := p.TRefC + 273.15
	t := tempC + 273.15
	return p.ActivationEnergyEV / boltzmannEV * (1/tRef - 1/t)
}

// AccelerationFactor returns the combined aging rate at (tempC, v)
// relative to the reference point. A powered-off core (v = 0) does not
// age.
func (p Params) AccelerationFactor(tempC, v float64) float64 {
	if v <= 0 {
		return 0
	}
	return p.accelerationFrom(math.Exp(p.thermalArg(tempC)), v)
}

// accelerationFrom completes AccelerationFactor at supply v > 0 from the
// Arrhenius factor th = math.Exp(thermalArg(tempC)).
func (p Params) accelerationFrom(th, v float64) float64 {
	em := th
	bti := th * math.Pow(v/p.VRef, p.VoltageExponent)
	return p.EMWeight*em + (1-p.EMWeight)*bti
}

// Accumulator integrates per-core aging over a run.
type Accumulator struct {
	p     Params
	aged  []float64 // equivalent nominal time per core
	total float64   // wall time integrated
	exps  []float64 // Add's Arrhenius factors, one per powered core
}

// NewAccumulator tracks numCores cores.
func NewAccumulator(p Params, numCores int) (*Accumulator, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if numCores <= 0 {
		return nil, fmt.Errorf("wearout: invalid core count %d", numCores)
	}
	return &Accumulator{p: p, aged: make([]float64, numCores), exps: make([]float64, numCores)}, nil
}

// Add records dt time units at the given per-core temperatures and supply
// voltages (v[i] = 0 for powered-off cores). Each core ages by
// AccelerationFactor·dt; the powered cores' Arrhenius factors are
// computed together in one vmath.Exp call.
func (a *Accumulator) Add(tempC, v []float64, dt float64) error {
	if len(tempC) != len(a.aged) || len(v) != len(a.aged) {
		return fmt.Errorf("wearout: got %d temps / %d voltages for %d cores",
			len(tempC), len(v), len(a.aged))
	}
	// A core is powered unless v <= 0, as in AccelerationFactor: a NaN
	// supply is powered.
	n := 0
	for i := range a.aged {
		if !(v[i] <= 0) {
			a.exps[n] = a.p.thermalArg(tempC[i])
			n++
		}
	}
	vmath.Exp(a.exps[:n], a.exps[:n])
	n = 0
	for i := range a.aged {
		af := 0.0
		if !(v[i] <= 0) {
			af = a.p.accelerationFrom(a.exps[n], v[i])
			n++
		}
		a.aged[i] += af * dt
	}
	a.total += dt
	return nil
}

// Total returns the wall time integrated so far (the sum of every Add's
// dt).
func (a *Accumulator) Total() float64 { return a.total }

// EquivalentTime returns the per-core accumulated equivalent nominal time:
// the integral of the acceleration factor over wall time. Unlike Index it
// is monotonically non-decreasing under positive dt, which makes it the
// quantity long-horizon aging models extrapolate (Vth drift grows with
// equivalent stress time, not with the momentary rate).
func (a *Accumulator) EquivalentTime() []float64 {
	return append([]float64(nil), a.aged...)
}

// Index returns the per-core wearout indices: equivalent nominal aging per
// unit wall time. Zero before any samples.
func (a *Accumulator) Index() []float64 {
	out := make([]float64, len(a.aged))
	if a.total == 0 {
		return out
	}
	for i, aged := range a.aged {
		out[i] = aged / a.total
	}
	return out
}

// Max returns the worst per-core index — the chip's lifetime is set by its
// fastest-aging core.
func (a *Accumulator) Max() float64 {
	idx := a.Index()
	m := 0.0
	for _, v := range idx {
		if v > m {
			m = v
		}
	}
	return m
}
