// Package tech holds the 32 nm technology parameters and device-level
// formulas shared by the delay, power, and thermal models: the alpha-power
// MOSFET delay law, the subthreshold/gate leakage dependence on threshold
// voltage and temperature, and the chip-wide voltage/frequency envelope
// from the paper's Table 4.
package tech

import (
	"fmt"
	"math"
)

// Physical constants.
const (
	boltzmann      = 1.380649e-23 // J/K
	electronCharge = 1.602177e-19 // C
)

// Params bundles the technology constants. The defaults in Default()
// correspond to the paper's 32 nm configuration (Table 4).
type Params struct {
	// VthNominal is the mean threshold voltage in volts at TRef (the paper
	// uses 250 mV at 60 C).
	VthNominal float64
	// VthTempCoeff is the decrease of Vth in volts per kelvin of
	// temperature increase.
	VthTempCoeff float64
	// TRefC is the reference temperature in Celsius at which VthNominal is
	// specified.
	TRefC float64
	// VddNominal and VddMin bound the supply range (1.0 V and 0.6 V).
	VddNominal float64
	VddMin     float64
	// VStep is the voltage-ladder step for DVFS levels.
	VStep float64
	// FNominalHz is the nominal chip frequency at VddNominal with nominal
	// process parameters at the rating temperature (4 GHz).
	FNominalHz float64
	// TRatingC is the temperature in Celsius at which core frequencies are
	// rated (the paper measures Fmax at the hottest observed ~95 C).
	TRatingC float64
	// Alpha is the exponent of the alpha-power delay law (~1.3 for
	// velocity-saturated short-channel devices).
	Alpha float64
	// SubVtSlopeN is the subthreshold slope ideality factor n in
	// I ~ exp(-Vth/(n kT/q)).
	SubVtSlopeN float64
	// DIBL is the drain-induced barrier lowering coefficient: effective
	// Vth drops by DIBL volts per volt of Vdd.
	DIBL float64
	// LeffNominal is the nominal effective gate length in meters.
	LeffNominal float64
	// VthRollOff couples the two variation parameters through the
	// short-channel effect: a device whose gate is shorter than nominal
	// by a fraction x sees its threshold reduced by VthRollOff*x volts.
	// This makes fast (short-Leff) regions leaky, the correlation the
	// paper's Figure 6 exhibits.
	VthRollOff float64
	// MemLatency is the main-memory access latency in seconds (400 cycles
	// at the 4 GHz nominal frequency).
	MemLatency float64
}

// Default returns the paper's 32 nm technology configuration.
func Default() Params {
	return Params{
		VthNominal:   0.250,
		VthTempCoeff: 0.0005, // 0.5 mV/K
		TRefC:        60,
		VddNominal:   1.0,
		VddMin:       0.6,
		VStep:        0.05,
		FNominalHz:   4e9,
		TRatingC:     95,
		Alpha:        1.5,
		SubVtSlopeN:  2.6,
		DIBL:         0.15,
		LeffNominal:  13e-9,
		VthRollOff:   0.25,
		MemLatency:   100e-9, // 400 cycles @ 4 GHz
	}
}

// Validate reports configuration errors.
func (p Params) Validate() error {
	if p.VddMin <= 0 || p.VddNominal <= p.VddMin {
		return fmt.Errorf("tech: invalid Vdd range [%v, %v]", p.VddMin, p.VddNominal)
	}
	if p.VStep <= 0 || p.VStep > p.VddNominal-p.VddMin {
		return fmt.Errorf("tech: invalid voltage step %v", p.VStep)
	}
	if p.VthNominal <= 0 || p.VthNominal >= p.VddMin {
		return fmt.Errorf("tech: Vth %v outside (0, VddMin)", p.VthNominal)
	}
	if p.FNominalHz <= 0 || p.Alpha <= 0 || p.SubVtSlopeN <= 0 {
		return fmt.Errorf("tech: non-positive frequency/alpha/slope")
	}
	return nil
}

// VoltageLevels returns the DVFS voltage ladder from VddMin to VddNominal
// inclusive, in ascending order.
func (p Params) VoltageLevels() []float64 {
	var levels []float64
	for v := p.VddMin; v < p.VddNominal+p.VStep/2; v += p.VStep {
		levels = append(levels, math.Round(v*1000)/1000)
	}
	if last := levels[len(levels)-1]; last != p.VddNominal {
		levels[len(levels)-1] = p.VddNominal
	}
	return levels
}

// EffectiveVth returns the threshold voltage after applying the
// short-channel roll-off for a device with gate length leff: shorter
// channels have lower thresholds (faster and leakier).
func (p Params) EffectiveVth(vth, leff float64) float64 {
	return vth + p.VthRollOff*(leff-p.LeffNominal)/p.LeffNominal
}

// ThermalVoltage returns kT/q in volts at the given temperature in Celsius.
func ThermalVoltage(tempC float64) float64 {
	return boltzmann * (tempC + 273.15) / electronCharge
}

// VthAtTemp returns the threshold voltage at tempC for a device whose
// threshold at TRefC is vthRef. Vth decreases as temperature rises.
func (p Params) VthAtTemp(vthRef, tempC float64) float64 {
	return vthAtTemp(vthRef, p.VthTempCoeff, p.TRefC, tempC)
}

func vthAtTemp(vthRef, coeff, tRefC, tempC float64) float64 {
	return vthRef - coeff*(tempC-tRefC)
}

// DelayLaw is the alpha-power delay law at one temperature with every
// term that does not depend on the device evaluated once: the nominal
// device's V/(V-Vth)^alpha at VddNominal and TRatingC, and the mobility
// factor. A core's frequency query evaluates it for every critical path,
// so hoisting these takes a path from three math.Pow calls to one.
type DelayLaw struct {
	tempC, vthTempCoeff, tRefC float64
	leffNominal, alpha         float64
	den                        float64 // VddNominal / (VddNominal - Vth(TRatingC))^alpha
	mobility                   float64 // ((TRatingC+273.15) / (tempC+273.15))^1.5
}

// DelayAt returns the delay law at temperature tempC.
func (p Params) DelayAt(tempC float64) DelayLaw {
	nomVth := p.VthAtTemp(p.VthNominal, p.TRatingC)
	nomOver := p.VddNominal - nomVth
	return DelayLaw{
		tempC:        tempC,
		vthTempCoeff: p.VthTempCoeff,
		tRefC:        p.TRefC,
		leffNominal:  p.LeffNominal,
		alpha:        p.Alpha,
		den:          p.VddNominal / math.Pow(nomOver, p.Alpha),
		mobility:     math.Pow((p.TRatingC+273.15)/(tempC+273.15), 1.5),
	}
}

// Delay returns the relative gate delay of a device with threshold vth
// and effective length leff at supply v and the law's temperature,
// normalised so that the nominal device at VddNominal and TRatingC has
// delay 1. Delay follows the alpha-power law
//
//	d ~ Leff * V / (V - Vth)^alpha
//
// with carrier mobility degrading as temperature rises (T^1.5 scattering),
// which slows circuits at high temperature.
func (d *DelayLaw) Delay(vth, leff, v float64) float64 {
	vthT := vthAtTemp(vth, d.vthTempCoeff, d.tRefC, d.tempC)
	overdrive := v - vthT
	if overdrive <= 0.02 {
		// The device no longer switches usefully; return a huge delay so
		// callers treat this operating point as infeasible rather than
		// dividing by zero.
		return math.Inf(1)
	}
	num := (leff / d.leffNominal) * (v / math.Pow(overdrive, d.alpha))
	return num / d.den / d.mobility
}

// LeakageLaw is the subthreshold leakage law with its Params-only terms
// evaluated once: the nominal device's exp((-Vth+DIBL*V)/(n kT/q)) at
// (VddNominal, TRefC) and TRefC squared in kelvin. Every thermal tick
// evaluates leakage for every powered block, so this takes a block from
// three math.Exp calls (factor and random uplift) to two.
type LeakageLaw struct {
	vthTempCoeff, tRefC float64
	dibl, n, vddNominal float64
	expRef              float64 // exp((-VthNominal+DIBL*VddNominal)/(n kT_ref/q))
	tRefK2              float64 // (TRefC+273.15)^2
}

// Leakage returns the leakage law for p.
func (p Params) Leakage() LeakageLaw {
	vtRef := ThermalVoltage(p.TRefC)
	vthRef := p.VthNominal
	tRefK := p.TRefC + 273.15
	return LeakageLaw{
		vthTempCoeff: p.VthTempCoeff,
		tRefC:        p.TRefC,
		dibl:         p.DIBL,
		n:            p.SubVtSlopeN,
		vddNominal:   p.VddNominal,
		expRef:       math.Exp((-vthRef + p.DIBL*p.VddNominal) / (p.SubVtSlopeN * vtRef)),
		tRefK2:       tRefK * tRefK,
	}
}

// Factor returns the relative subthreshold leakage current of a device
// with threshold vth at supply v and temperature tempC, normalised to 1
// for the nominal device at VddNominal and TRefC. It captures the three
// dependences that drive the paper's core-to-core power variation:
// exponential growth as Vth drops, exponential growth with temperature
// (both through kT/q and the Vth temperature coefficient), and
// DIBL-mediated supply dependence.
//
// Factor is FactorArg, math.Exp and FactorFromExp in turn; a caller with
// many devices can compute the arguments first and their exponentials
// together.
func (l *LeakageLaw) Factor(vth, v, tempC float64) float64 {
	return l.FactorFromExp(math.Exp(l.FactorArg(vth, v, tempC, ThermalVoltage(tempC))), v, tempC)
}

// FactorArg returns the exponent of Factor's exponential; vt must be
// ThermalVoltage(tempC).
func (l *LeakageLaw) FactorArg(vth, v, tempC, vt float64) float64 {
	vthT := vthAtTemp(vth, l.vthTempCoeff, l.tRefC, tempC)
	return (-vthT + l.dibl*v) / (l.n * vt)
}

// FactorFromExp completes Factor from e = math.Exp(FactorArg(...)).
func (l *LeakageLaw) FactorFromExp(e, v, tempC float64) float64 {
	tK := tempC + 273.15
	expTerm := e / l.expRef
	// T^2 prefactor from the subthreshold current equation; linear V from
	// the drain term.
	return (tK * tK) / l.tRefK2 * (v / l.vddNominal) * expTerm
}

// RandomUplift returns the factor by which within-die random Vth
// variation with standard deviation sigmaVth inflates the expected
// leakage of a large block relative to a variation-free block. Leakage is
// exponential in -Vth, so a normally distributed Vth yields a lognormal
// leakage whose mean exceeds the leakage at the mean threshold:
//
//	E[exp(-dVth/S)] = exp(sigma^2 / (2 S^2)),  S = n kT/q.
//
// This is the mechanism by which variation increases total chip leakage
// (paper Section 3).
//
// RandomUplift is math.Exp of UpliftArg.
func (l *LeakageLaw) RandomUplift(sigmaVth, tempC float64) float64 {
	return math.Exp(l.UpliftArg(sigmaVth, ThermalVoltage(tempC)))
}

// UpliftArg returns the exponent of RandomUplift's exponential; vt must
// be ThermalVoltage(tempC).
func (l *LeakageLaw) UpliftArg(sigmaVth, vt float64) float64 {
	s := l.n * vt
	return sigmaVth * sigmaVth / (2 * s * s)
}
