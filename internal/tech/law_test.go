package tech

import (
	"math"
	"math/rand/v2"
	"testing"
)

// The direct forms of the three device laws, frozen as they were before
// the laws were split into a precomputed part and a per-device part. The
// law forms must reproduce them bit for bit.

func refAlphaPowerDelay(p Params, vth, leff, v, tempC float64) float64 {
	vthT := p.VthAtTemp(vth, tempC)
	overdrive := v - vthT
	if overdrive <= 0.02 {
		return math.Inf(1)
	}
	mobility := math.Pow((p.TRatingC+273.15)/(tempC+273.15), 1.5)
	nomVth := p.VthAtTemp(p.VthNominal, p.TRatingC)
	nomOver := p.VddNominal - nomVth
	num := (leff / p.LeffNominal) * (v / math.Pow(overdrive, p.Alpha))
	den := p.VddNominal / math.Pow(nomOver, p.Alpha)
	return num / den / mobility
}

func refLeakageFactor(p Params, vth, v, tempC float64) float64 {
	vt := ThermalVoltage(tempC)
	vtRef := ThermalVoltage(p.TRefC)
	vthT := p.VthAtTemp(vth, tempC)
	vthRef := p.VthNominal
	tK := tempC + 273.15
	tRefK := p.TRefC + 273.15
	expTerm := math.Exp((-vthT+p.DIBL*v)/(p.SubVtSlopeN*vt)) /
		math.Exp((-vthRef+p.DIBL*p.VddNominal)/(p.SubVtSlopeN*vtRef))
	return (tK * tK) / (tRefK * tRefK) * (v / p.VddNominal) * expTerm
}

func refRandomLeakageUplift(p Params, sigmaVth, tempC float64) float64 {
	s := p.SubVtSlopeN * ThermalVoltage(tempC)
	return math.Exp(sigmaVth * sigmaVth / (2 * s * s))
}

// drawParams perturbs the defaults so that no term of the laws hides
// behind a round default value.
func drawParams(rng *rand.Rand) Params {
	p := Default()
	p.VthNominal *= 0.8 + 0.4*rng.Float64()
	p.VthTempCoeff *= 0.5 + rng.Float64()
	p.TRefC = 20 + 70*rng.Float64()
	p.VddNominal *= 0.9 + 0.2*rng.Float64()
	p.TRatingC = 70 + 40*rng.Float64()
	p.Alpha = 1.1 + 0.7*rng.Float64()
	p.SubVtSlopeN = 1.2 + 2*rng.Float64()
	p.DIBL = 0.3 * rng.Float64()
	p.LeffNominal *= 0.8 + 0.4*rng.Float64()
	return p
}

func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

// TestLawFormsMatchDirectForms compares the law forms with the frozen
// direct forms over drawn parameters and devices, including devices at
// and below the overdrive cutoff.
func TestLawFormsMatchDirectForms(t *testing.T) {
	rng := rand.New(rand.NewPCG(2008, 32))
	cutoffs := 0
	for i := 0; i < 4000; i++ {
		p := Default()
		if i%2 == 1 {
			p = drawParams(rng)
		}
		vth := 0.1 + 0.4*rng.Float64()
		leff := p.LeffNominal * (0.5 + rng.Float64())
		tempC := -20 + 170*rng.Float64()
		v := 0.3 + 0.9*rng.Float64()
		switch i % 5 {
		case 3:
			// On the cutoff: the overdrive is 0.02 up to rounding.
			v = p.VthAtTemp(vth, tempC) + 0.02
		case 4:
			// Below the cutoff.
			v = p.VthAtTemp(vth, tempC) + 0.03*rng.Float64() - 0.01
		}
		sigma := 0.05 * rng.Float64()

		delay := p.DelayAt(tempC)
		want := refAlphaPowerDelay(p, vth, leff, v, tempC)
		if math.IsInf(want, 1) {
			cutoffs++
		}
		if got := delay.Delay(vth, leff, v); !sameBits(got, want) {
			t.Fatalf("draw %d: DelayAt(%v).Delay(%v, %v, %v) = %v, direct form %v", i, tempC, vth, leff, v, got, want)
		}

		leak := p.Leakage()
		want = refLeakageFactor(p, vth, v, tempC)
		if got := leak.Factor(vth, v, tempC); !sameBits(got, want) {
			t.Fatalf("draw %d: Leakage().Factor(%v, %v, %v) = %v, direct form %v", i, vth, v, tempC, got, want)
		}
		want = refRandomLeakageUplift(p, sigma, tempC)
		if got := leak.RandomUplift(sigma, tempC); !sameBits(got, want) {
			t.Fatalf("draw %d: Leakage().RandomUplift(%v, %v) = %v, direct form %v", i, sigma, tempC, got, want)
		}
	}
	if cutoffs == 0 {
		t.Fatal("no draw reached the overdrive cutoff")
	}
}
