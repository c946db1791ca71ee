package tech

import (
	"math"
	"testing"
	"testing/quick"
)

func TestDefaultValidates(t *testing.T) {
	if err := Default().Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestValidateCatchesBadConfigs(t *testing.T) {
	mut := []func(*Params){
		func(p *Params) { p.VddMin = 0 },
		func(p *Params) { p.VddNominal = p.VddMin },
		func(p *Params) { p.VStep = 0 },
		func(p *Params) { p.VStep = 1 },
		func(p *Params) { p.VthNominal = 0 },
		func(p *Params) { p.VthNominal = 0.7 },
		func(p *Params) { p.FNominalHz = 0 },
		func(p *Params) { p.Alpha = -1 },
		func(p *Params) { p.SubVtSlopeN = 0 },
	}
	for i, f := range mut {
		p := Default()
		f(&p)
		if err := p.Validate(); err == nil {
			t.Errorf("mutation %d not caught", i)
		}
	}
}

func TestVoltageLevels(t *testing.T) {
	p := Default()
	levels := p.VoltageLevels()
	if len(levels) != 9 {
		t.Fatalf("got %d levels: %v", len(levels), levels)
	}
	if levels[0] != 0.6 || levels[len(levels)-1] != 1.0 {
		t.Fatalf("endpoints wrong: %v", levels)
	}
	for i := 1; i < len(levels); i++ {
		if levels[i] <= levels[i-1] {
			t.Fatalf("levels not ascending: %v", levels)
		}
	}
}

func TestThermalVoltage(t *testing.T) {
	// kT/q at 27 C (300.15 K) is about 25.87 mV.
	got := ThermalVoltage(27)
	if math.Abs(got-0.02587) > 0.0002 {
		t.Fatalf("ThermalVoltage(27C) = %v", got)
	}
}

func TestVthDecreasesWithTemp(t *testing.T) {
	p := Default()
	if p.VthAtTemp(0.25, 100) >= p.VthAtTemp(0.25, 60) {
		t.Fatal("Vth should drop as temperature rises")
	}
	if got := p.VthAtTemp(0.25, p.TRefC); got != 0.25 {
		t.Fatalf("VthAtTemp at reference = %v", got)
	}
}

func TestAlphaPowerDelayNominalIsOne(t *testing.T) {
	p := Default()
	law := p.DelayAt(p.TRatingC)
	d := law.Delay(p.VthNominal, p.LeffNominal, p.VddNominal)
	if math.Abs(d-1) > 1e-12 {
		t.Fatalf("nominal relative delay = %v, want 1", d)
	}
}

func TestAlphaPowerDelayMonotonicity(t *testing.T) {
	p := Default()
	law := p.DelayAt(p.TRatingC)
	base := law.Delay(p.VthNominal, p.LeffNominal, 0.8)
	// Higher Vth -> slower.
	if law.Delay(p.VthNominal+0.05, p.LeffNominal, 0.8) <= base {
		t.Fatal("delay should rise with Vth")
	}
	// Longer channel -> slower.
	if law.Delay(p.VthNominal, p.LeffNominal*1.2, 0.8) <= base {
		t.Fatal("delay should rise with Leff")
	}
	// Higher supply -> faster.
	if law.Delay(p.VthNominal, p.LeffNominal, 1.0) >= base {
		t.Fatal("delay should fall with supply voltage")
	}
}

func TestAlphaPowerDelayNearThreshold(t *testing.T) {
	p := Default()
	// A supply at/below threshold must return +Inf, not panic or go
	// negative.
	law := p.DelayAt(60)
	d := law.Delay(0.59, p.LeffNominal, 0.6)
	if !math.IsInf(d, 1) {
		t.Fatalf("near-threshold delay = %v, want +Inf", d)
	}
}

func TestLeakageFactorReferencePoint(t *testing.T) {
	p := Default()
	law := p.Leakage()
	got := law.Factor(p.VthNominal, p.VddNominal, p.TRefC)
	if math.Abs(got-1) > 1e-12 {
		t.Fatalf("reference leakage factor = %v, want 1", got)
	}
}

func TestLeakageFactorMonotonicity(t *testing.T) {
	p := Default()
	law := p.Leakage()
	base := law.Factor(p.VthNominal, 0.8, 60)
	if law.Factor(p.VthNominal-0.03, 0.8, 60) <= base {
		t.Fatal("leakage should rise as Vth drops")
	}
	if law.Factor(p.VthNominal, 0.8, 95) <= base {
		t.Fatal("leakage should rise with temperature")
	}
	if law.Factor(p.VthNominal, 1.0, 60) <= base {
		t.Fatal("leakage should rise with supply (DIBL)")
	}
}

func TestLeakageFactorMagnitude(t *testing.T) {
	// Low-Vth devices must gain more leakage than high-Vth devices save:
	// the up/down asymmetry that makes variation increase total leakage.
	p := Default()
	law := p.Leakage()
	up := law.Factor(p.VthNominal-0.03, 1.0, 60)
	down := law.Factor(p.VthNominal+0.03, 1.0, 60)
	if (up - 1) <= (1 - down) {
		t.Fatalf("leakage asymmetry missing: +%v vs -%v", up-1, 1-down)
	}
}

func TestRandomLeakageUplift(t *testing.T) {
	p := Default()
	law := p.Leakage()
	if got := law.RandomUplift(0, 60); got != 1 {
		t.Fatalf("zero-sigma uplift = %v", got)
	}
	u := law.RandomUplift(0.02, 60)
	if u <= 1 || u > 2 {
		t.Fatalf("uplift = %v, want slightly above 1", u)
	}
	if law.RandomUplift(0.04, 60) <= u {
		t.Fatal("uplift should grow with sigma")
	}
}

// Property: delay is always positive (or +Inf) and leakage always
// positive, for physically plausible inputs.
func TestDelayLeakagePositiveProperty(t *testing.T) {
	p := Default()
	leak := p.Leakage()
	f := func(dvthRaw, vRaw, tRaw float64) bool {
		dvth := math.Mod(math.Abs(dvthRaw), 0.1) - 0.05 // +-50 mV
		v := 0.6 + math.Mod(math.Abs(vRaw), 0.4)        // [0.6, 1.0)
		temp := 40 + math.Mod(math.Abs(tRaw), 80)       // [40, 120)
		if math.IsNaN(dvth) || math.IsNaN(v) || math.IsNaN(temp) {
			return true
		}
		law := p.DelayAt(temp)
		d := law.Delay(p.VthNominal+dvth, p.LeffNominal, v)
		if !(d > 0) {
			return false
		}
		l := leak.Factor(p.VthNominal+dvth, v, temp)
		return l > 0 && !math.IsInf(l, 0)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
