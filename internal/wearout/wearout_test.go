package wearout

import (
	"math"
	"testing"
	"testing/quick"
)

func TestDefaultParamsValid(t *testing.T) {
	if err := DefaultParams().Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestValidateCatchesBadParams(t *testing.T) {
	p := DefaultParams()
	p.ActivationEnergyEV = 0
	if p.Validate() == nil {
		t.Fatal("zero activation energy accepted")
	}
	p = DefaultParams()
	p.EMWeight = 2
	if p.Validate() == nil {
		t.Fatal("EM weight > 1 accepted")
	}
}

func TestReferencePointIsUnity(t *testing.T) {
	p := DefaultParams()
	af := p.AccelerationFactor(p.TRefC, p.VRef)
	if math.Abs(af-1) > 1e-12 {
		t.Fatalf("reference AF = %v, want 1", af)
	}
}

func TestAccelerationMonotone(t *testing.T) {
	p := DefaultParams()
	base := p.AccelerationFactor(70, 0.9)
	if p.AccelerationFactor(90, 0.9) <= base {
		t.Fatal("hotter core should age faster")
	}
	if p.AccelerationFactor(70, 1.0) <= base {
		t.Fatal("higher supply should age faster")
	}
	if p.AccelerationFactor(70, 0) != 0 {
		t.Fatal("powered-off core should not age")
	}
}

func TestArrheniusMagnitude(t *testing.T) {
	// With Ea = 0.7 eV, +10 K around 60 C accelerates aging by roughly
	// 1.9-2.1x — the classic "10 degrees halves the lifetime" rule.
	p := DefaultParams()
	ratio := math.Exp(p.thermalArg(70)) / math.Exp(p.thermalArg(60))
	if ratio < 1.7 || ratio > 2.3 {
		t.Fatalf("10 K acceleration = %v, want ~2", ratio)
	}
}

func TestAccumulator(t *testing.T) {
	acc, err := NewAccumulator(DefaultParams(), 2)
	if err != nil {
		t.Fatal(err)
	}
	// Core 0 at the reference point, core 1 powered off.
	if err := acc.Add([]float64{60, 60}, []float64{1.0, 0}, 10); err != nil {
		t.Fatal(err)
	}
	idx := acc.Index()
	if math.Abs(idx[0]-1) > 1e-12 {
		t.Fatalf("reference core index = %v", idx[0])
	}
	if idx[1] != 0 {
		t.Fatalf("off core index = %v", idx[1])
	}
	if acc.Max() != idx[0] {
		t.Fatalf("max = %v", acc.Max())
	}
}

func TestAccumulatorValidation(t *testing.T) {
	if _, err := NewAccumulator(DefaultParams(), 0); err == nil {
		t.Fatal("zero cores accepted")
	}
	bad := DefaultParams()
	bad.VRef = 0
	if _, err := NewAccumulator(bad, 2); err == nil {
		t.Fatal("invalid params accepted")
	}
	acc, err := NewAccumulator(DefaultParams(), 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := acc.Add([]float64{60}, []float64{1, 1}, 1); err == nil {
		t.Fatal("mismatched temps accepted")
	}
	if acc.Max() != 0 {
		t.Fatal("empty accumulator should report 0")
	}
}

// Property: acceleration factors are non-negative and finite for physical
// operating points.
func TestAccelerationFactorSaneProperty(t *testing.T) {
	p := DefaultParams()
	f := func(tRaw, vRaw float64) bool {
		temp := 40 + math.Mod(math.Abs(tRaw), 80) // [40, 120)
		v := math.Mod(math.Abs(vRaw), 1.2)        // [0, 1.2)
		if math.IsNaN(temp) || math.IsNaN(v) {
			return true
		}
		af := p.AccelerationFactor(temp, v)
		return af >= 0 && !math.IsInf(af, 0) && !math.IsNaN(af)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestAddRejectsMismatchedVoltages(t *testing.T) {
	acc, err := NewAccumulator(DefaultParams(), 3)
	if err != nil {
		t.Fatal(err)
	}
	if err := acc.Add([]float64{60, 60, 60}, []float64{1}, 1); err == nil {
		t.Fatal("mismatched voltage slice accepted")
	}
}

func TestTotalAndEquivalentTime(t *testing.T) {
	acc, err := NewAccumulator(DefaultParams(), 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := acc.Add([]float64{80, 60}, []float64{1, 1}, 5); err != nil {
		t.Fatal(err)
	}
	if err := acc.Add([]float64{80, 60}, []float64{1, 1}, 5); err != nil {
		t.Fatal(err)
	}
	if acc.Total() != 10 {
		t.Fatalf("total = %v", acc.Total())
	}
	eq := acc.EquivalentTime()
	if eq[0] <= eq[1] {
		t.Fatalf("hotter core accumulated less: %v vs %v", eq[0], eq[1])
	}
	// EquivalentTime returns a copy, not a view.
	eq[0] = -1
	if acc.EquivalentTime()[0] < 0 {
		t.Fatal("EquivalentTime exposes internal state")
	}
}

// Property: equivalent time is monotonically non-decreasing under positive
// dt at any physical operating point — the invariant horizon extrapolation
// relies on.
func TestEquivalentTimeMonotoneProperty(t *testing.T) {
	p := DefaultParams()
	acc, err := NewAccumulator(p, 1)
	if err != nil {
		t.Fatal(err)
	}
	prev := 0.0
	f := func(tRaw, vRaw, dtRaw float64) bool {
		temp := 40 + math.Mod(math.Abs(tRaw), 80)  // [40, 120)
		v := math.Mod(math.Abs(vRaw), 1.2)         // [0, 1.2)
		dt := 1e-3 + math.Mod(math.Abs(dtRaw), 10) // (0, 10]
		if math.IsNaN(temp) || math.IsNaN(v) || math.IsNaN(dt) {
			return true
		}
		if err := acc.Add([]float64{temp}, []float64{v}, dt); err != nil {
			return false
		}
		cur := acc.EquivalentTime()[0]
		ok := cur >= prev
		prev = cur
		return ok
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: the acceleration factor is strictly increasing in temperature
// at fixed positive voltage.
func TestAccelerationMonotoneInTemperatureProperty(t *testing.T) {
	p := DefaultParams()
	f := func(tRaw, dRaw, vRaw float64) bool {
		t1 := 40 + math.Mod(math.Abs(tRaw), 70)  // [40, 110)
		d := 0.1 + math.Mod(math.Abs(dRaw), 10)  // (0, 10.1)
		v := 0.6 + math.Mod(math.Abs(vRaw), 0.5) // [0.6, 1.1)
		if math.IsNaN(t1) || math.IsNaN(d) || math.IsNaN(v) {
			return true
		}
		return p.AccelerationFactor(t1+d, v) > p.AccelerationFactor(t1, v)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
