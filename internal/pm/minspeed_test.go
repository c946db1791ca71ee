package pm

import (
	"context"
	"testing"

	"vasched/internal/stats"
)

func minSpeed(p Platform, levels []int) float64 {
	min := 0.0
	for c, l := range levels {
		v := minSpeedWeight(p, c) * p.IPC(c) * p.FreqAt(c, l) / 1e6
		if c == 0 || v < min {
			min = v
		}
	}
	return min
}

func TestMinSpeedObjectiveValue(t *testing.T) {
	p := newFake(3)
	lv := []int{0, 4, 8}
	v := objectiveValue(p, lv, ObjMinSpeed)
	if v != minSpeed(p, lv) {
		t.Fatalf("objectiveValue = %v, want %v", v, minSpeed(p, lv))
	}
}

func TestLinOptMinSpeedFeasibleAndBalanced(t *testing.T) {
	p := newFake(8)
	b := Budget{PTargetW: 26, PCoreMaxW: 6}
	m := LinOpt{FitPoints: 3, Objective: ObjMinSpeed}
	levels, err := m.Decide(context.Background(), p.snapshot(), b, stats.NewRNG(1))
	if err != nil {
		t.Fatal(err)
	}
	assertFeasible(t, p, b, levels, "LinOpt-minspeed")

	// The max-min solution must not have a lower minimum speed than the
	// sum-MIPS solution under the same budget.
	sum, err := NewLinOpt().Decide(context.Background(), p.snapshot(), b, stats.NewRNG(1))
	if err != nil {
		t.Fatal(err)
	}
	if minSpeed(p, levels) < minSpeed(p, sum)-1e-9 {
		t.Fatalf("max-min objective produced worse minimum: %v vs %v",
			minSpeed(p, levels), minSpeed(p, sum))
	}
}

func TestLinOptMinSpeedMatchesExhaustive(t *testing.T) {
	p := newFake(4)
	b := Budget{PTargetW: 13, PCoreMaxW: 5}
	lin, err := LinOpt{FitPoints: 3, Objective: ObjMinSpeed}.Decide(context.Background(), p.snapshot(), b, stats.NewRNG(2))
	if err != nil {
		t.Fatal(err)
	}
	ex, err := Exhaustive{Objective: ObjMinSpeed}.Decide(context.Background(), p.snapshot(), b, stats.NewRNG(2))
	if err != nil {
		t.Fatal(err)
	}
	if got, want := minSpeed(p, lin), minSpeed(p, ex); got < 0.93*want {
		t.Fatalf("LinOpt min-speed %v more than 7%% below exhaustive %v", got, want)
	}
}

func TestSAnnMinSpeed(t *testing.T) {
	p := newFake(6)
	b := Budget{PTargetW: 18, PCoreMaxW: 5}
	m := SAnn{MaxEvals: 20000, Objective: ObjMinSpeed}
	levels, err := m.Decide(context.Background(), p.snapshot(), b, stats.NewRNG(3))
	if err != nil {
		t.Fatal(err)
	}
	assertFeasible(t, p, b, levels, "SAnn-minspeed")
	sum, err := SAnn{MaxEvals: 20000}.Decide(context.Background(), p.snapshot(), b, stats.NewRNG(3))
	if err != nil {
		t.Fatal(err)
	}
	if minSpeed(p, levels) < minSpeed(p, sum)-1e-9 {
		t.Fatalf("SAnn max-min worse minimum than SAnn sum: %v vs %v",
			minSpeed(p, levels), minSpeed(p, sum))
	}
}

func TestLinOptMinSpeedInfeasibleBudget(t *testing.T) {
	p := newFake(3)
	b := Budget{PTargetW: 0.5, PCoreMaxW: 0.5}
	levels, err := LinOpt{FitPoints: 3, Objective: ObjMinSpeed}.Decide(context.Background(), p.snapshot(), b, stats.NewRNG(4))
	if err != nil {
		t.Fatal(err)
	}
	for c, l := range levels {
		if l != minLevel(p, c) {
			t.Fatalf("core %d at %d, want floor", c, l)
		}
	}
}

func TestBudgetSensitivity(t *testing.T) {
	p := newFake(8)
	tight := Budget{PTargetW: 20, PCoreMaxW: 6}
	loose := Budget{PTargetW: 500, PCoreMaxW: 100}
	sTight, err := BudgetSensitivity(p.snapshot(), tight, ObjMIPS)
	if err != nil {
		t.Fatal(err)
	}
	if sTight <= 0 {
		t.Fatalf("tight-budget sensitivity = %v, want positive", sTight)
	}
	sLoose, err := BudgetSensitivity(p.snapshot(), loose, ObjMIPS)
	if err != nil {
		t.Fatal(err)
	}
	if sLoose != 0 {
		t.Fatalf("loose-budget sensitivity = %v, want 0 (budget not binding)", sLoose)
	}
	if _, err := BudgetSensitivity(p.snapshot(), tight, ObjMinSpeed); err == nil {
		t.Fatal("min-speed sensitivity should be unsupported")
	}
}

func TestBudgetSensitivityMatchesPerturbation(t *testing.T) {
	// The shadow price should predict the modelled-throughput gain from a
	// small budget increase, up to ladder quantisation. Compare against
	// the continuous LP by using a generous step.
	p := newFake(10)
	b := Budget{PTargetW: 30, PCoreMaxW: 6}
	sens, err := BudgetSensitivity(p.snapshot(), b, ObjMIPS)
	if err != nil {
		t.Fatal(err)
	}
	lin := NewLinOpt()
	base, err := lin.Decide(context.Background(), p.snapshot(), b, stats.NewRNG(1))
	if err != nil {
		t.Fatal(err)
	}
	more, err := lin.Decide(context.Background(), p.snapshot(), Budget{PTargetW: b.PTargetW + 2, PCoreMaxW: b.PCoreMaxW}, stats.NewRNG(1))
	if err != nil {
		t.Fatal(err)
	}
	gain := (throughput(p, more) - throughput(p, base)) / 2
	// Quantisation makes this coarse; require agreement within 2.5x.
	if sens > 0 && gain > 0 {
		ratio := gain / sens
		if ratio < 0.3 || ratio > 2.5 {
			t.Fatalf("sensitivity %v vs realised gain %v per watt", sens, gain)
		}
	}
}
