package pm

import (
	"context"
	"math"
	"testing"
	"testing/quick"

	"vasched/internal/stats"
)

// fakePlatform is a synthetic CMP for unit-testing the managers: core
// frequency is near-linear in voltage with per-core speed grades, power is
// quadratic-plus-exponential (so the LinOpt fit is genuinely an
// approximation), and IPC is per-core constant with an optional
// frequency-dependent droop for TrueIPCAt. It implements the frozen
// Platform interface of oracle_test.go, and snapshot produces the
// Snapshot the managers decide on.
type fakePlatform struct {
	levels []float64
	speed  []float64 // per-core frequency grade (GHz per volt-ish)
	leak   []float64 // per-core static scale
	ipc    []float64
	uncore float64
	droop  []float64 // IPC loss per GHz for TrueIPCAt
	minLev []int     // per-core minimum feasible level (0 default)
}

func (f *fakePlatform) NumCores() int  { return len(f.speed) }
func (f *fakePlatform) NumLevels() int { return len(f.levels) }
func (f *fakePlatform) VoltageAt(l int) float64 {
	return f.levels[l]
}
func (f *fakePlatform) FreqAt(c, l int) float64 {
	if f.minLev != nil && l < f.minLev[c] {
		return 0
	}
	v := f.levels[l]
	return f.speed[c] * (v - 0.2) * 5e9
}
func (f *fakePlatform) PowerAt(c, l int) float64 {
	v := f.levels[l]
	dyn := 3.0 * v * v * (f.FreqAt(c, l) / 4e9)
	stat := f.leak[c] * math.Exp(2*(v-1))
	return dyn + stat
}
func (f *fakePlatform) IPC(c int) float64     { return f.ipc[c] }
func (f *fakePlatform) RefIPS(c int) float64  { return f.ipc[c] * 4e9 }
func (f *fakePlatform) UncorePowerW() float64 { return f.uncore }
func (f *fakePlatform) TrueIPCAt(c, l int) float64 {
	d := 0.0
	if f.droop != nil {
		d = f.droop[c] * f.FreqAt(c, l) / 1e9
	}
	ipc := f.ipc[c] - d
	if ipc < 0.05 {
		ipc = 0.05
	}
	return ipc
}

// snapshot tabulates the fake's observables, levels ascending within each
// core and cores ascending.
func (f *fakePlatform) snapshot() *Snapshot {
	s := &Snapshot{Uncore: f.uncore}
	nc, nl := f.NumCores(), f.NumLevels()
	s.Resize(nc, nl)
	copy(s.Volt, f.levels)
	for c := 0; c < nc; c++ {
		s.IPCs[c] = f.IPC(c)
		s.Refs[c] = f.RefIPS(c)
		for l := 0; l < nl; l++ {
			s.Freq[c*nl+l] = f.FreqAt(c, l)
			s.Power[c*nl+l] = f.PowerAt(c, l)
			s.TrueIPC[c*nl+l] = f.TrueIPCAt(c, l)
		}
	}
	return s
}

func ladder() []float64 {
	return []float64{0.6, 0.65, 0.7, 0.75, 0.8, 0.85, 0.9, 0.95, 1.0}
}

func newFake(n int) *fakePlatform {
	f := &fakePlatform{levels: ladder(), uncore: 2}
	for c := 0; c < n; c++ {
		f.speed = append(f.speed, 0.9+0.05*float64(c%5))
		f.leak = append(f.leak, 0.8+0.3*float64((c*7)%5))
		f.ipc = append(f.ipc, 0.3+0.25*float64(c%4))
	}
	return f
}

func assertFeasible(t *testing.T, p Platform, b Budget, levels []int, name string) {
	t.Helper()
	if got := totalPower(p, levels); got > b.PTargetW+1e-9 {
		t.Fatalf("%s: total power %.3f exceeds target %.3f (levels %v)", name, got, b.PTargetW, levels)
	}
	for c, l := range levels {
		if p.PowerAt(c, l) > b.PCoreMaxW+1e-9 {
			t.Fatalf("%s: core %d power %.3f exceeds cap %.3f", name, c, p.PowerAt(c, l), b.PCoreMaxW)
		}
		if l < 0 || l >= p.NumLevels() {
			t.Fatalf("%s: level %d out of range", name, l)
		}
	}
}

func TestFoxtonMeetsBudget(t *testing.T) {
	p := newFake(8)
	b := Budget{PTargetW: 25, PCoreMaxW: 6}
	levels, err := NewFoxton().Decide(context.Background(), p.snapshot(), b, stats.NewRNG(1))
	if err != nil {
		t.Fatal(err)
	}
	assertFeasible(t, p, b, levels, "Foxton*")
}

func TestFoxtonGenerousBudgetKeepsTopLevels(t *testing.T) {
	p := newFake(4)
	b := Budget{PTargetW: 1000, PCoreMaxW: 100}
	levels, err := NewFoxton().Decide(context.Background(), p.snapshot(), b, stats.NewRNG(1))
	if err != nil {
		t.Fatal(err)
	}
	for c, l := range levels {
		if l != p.NumLevels()-1 {
			t.Fatalf("core %d throttled to %d with unlimited budget", c, l)
		}
	}
}

func TestFoxtonImpossibleBudgetParksAtFloor(t *testing.T) {
	p := newFake(4)
	b := Budget{PTargetW: 0.1, PCoreMaxW: 0.1}
	levels, err := NewFoxton().Decide(context.Background(), p.snapshot(), b, stats.NewRNG(1))
	if err != nil {
		t.Fatal(err)
	}
	for c, l := range levels {
		if l != minLevel(p, c) {
			t.Fatalf("core %d at %d, want floor", c, l)
		}
	}
}

func TestLinOptMeetsBudgetAndBeatsFoxton(t *testing.T) {
	p := newFake(12)
	b := Budget{PTargetW: 35, PCoreMaxW: 6}
	rng := stats.NewRNG(2)
	fox, err := NewFoxton().Decide(context.Background(), p.snapshot(), b, rng)
	if err != nil {
		t.Fatal(err)
	}
	lin, err := NewLinOpt().Decide(context.Background(), p.snapshot(), b, rng)
	if err != nil {
		t.Fatal(err)
	}
	assertFeasible(t, p, b, lin, "LinOpt")
	tFox := throughput(p, fox)
	tLin := throughput(p, lin)
	if tLin < tFox {
		t.Fatalf("LinOpt throughput %.1f below Foxton* %.1f", tLin, tFox)
	}
}

func TestLinOptInfeasibleBudgetParksAtFloor(t *testing.T) {
	p := newFake(4)
	b := Budget{PTargetW: 0.5, PCoreMaxW: 0.5}
	levels, err := NewLinOpt().Decide(context.Background(), p.snapshot(), b, stats.NewRNG(3))
	if err != nil {
		t.Fatal(err)
	}
	for c, l := range levels {
		if l != minLevel(p, c) {
			t.Fatalf("core %d at %d, want floor", c, l)
		}
	}
}

func TestLinOptRespectsPerCoreCap(t *testing.T) {
	p := newFake(6)
	// Loose chip budget but a tight per-core cap: the cap must bind.
	b := Budget{PTargetW: 1000, PCoreMaxW: 3.5}
	levels, err := NewLinOpt().Decide(context.Background(), p.snapshot(), b, stats.NewRNG(4))
	if err != nil {
		t.Fatal(err)
	}
	assertFeasible(t, p, b, levels, "LinOpt")
}

func TestLinOptTwoPointFit(t *testing.T) {
	p := newFake(6)
	b := Budget{PTargetW: 22, PCoreMaxW: 6}
	m := LinOpt{FitPoints: 2}
	levels, err := m.Decide(context.Background(), p.snapshot(), b, stats.NewRNG(5))
	if err != nil {
		t.Fatal(err)
	}
	assertFeasible(t, p, b, levels, "LinOpt-2pt")
}

func TestSAnnMeetsBudgetAndIsCompetitive(t *testing.T) {
	p := newFake(8)
	b := Budget{PTargetW: 28, PCoreMaxW: 6}
	rng := stats.NewRNG(6)
	sann, err := NewSAnn().Decide(context.Background(), p.snapshot(), b, rng)
	if err != nil {
		t.Fatal(err)
	}
	assertFeasible(t, p, b, sann, "SAnn")
	lin, err := NewLinOpt().Decide(context.Background(), p.snapshot(), b, rng)
	if err != nil {
		t.Fatal(err)
	}
	tSAnn := throughput(p, sann)
	tLin := throughput(p, lin)
	// The paper finds SAnn slightly ahead of LinOpt; at minimum it should
	// not be more than a few percent behind.
	if tSAnn < 0.95*tLin {
		t.Fatalf("SAnn throughput %.1f more than 5%% behind LinOpt %.1f", tSAnn, tLin)
	}
}

func TestSAnnWithinOnePercentOfExhaustive(t *testing.T) {
	// The paper's Section 6.5 validation, at <= 4 threads.
	p := newFake(4)
	b := Budget{PTargetW: 14, PCoreMaxW: 5}
	rng := stats.NewRNG(7)
	ex, err := NewExhaustive().Decide(context.Background(), p.snapshot(), b, rng)
	if err != nil {
		t.Fatal(err)
	}
	sa := SAnn{MaxEvals: 30000}
	sann, err := sa.Decide(context.Background(), p.snapshot(), b, rng)
	if err != nil {
		t.Fatal(err)
	}
	tEx := throughput(p, ex)
	tSA := throughput(p, sann)
	if tSA < 0.99*tEx {
		t.Fatalf("SAnn %.2f more than 1%% below exhaustive %.2f", tSA, tEx)
	}
}

func TestLinOptCloseToExhaustive(t *testing.T) {
	p := newFake(4)
	b := Budget{PTargetW: 14, PCoreMaxW: 5}
	rng := stats.NewRNG(8)
	ex, err := NewExhaustive().Decide(context.Background(), p.snapshot(), b, rng)
	if err != nil {
		t.Fatal(err)
	}
	lin, err := NewLinOpt().Decide(context.Background(), p.snapshot(), b, rng)
	if err != nil {
		t.Fatal(err)
	}
	if tl, te := throughput(p, lin), throughput(p, ex); tl < 0.9*te {
		t.Fatalf("LinOpt %.2f more than 10%% below exhaustive %.2f", tl, te)
	}
}

func TestExhaustiveOptimal(t *testing.T) {
	// On a 3-core instance, exhaustive must dominate every other manager.
	p := newFake(3)
	b := Budget{PTargetW: 11, PCoreMaxW: 5}
	rng := stats.NewRNG(9)
	ex, err := NewExhaustive().Decide(context.Background(), p.snapshot(), b, rng)
	if err != nil {
		t.Fatal(err)
	}
	assertFeasible(t, p, b, ex, "Exhaustive")
	tEx := throughput(p, ex)
	for _, m := range []Manager{NewFoxton(), NewLinOpt(), NewSAnn()} {
		levels, err := m.Decide(context.Background(), p.snapshot(), b, rng)
		if err != nil {
			t.Fatal(err)
		}
		if tv := throughput(p, levels); tv > tEx+1e-9 {
			t.Fatalf("%s throughput %.3f beats exhaustive %.3f", m.Name(), tv, tEx)
		}
	}
}

func TestExhaustiveRejectsHugeSpaces(t *testing.T) {
	p := newFake(20)
	b := Budget{PTargetW: 80, PCoreMaxW: 6}
	if _, err := NewExhaustive().Decide(context.Background(), p.snapshot(), b, stats.NewRNG(10)); err == nil {
		t.Fatal("20-core exhaustive search accepted")
	}
}

func TestOracleUsesTrueIPC(t *testing.T) {
	// One core with severe IPC droop, one without, and a budget for only
	// one fast core: the Oracle should throttle the drooping core harder
	// than the sensor-IPC exhaustive search would.
	p := newFake(2)
	p.ipc = []float64{1.0, 1.0}
	p.droop = []float64{0.2, 0.0}
	b := Budget{PTargetW: 9, PCoreMaxW: 6}
	rng := stats.NewRNG(11)
	oracle, err := NewOracle().Decide(context.Background(), p.snapshot(), b, rng)
	if err != nil {
		t.Fatal(err)
	}
	plain, err := NewExhaustive().Decide(context.Background(), p.snapshot(), b, rng)
	if err != nil {
		t.Fatal(err)
	}
	trueTP := func(levels []int) float64 {
		sum := 0.0
		for c, l := range levels {
			sum += p.TrueIPCAt(c, l) * p.FreqAt(c, l) / 1e6
		}
		return sum
	}
	if trueTP(oracle) < trueTP(plain)-1e-9 {
		t.Fatalf("oracle true throughput %.1f below sensor-IPC search %.1f", trueTP(oracle), trueTP(plain))
	}
	if NewOracle().Name() != NameOracle || NewExhaustive().Name() != NameExhaustive {
		t.Fatal("names wrong")
	}
	noTrue := p.snapshot()
	noTrue.TrueIPC = nil
	if _, err := NewOracle().Decide(context.Background(), noTrue, b, rng); err == nil {
		t.Fatal("Oracle accepted a snapshot without a TrueIPC table")
	}
}

func TestManagersRejectDegeneratePlatforms(t *testing.T) {
	empty := &fakePlatform{levels: ladder()}
	for _, m := range []Manager{NewFoxton(), NewLinOpt(), NewSAnn(), NewExhaustive()} {
		if _, err := m.Decide(context.Background(), empty.snapshot(), Budget{PTargetW: 10, PCoreMaxW: 5}, stats.NewRNG(1)); err == nil {
			t.Fatalf("%s accepted a platform with no cores", m.Name())
		}
	}
}

func TestMinLevelRespected(t *testing.T) {
	// A core that cannot run below level 4 must never be set below it.
	p := newFake(4)
	p.minLev = []int{0, 4, 0, 2}
	b := Budget{PTargetW: 13, PCoreMaxW: 6}
	for _, m := range []Manager{NewFoxton(), NewLinOpt(), NewSAnn(), NewExhaustive()} {
		levels, err := m.Decide(context.Background(), p.snapshot(), b, stats.NewRNG(12))
		if err != nil {
			t.Fatal(err)
		}
		for c, l := range levels {
			if p.minLev[c] > 0 && l < p.minLev[c] {
				t.Fatalf("%s set core %d to level %d below floor %d", m.Name(), c, l, p.minLev[c])
			}
		}
	}
}

func TestFitLine(t *testing.T) {
	b, c, err := fitLine([]float64{1, 2, 3}, []float64{3, 5, 7})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(b-2) > 1e-12 || math.Abs(c-1) > 1e-12 {
		t.Fatalf("fit = %v, %v", b, c)
	}
	if _, _, err := fitLine([]float64{1, 1}, []float64{2, 3}); err == nil {
		t.Fatal("degenerate abscissae accepted")
	}
	if _, _, err := fitLine(nil, nil); err == nil {
		t.Fatal("empty fit accepted")
	}
	// Single point: flat line through it.
	b, c, err = fitLine([]float64{2}, []float64{5})
	if err != nil || b != 0 || c != 5 {
		t.Fatalf("single-point fit = %v, %v, %v", b, c, err)
	}
}

func BenchmarkLinOpt20Cores(b *testing.B) {
	s := newFake(20).snapshot()
	budget := Budget{PTargetW: 60, PCoreMaxW: 6}
	m := NewLinOpt()
	rng := stats.NewRNG(1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := m.Decide(context.Background(), s, budget, rng); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSAnn20Cores(b *testing.B) {
	s := newFake(20).snapshot()
	budget := Budget{PTargetW: 60, PCoreMaxW: 6}
	m := SAnn{MaxEvals: 20000}
	rng := stats.NewRNG(1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := m.Decide(context.Background(), s, budget, rng); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFoxton20Cores(b *testing.B) {
	s := newFake(20).snapshot()
	budget := Budget{PTargetW: 60, PCoreMaxW: 6}
	m := NewFoxton()
	rng := stats.NewRNG(1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := m.Decide(context.Background(), s, budget, rng); err != nil {
			b.Fatal(err)
		}
	}
}

// Property: on random platforms and budgets, Foxton* and LinOpt always
// return in-range levels, respect per-core minimums, and either satisfy
// the budget or sit at the floor.
func TestManagersFeasibleOrFloorProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := stats.NewRNG(seed)
		n := 1 + rng.Intn(12)
		p := newFake(n)
		for c := 0; c < n; c++ {
			p.leak[c] = 0.3 + rng.Float64()*2
			p.ipc[c] = 0.1 + rng.Float64()
		}
		b := Budget{
			PTargetW:  2 + rng.Float64()*60,
			PCoreMaxW: 1 + rng.Float64()*6,
		}
		for _, m := range []Manager{NewFoxton(), NewLinOpt()} {
			levels, err := m.Decide(context.Background(), p.snapshot(), b, rng)
			if err != nil {
				return false
			}
			atFloor := true
			for c, l := range levels {
				if l < minLevel(p, c) || l >= p.NumLevels() {
					return false
				}
				if l > minLevel(p, c) {
					atFloor = false
				}
			}
			if !atFloor && totalPower(p, levels) > b.PTargetW+1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}
