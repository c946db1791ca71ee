package chip

import (
	"math"
	"sync"
	"testing"

	"vasched/internal/cpusim"
	"vasched/internal/delay"
	"vasched/internal/floorplan"
	"vasched/internal/power"
	"vasched/internal/thermal"
	"vasched/internal/varmodel"
	"vasched/internal/workload"
)

var (
	testChipOnce sync.Once
	testChipVal  *Chip
	testCPUVal   *cpusim.Model
	testChipErr  error
)

// testChip builds one characterised die (cached across tests — building is
// the expensive part and the die is immutable).
func testChip(t testing.TB) (*Chip, *cpusim.Model) {
	t.Helper()
	testChipOnce.Do(func() {
		cfg := varmodel.DefaultConfig()
		cfg.GridRows, cfg.GridCols = 128, 128
		g, err := varmodel.NewGenerator(cfg)
		if err != nil {
			testChipErr = err
			return
		}
		maps, err := g.Die(1, 0)
		if err != nil {
			testChipErr = err
			return
		}
		fp := floorplan.New20CoreCMP()
		pm := power.DefaultModel(cfg.Tech)
		c, err := Build(maps, fp, delay.DefaultConfig(), pm, thermal.DefaultConfig())
		if err != nil {
			testChipErr = err
			return
		}
		cpu, err := cpusim.New(cpusim.DefaultCoreConfig(), workload.SPEC())
		if err != nil {
			testChipErr = err
			return
		}
		testChipVal, testCPUVal = c, cpu
	})
	if testChipErr != nil {
		t.Fatal(testChipErr)
	}
	return testChipVal, testCPUVal
}

func TestBuildTables(t *testing.T) {
	c, _ := testChip(t)
	if c.NumCores() != 20 {
		t.Fatalf("cores = %d", c.NumCores())
	}
	for core := 0; core < c.NumCores(); core++ {
		if len(c.VFTable[core]) == 0 {
			t.Fatalf("core %d has empty VF table", core)
		}
		if len(c.StaticAtLevel[core]) != len(c.Levels) {
			t.Fatalf("core %d static table wrong size", core)
		}
		// Static power must rise with voltage.
		for li := 1; li < len(c.Levels); li++ {
			if c.StaticAtLevel[core][li] <= c.StaticAtLevel[core][li-1] {
				t.Fatalf("core %d static not monotone in V", core)
			}
		}
	}
}

func TestFmaxAtSemantics(t *testing.T) {
	c, _ := testChip(t)
	for core := 0; core < c.NumCores(); core++ {
		fNom := c.FmaxNominal(core)
		if fNom <= 0 {
			t.Fatalf("core %d FmaxNominal = %v", core, fNom)
		}
		if f := c.FmaxAt(core, 0.8); f > fNom {
			t.Fatalf("core %d faster at 0.8V than 1.0V", core)
		}
		if f := c.FmaxAt(core, 0.1); f != 0 {
			t.Fatalf("core %d has frequency %v below every level", core, f)
		}
	}
}

func TestLevelFor(t *testing.T) {
	c, _ := testChip(t)
	if i, err := c.LevelFor(0.8); err != nil || c.Levels[i] != 0.8 {
		t.Fatalf("LevelFor(0.8) = %d, %v", i, err)
	}
	if _, err := c.LevelFor(0.83); err == nil {
		t.Fatal("off-ladder voltage accepted")
	}
}

func TestEvaluateSingleThread(t *testing.T) {
	c, cpu := testChip(t)
	apps := workload.SPEC()
	st := c.OffStates()
	st[4] = CoreState{App: apps[0], V: 1.0, F: c.FmaxNominal(4)}
	r, err := c.Evaluate(st, cpu)
	if err != nil {
		t.Fatal(err)
	}
	if r.CorePowerW[4] <= 0 {
		t.Fatal("active core reports no power")
	}
	for core := 0; core < 20; core++ {
		if core != 4 && r.CorePowerW[core] != 0 {
			t.Fatalf("powered-off core %d reports %v W", core, r.CorePowerW[core])
		}
	}
	if r.CoreIPC[4] <= 0 {
		t.Fatal("active core reports no IPC")
	}
	if r.TotalW <= r.CorePowerW[4] {
		t.Fatal("total should include L2 power")
	}
	if r.CoreTempC[4] <= r.CoreTempC[19] {
		t.Fatal("active core should be hotter than idle far core")
	}
}

func TestEvaluateFullLoadEnvelope(t *testing.T) {
	c, cpu := testChip(t)
	apps := workload.SPEC()
	st := c.OffStates()
	for core := 0; core < 20; core++ {
		st[core] = CoreState{App: apps[core%len(apps)], V: 1.0, F: c.FmaxNominal(core)}
	}
	r, err := c.Evaluate(st, cpu)
	if err != nil {
		t.Fatal(err)
	}
	// The calibrated unconstrained full-load die must exceed even the
	// High Performance budget (so Ptarget genuinely throttles) while
	// staying physically plausible.
	if r.TotalW < 100 || r.TotalW > 160 {
		t.Fatalf("full-load power = %v W, outside envelope", r.TotalW)
	}
	maxT := c.Therm.MaxTemp(r.BlockTempC)
	if maxT < 60 || maxT > 110 {
		t.Fatalf("full-load peak temp = %v C", maxT)
	}
	if r.StaticW <= 0 || r.DynW <= 0 {
		t.Fatalf("power breakdown: dyn=%v stat=%v", r.DynW, r.StaticW)
	}
	if math.Abs(r.DynW+r.StaticW-r.TotalW) > 1e-9 {
		t.Fatal("breakdown does not sum to total")
	}
}

func TestEvaluateLowerVoltageLowersPower(t *testing.T) {
	c, cpu := testChip(t)
	apps := workload.SPEC()
	mk := func(v float64) float64 {
		st := c.OffStates()
		for core := 0; core < 20; core++ {
			st[core] = CoreState{App: apps[core%len(apps)], V: v, F: c.FmaxAt(core, v)}
		}
		r, err := c.Evaluate(st, cpu)
		if err != nil {
			t.Fatal(err)
		}
		return r.TotalW
	}
	if mk(0.7) >= mk(1.0) {
		t.Fatal("lower voltage did not lower total power")
	}
}

func TestEvaluateRejectsOverclock(t *testing.T) {
	c, cpu := testChip(t)
	apps := workload.SPEC()
	st := c.OffStates()
	st[0] = CoreState{App: apps[0], V: 0.7, F: c.FmaxNominal(0)}
	if c.FmaxAt(0, 0.7) < c.FmaxNominal(0) {
		if _, err := c.Evaluate(st, cpu); err == nil {
			t.Fatal("overclocked operating point accepted")
		}
	}
	st[0] = CoreState{App: apps[0], V: 0, F: 1e9}
	if _, err := c.Evaluate(st, cpu); err == nil {
		t.Fatal("zero voltage accepted")
	}
	if _, err := c.Evaluate(st[:3], cpu); err == nil {
		t.Fatal("wrong-length state slice accepted")
	}
}

func TestEvaluateDeterministic(t *testing.T) {
	c, cpu := testChip(t)
	apps := workload.SPEC()
	st := c.OffStates()
	for core := 0; core < 20; core++ {
		st[core] = CoreState{App: apps[(core+3)%len(apps)], V: 0.8, F: c.FmaxAt(core, 0.8)}
	}
	a, err := c.Evaluate(st, cpu)
	if err != nil {
		t.Fatal(err)
	}
	b, err := c.Evaluate(st, cpu)
	if err != nil {
		t.Fatal(err)
	}
	if a.TotalW != b.TotalW {
		t.Fatal("Evaluate not deterministic")
	}
}

func TestFrequencyAndLeakageCoupling(t *testing.T) {
	// Across cores, rated frequency and static power should correlate
	// positively (fast cores leak more) — the premise of Figure 6.
	c, _ := testChip(t)
	nomIdx := len(c.Levels) - 1
	var fast, slow, fastLeak, slowLeak float64
	fast, slow = -1, 1e18
	for core := 0; core < c.NumCores(); core++ {
		f := c.FmaxNominal(core)
		if f > fast {
			fast, fastLeak = f, c.StaticAtLevel[core][nomIdx]
		}
		if f < slow {
			slow, slowLeak = f, c.StaticAtLevel[core][nomIdx]
		}
	}
	if fastLeak <= slowLeak {
		t.Skipf("fastest core does not leak more on this die (fast %.2fW vs slow %.2fW); coupling is statistical", fastLeak, slowLeak)
	}
}

func TestEvaluateTransientConvergesToSteadyState(t *testing.T) {
	c, cpu := testChip(t)
	apps := workload.SPEC()
	st := c.OffStates()
	for core := 0; core < 20; core++ {
		st[core] = CoreState{App: apps[core%len(apps)], V: 0.9, F: c.FmaxAt(core, 0.9)}
	}
	steady, err := c.Evaluate(st, cpu)
	if err != nil {
		t.Fatal(err)
	}
	var temps []float64
	var last *EvalResult
	for step := 0; step < 600; step++ {
		last = &EvalResult{}
		if err := c.EvaluateTransientInto(last, st, cpu, temps, 1); err != nil {
			t.Fatal(err)
		}
		temps = last.BlockTempC
	}
	for core := 0; core < 20; core++ {
		if d := last.CoreTempC[core] - steady.CoreTempC[core]; d > 1.0 || d < -1.0 {
			t.Fatalf("core %d transient %v C vs steady %v C", core, last.CoreTempC[core], steady.CoreTempC[core])
		}
	}
	if d := last.TotalW - steady.TotalW; d > 0.02*steady.TotalW || d < -0.02*steady.TotalW {
		t.Fatalf("transient power %v vs steady %v", last.TotalW, steady.TotalW)
	}
}

func TestEvaluateTransientInertia(t *testing.T) {
	c, cpu := testChip(t)
	apps := workload.SPEC()
	st := c.OffStates()
	st[0] = CoreState{App: apps[0], V: 1.0, F: c.FmaxNominal(0)}
	steady, err := c.Evaluate(st, cpu)
	if err != nil {
		t.Fatal(err)
	}
	one := &EvalResult{}
	if err := c.EvaluateTransientInto(one, st, cpu, nil, 1); err != nil {
		t.Fatal(err)
	}
	amb := c.Therm.Config().AmbientC
	rise := steady.CoreTempC[0] - amb
	oneRise := one.CoreTempC[0] - amb
	if oneRise <= 0 || oneRise > 0.7*rise {
		t.Fatalf("1 ms rise %v vs steady rise %v: missing inertia", oneRise, rise)
	}
}

// TestEvaluateTransientIntoMatchesAllocatingForm checks that a result
// reused across steps matches a freshly allocated one bit for bit.
func TestEvaluateTransientIntoMatchesAllocatingForm(t *testing.T) {
	c, cpu := testChip(t)
	apps := workload.SPEC()
	st := c.OffStates()
	for core := 0; core < 20; core++ {
		st[core] = CoreState{App: apps[core%len(apps)], V: 0.9, F: c.FmaxAt(core, 0.9)}
	}
	prev := c.Therm.AmbientTemps(nil)
	var reused EvalResult
	for step := 0; step < 5; step++ {
		want := &EvalResult{}
		if err := c.EvaluateTransientInto(want, st, cpu, prev, 1); err != nil {
			t.Fatal(err)
		}
		if err := c.EvaluateTransientInto(&reused, st, cpu, prev, 1); err != nil {
			t.Fatal(err)
		}
		if reused.TotalW != want.TotalW || reused.ThermalIters != want.ThermalIters {
			t.Fatalf("step %d: Into total %v vs %v", step, reused.TotalW, want.TotalW)
		}
		for i := range want.BlockTempC {
			if reused.BlockTempC[i] != want.BlockTempC[i] {
				t.Fatalf("step %d block %d: %v vs %v", step, i, reused.BlockTempC[i], want.BlockTempC[i])
			}
		}
		for core := range want.CorePowerW {
			if reused.CorePowerW[core] != want.CorePowerW[core] ||
				reused.CoreTempC[core] != want.CoreTempC[core] ||
				reused.CoreIPC[core] != want.CoreIPC[core] {
				t.Fatalf("step %d core %d diverged", step, core)
			}
		}
		copy(prev, want.BlockTempC)
	}
}

func TestEvaluateTransientIntoDoesNotAllocate(t *testing.T) {
	c, cpu := testChip(t)
	apps := workload.SPEC()
	st := c.OffStates()
	for core := 0; core < 20; core++ {
		st[core] = CoreState{App: apps[core%len(apps)], V: 0.9, F: c.FmaxAt(core, 0.9)}
	}
	prev := c.Therm.AmbientTemps(nil)
	var out EvalResult
	// Warm up: first call sizes out's slices and the stepper cache.
	if err := c.EvaluateTransientInto(&out, st, cpu, prev, 1); err != nil {
		t.Fatal(err)
	}
	copy(prev, out.BlockTempC)
	allocs := testing.AllocsPerRun(20, func() {
		if err := c.EvaluateTransientInto(&out, st, cpu, prev, 1); err != nil {
			t.Fatal(err)
		}
		copy(prev, out.BlockTempC)
	})
	// The engine's tick loop rides this path once per simulated tick, so
	// it must not allocate. Under the race detector sync.Pool drops a
	// random quarter of its Puts and the pooled scratch is rebuilt (ten
	// allocations) after each drop; there the test keeps its former bound
	// of 8 per call.
	limit := 0.0
	if raceEnabled {
		limit = 8
	}
	if allocs > limit {
		t.Fatalf("EvaluateTransientInto allocates %v objects per call", allocs)
	}
}
