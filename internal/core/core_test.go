package core

import (
	"context"
	"math"
	"sync"
	"testing"

	"vasched/internal/chip"
	"vasched/internal/cpusim"
	"vasched/internal/delay"
	"vasched/internal/floorplan"
	"vasched/internal/pm"
	"vasched/internal/power"
	"vasched/internal/sched"
	"vasched/internal/stats"
	"vasched/internal/thermal"
	"vasched/internal/trace"
	"vasched/internal/varmodel"
	"vasched/internal/workload"
)

var (
	buildOnce sync.Once
	theChip   *chip.Chip
	theCPU    *cpusim.Model
	buildErr  error
)

func testSystemParts(t testing.TB) (*chip.Chip, *cpusim.Model) {
	t.Helper()
	buildOnce.Do(func() {
		cfg := varmodel.DefaultConfig()
		cfg.GridRows, cfg.GridCols = 64, 64
		g, err := varmodel.NewGenerator(cfg)
		if err != nil {
			buildErr = err
			return
		}
		maps, err := g.Die(8, 0)
		if err != nil {
			buildErr = err
			return
		}
		theChip, buildErr = chip.Build(maps, floorplan.New20CoreCMP(), delay.DefaultConfig(),
			power.DefaultModel(cfg.Tech), thermal.DefaultConfig())
		if buildErr != nil {
			return
		}
		theCPU, buildErr = cpusim.New(cpusim.DefaultCoreConfig(), workload.SPEC())
	})
	if buildErr != nil {
		t.Fatal(buildErr)
	}
	return theChip, theCPU
}

func mustPolicy(t *testing.T, name string) sched.Policy {
	t.Helper()
	p, err := sched.New(name)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestConfigValidation(t *testing.T) {
	c, cpu := testSystemParts(t)
	pol := mustPolicy(t, sched.NameRandom)
	cases := []Config{
		{},
		{Chip: c, CPU: cpu},
		{Chip: c, CPU: cpu, Scheduler: pol, Mode: ModeDVFS},
		{Chip: c, CPU: cpu, Scheduler: pol, Mode: ModeDVFS, Manager: pm.NewFoxton()},
	}
	for i, cfg := range cases {
		if _, err := New(cfg); err == nil {
			t.Errorf("case %d accepted: %+v", i, cfg)
		}
	}
	good := Config{Chip: c, CPU: cpu, Scheduler: pol, Mode: ModeNUniFreq}
	if _, err := New(good); err != nil {
		t.Fatal(err)
	}
}

func TestModeString(t *testing.T) {
	if ModeUniFreq.String() != "UniFreq" || ModeNUniFreq.String() != "NUniFreq" ||
		ModeDVFS.String() != "NUniFreq+DVFS" {
		t.Fatal("mode names wrong")
	}
}

func runOnce(t *testing.T, mode Mode, schedName string, mgr pm.Manager, budget pm.Budget, nThreads int, seed int64) *RunStats {
	t.Helper()
	c, cpu := testSystemParts(t)
	sys, err := New(Config{
		Chip: c, CPU: cpu,
		Scheduler: mustPolicy(t, schedName),
		Mode:      mode, Manager: mgr, Budget: budget,
		SampleIntervalMS: 2, // coarser sampling keeps tests fast
		Seed:             seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	apps := workload.Mix(stats.NewRNG(seed), nThreads)
	st, err := sys.Run(apps, 40)
	if err != nil {
		t.Fatal(err)
	}
	return st
}

func TestRunUniFreqBasics(t *testing.T) {
	st := runOnce(t, ModeUniFreq, sched.NameVarP, nil, pm.Budget{}, 4, 1)
	if st.MIPS <= 0 || st.AvgPowerW <= 0 {
		t.Fatalf("degenerate stats: %+v", st)
	}
	if st.PowerDeviationPct != 0 {
		t.Fatal("deviation tracked without a budget")
	}
	if len(st.Instructions) != 4 {
		t.Fatalf("instructions for %d threads", len(st.Instructions))
	}
	for i, ins := range st.Instructions {
		if ins <= 0 {
			t.Fatalf("thread %d made no progress", i)
		}
	}
}

func TestNUniFreqFasterThanUniFreq(t *testing.T) {
	uni := runOnce(t, ModeUniFreq, sched.NameRandom, nil, pm.Budget{}, 8, 3)
	nuni := runOnce(t, ModeNUniFreq, sched.NameRandom, nil, pm.Budget{}, 8, 3)
	// Section 7.4: NUniFreq raises average frequency (and power).
	if nuni.AvgActiveFreqHz <= uni.AvgActiveFreqHz {
		t.Fatalf("NUniFreq freq %v not above UniFreq %v", nuni.AvgActiveFreqHz, uni.AvgActiveFreqHz)
	}
	if nuni.AvgPowerW <= uni.AvgPowerW {
		t.Fatalf("NUniFreq power %v not above UniFreq %v", nuni.AvgPowerW, uni.AvgPowerW)
	}
}

func TestVarPSavesPowerOverRandom(t *testing.T) {
	// Average over several seeds: Random sometimes picks good cores too.
	var rnd, varp float64
	for seed := int64(0); seed < 4; seed++ {
		rnd += runOnce(t, ModeUniFreq, sched.NameRandom, nil, pm.Budget{}, 4, 10+seed).AvgPowerW
		varp += runOnce(t, ModeUniFreq, sched.NameVarP, nil, pm.Budget{}, 4, 10+seed).AvgPowerW
	}
	if varp >= rnd {
		t.Fatalf("VarP power %v not below Random %v", varp/4, rnd/4)
	}
}

func TestDVFSRespectsBudget(t *testing.T) {
	b := pm.Budget{PTargetW: 60, PCoreMaxW: 6}
	st := runOnce(t, ModeDVFS, sched.NameVarFAppIPC, pm.NewLinOpt(), b, 12, 4)
	// Average power should sit near (and essentially under) the target.
	if st.AvgPowerW > b.PTargetW*1.03 {
		t.Fatalf("average power %v far above target %v", st.AvgPowerW, b.PTargetW)
	}
	if st.DecideCount == 0 || st.DecideTime <= 0 {
		t.Fatalf("manager never invoked: %+v", st)
	}
	if st.PowerDeviationPct <= 0 {
		t.Fatal("no deviation samples under a budget")
	}
}

func TestLinOptBeatsFoxtonUnderTightBudget(t *testing.T) {
	b := pm.Budget{PTargetW: 50, PCoreMaxW: 5}
	var fox, lin float64
	for seed := int64(0); seed < 3; seed++ {
		fox += runOnce(t, ModeDVFS, sched.NameVarFAppIPC, pm.NewFoxton(), b, 16, 20+seed).MIPS
		lin += runOnce(t, ModeDVFS, sched.NameVarFAppIPC, pm.NewLinOpt(), b, 16, 20+seed).MIPS
	}
	if lin <= fox {
		t.Fatalf("LinOpt MIPS %v not above Foxton* %v", lin/3, fox/3)
	}
}

func TestRunDeterministic(t *testing.T) {
	a := runOnce(t, ModeDVFS, sched.NameVarFAppIPC, pm.NewLinOpt(), pm.Budget{PTargetW: 55, PCoreMaxW: 6}, 8, 7)
	b := runOnce(t, ModeDVFS, sched.NameVarFAppIPC, pm.NewLinOpt(), pm.Budget{PTargetW: 55, PCoreMaxW: 6}, 8, 7)
	if a.MIPS != b.MIPS || a.AvgPowerW != b.AvgPowerW {
		t.Fatalf("same seed diverged: %v/%v vs %v/%v", a.MIPS, a.AvgPowerW, b.MIPS, b.AvgPowerW)
	}
}

func TestRunValidation(t *testing.T) {
	c, cpu := testSystemParts(t)
	sys, err := New(Config{Chip: c, CPU: cpu, Scheduler: mustPolicy(t, sched.NameRandom), Mode: ModeNUniFreq})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sys.Run(nil, 10); err == nil {
		t.Fatal("empty workload accepted")
	}
	apps := workload.Mix(stats.NewRNG(1), 21)
	if _, err := sys.Run(apps, 10); err == nil {
		t.Fatal("oversubscribed workload accepted")
	}
	if _, err := sys.Run(apps[:2], -1); err == nil {
		t.Fatal("negative duration accepted")
	}
}

func TestWeightedObjectiveImprovesWeightedTP(t *testing.T) {
	b := pm.Budget{PTargetW: 50, PCoreMaxW: 5}
	var mipsObj, wObj float64
	for seed := int64(0); seed < 3; seed++ {
		mipsObj += runOnce(t, ModeDVFS, sched.NameVarFAppIPC, pm.NewLinOpt(), b, 16, 30+seed).WeightedTP
		wObj += runOnce(t, ModeDVFS, sched.NameVarFAppIPC,
			pm.LinOpt{FitPoints: 3, Objective: pm.ObjWeighted}, b, 16, 30+seed).WeightedTP
	}
	if wObj <= mipsObj {
		t.Fatalf("weighted objective did not improve weighted TP: %v vs %v", wObj/3, mipsObj/3)
	}
}

func TestEDSquaredConsistent(t *testing.T) {
	st := runOnce(t, ModeNUniFreq, sched.NameVarFAppIPC, nil, pm.Budget{}, 6, 9)
	want := st.AvgPowerW / math.Pow(st.MIPS, 3)
	if math.Abs(st.EDSquared-want) > 1e-18 {
		t.Fatalf("ED2 %v inconsistent with %v", st.EDSquared, want)
	}
}

func TestTransientThermalMode(t *testing.T) {
	c, cpu := testSystemParts(t)
	mk := func(transient bool, durMS float64) *RunStats {
		sys, err := New(Config{
			Chip: c, CPU: cpu, Scheduler: mustPolicy(t, sched.NameVarFAppIPC),
			Mode: ModeNUniFreq, TransientThermal: transient,
			SampleIntervalMS: 2, Seed: 11,
		})
		if err != nil {
			t.Fatal(err)
		}
		apps := workload.Mix(stats.NewRNG(11), 10)
		st, err := sys.Run(apps, durMS)
		if err != nil {
			t.Fatal(err)
		}
		return st
	}
	steady := mk(false, 40)
	short := mk(true, 40)
	// Early in a transient run the chip is still cold, so temperatures —
	// and with them leakage power — must sit below the steady-state
	// figures.
	if short.MaxTempC >= steady.MaxTempC {
		t.Fatalf("transient max temp %v not below steady-state %v", short.MaxTempC, steady.MaxTempC)
	}
	if short.AvgStatW >= steady.AvgStatW {
		t.Fatalf("transient leakage %v not below steady-state %v", short.AvgStatW, steady.AvgStatW)
	}
	// Run long enough and the transient mode approaches the steady state.
	long := mk(true, 400)
	if d := long.MaxTempC - steady.MaxTempC; d > 3 || d < -8 {
		t.Fatalf("long transient max temp %v vs steady %v", long.MaxTempC, steady.MaxTempC)
	}
}

func TestFrozenSnapshot(t *testing.T) {
	c, cpu := testSystemParts(t)
	apps := workload.Mix(stats.NewRNG(3), 6)
	snap, err := FrozenSnapshot(c, cpu, apps, 7)
	if err != nil {
		t.Fatal(err)
	}
	if snap.Cores != 6 {
		t.Fatalf("snapshot covers %d cores", snap.Cores)
	}
	nl := snap.Levels
	if nl != len(c.Levels) || len(snap.Volt) != nl || snap.Volt[nl-1] != c.Levels[nl-1] {
		t.Fatalf("snapshot has %d levels (volts %v)", nl, snap.Volt)
	}
	top := nl - 1
	for i := 0; i < snap.Cores; i++ {
		row := i * nl
		if snap.Freq[row+top] <= 0 {
			t.Fatalf("core %d infeasible at top level", i)
		}
		if snap.Power[row+top] <= snap.Power[row+top-2] {
			t.Fatalf("core %d power not increasing in level", i)
		}
		if snap.IPCs[i] <= 0 || snap.Refs[i] <= 0 {
			t.Fatalf("core %d missing IPC/reference", i)
		}
		// Noise-free, cold start: the IPC sensor reads the true IPC at
		// the top level.
		if snap.IPCs[i] != snap.TrueIPC[row+top] {
			t.Fatalf("core %d sensor IPC %v != true IPC at the top level %v", i, snap.IPCs[i], snap.TrueIPC[row+top])
		}
	}
	if snap.Uncore <= 0 {
		t.Fatal("no uncore power")
	}
	// The frozen snapshot must carry true frequency-dependent IPC for the
	// Oracle ablation; for a memory-bound thread it rises as the level
	// (and with it the clock) falls.
	for i := 0; i < snap.Cores; i++ {
		lo := snap.TrueIPC[i*nl+top]
		hi := snap.TrueIPC[i*nl+top-4]
		if hi < lo-1e-12 {
			t.Fatalf("core %d true IPC fell as frequency dropped: %v -> %v", i, lo, hi)
		}
	}
}

func TestCaptureTrace(t *testing.T) {
	c, cpu := testSystemParts(t)
	sys, err := New(Config{
		Chip: c, CPU: cpu, Scheduler: mustPolicy(t, sched.NameVarFAppIPC),
		Mode: ModeNUniFreq, CaptureTrace: true,
		SampleIntervalMS: 2, Seed: 13,
	})
	if err != nil {
		t.Fatal(err)
	}
	apps := workload.Mix(stats.NewRNG(13), 5)
	st, err := sys.Run(apps, 20)
	if err != nil {
		t.Fatal(err)
	}
	if len(st.Trace) != 10 {
		t.Fatalf("trace has %d points, want 10", len(st.Trace))
	}
	for i, p := range st.Trace {
		if p.PowerW <= 0 || p.MIPS <= 0 || p.MaxTempC <= 0 {
			t.Fatalf("degenerate trace point %d: %+v", i, p)
		}
		if i > 0 && p.TimeMS <= st.Trace[i-1].TimeMS {
			t.Fatalf("trace time not increasing at %d", i)
		}
	}
	// Without the flag, no trace.
	sys2, err := New(Config{
		Chip: c, CPU: cpu, Scheduler: mustPolicy(t, sched.NameVarFAppIPC),
		Mode: ModeNUniFreq, SampleIntervalMS: 2, Seed: 13,
	})
	if err != nil {
		t.Fatal(err)
	}
	st2, err := sys2.Run(apps, 20)
	if err != nil {
		t.Fatal(err)
	}
	if st2.Trace != nil {
		t.Fatal("trace captured without the flag")
	}
}

// governedRun runs 8 threads for 40 ms with the emergency governor armed
// at emergencyC (zero leaves it off), recording spans into tr.
func governedRun(t *testing.T, mode Mode, mgr pm.Manager, emergencyC float64, tr *trace.Tracer) *RunStats {
	t.Helper()
	c, cpu := testSystemParts(t)
	cfg := Config{
		Chip: c, CPU: cpu, Scheduler: mustPolicy(t, sched.NameVarFAppIPC),
		Mode: mode, Manager: mgr, Budget: pm.Budget{PTargetW: 500, PCoreMaxW: 50},
		SampleIntervalMS: 2, Seed: 17,
		Ctx: trace.WithTracer(context.Background(), tr),
	}
	if emergencyC > 0 {
		cfg.EmergencyC, cfg.RecoverC = emergencyC, emergencyC-2
	}
	sys, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	st, err := sys.Run(workload.Mix(stats.NewRNG(17), 8), 40)
	if err != nil {
		t.Fatal(err)
	}
	return st
}

func countSpans(tr *trace.Tracer, name string) int {
	n := 0
	for _, sp := range tr.Snapshot() {
		if sp.Name == name {
			n++
		}
	}
	return n
}

func TestGovernorThrottlesSteadyState(t *testing.T) {
	for _, mode := range []Mode{ModeUniFreq, ModeNUniFreq} {
		freeTr, hotTr := trace.New(1024), trace.New(1024)
		free := governedRun(t, mode, nil, 0, freeTr)
		if free.Emergencies != 0 || free.ThrottledMS != 0 {
			t.Fatalf("%v: ungoverned run throttled: %+v", mode, free)
		}
		if n := countSpans(freeTr, "dynamic.step"); n != 0 {
			t.Fatalf("%v: ungoverned run opened %d tick spans", mode, n)
		}
		// A threshold below the ungoverned peak must trip, throttle, and
		// lower the clock.
		hot := governedRun(t, mode, nil, free.MaxTempC-3, hotTr)
		if hot.Emergencies == 0 || hot.ThrottledMS <= 0 {
			t.Fatalf("%v: governor never engaged: %+v", mode, hot)
		}
		if hot.AvgActiveFreqHz >= free.AvgActiveFreqHz {
			t.Fatalf("%v: throttled clock %v not below %v", mode, hot.AvgActiveFreqHz, free.AvgActiveFreqHz)
		}
		if n := countSpans(hotTr, "dynamic.step"); n != hot.Steps {
			t.Fatalf("%v: %d tick spans for %d ticks", mode, n, hot.Steps)
		}
		if n := countSpans(hotTr, "dynamic.emergency"); n != hot.Emergencies {
			t.Fatalf("%v: %d emergency events for %d emergencies", mode, n, hot.Emergencies)
		}
	}
}

func TestGovernorClampsDVFS(t *testing.T) {
	free := governedRun(t, ModeDVFS, pm.NewLinOpt(), 0, nil)
	hot := governedRun(t, ModeDVFS, pm.NewLinOpt(), free.MaxTempC-3, nil)
	if hot.Emergencies == 0 || hot.ThrottledMS <= 0 {
		t.Fatalf("governor never engaged: %+v", hot)
	}
	if hot.DecideCount != free.DecideCount {
		t.Fatalf("governor changed the DVFS cadence: %d vs %d decisions", hot.DecideCount, free.DecideCount)
	}
	if hot.AvgActiveFreqHz >= free.AvgActiveFreqHz {
		t.Fatalf("clamped clock %v not below %v", hot.AvgActiveFreqHz, free.AvgActiveFreqHz)
	}
}

func TestMigrationPenaltyAndStartOffsets(t *testing.T) {
	c, cpu := testSystemParts(t)
	apps := workload.Mix(stats.NewRNG(3), 8)
	run := func(penaltyMS float64, offsets []float64) *RunStats {
		// The random policy re-draws the mapping every OS interval.
		sys, err := New(Config{
			Chip: c, CPU: cpu, Scheduler: mustPolicy(t, sched.NameRandom),
			Mode: ModeNUniFreq, OSIntervalMS: 10, SampleIntervalMS: 2, Seed: 3,
			MigrationPenaltyMS: penaltyMS, StartOffsetsMS: offsets,
		})
		if err != nil {
			t.Fatal(err)
		}
		st, err := sys.Run(apps, 40)
		if err != nil {
			t.Fatal(err)
		}
		return st
	}
	free := run(0, nil)
	if free.Migrations == 0 {
		t.Fatal("random policy never migrated")
	}
	paid := run(5, nil)
	if paid.Migrations != free.Migrations || paid.MIPS >= free.MIPS {
		t.Fatalf("penalty: %d vs %d migrations, %v vs %v MIPS", paid.Migrations, free.Migrations, paid.MIPS, free.MIPS)
	}
	// Start every thread 1 ms before the end of its phase cycle: each
	// crosses into its next cycle on the first tick.
	offsets := make([]float64, len(apps))
	for i, a := range apps {
		for _, p := range a.Phases {
			offsets[i] += p.DurationMS
		}
		offsets[i]--
	}
	if shifted := run(0, offsets); shifted.PhaseSwitches <= free.PhaseSwitches {
		t.Fatalf("offsets crossed %d phase boundaries, unshifted %d", shifted.PhaseSwitches, free.PhaseSwitches)
	}
}

func TestScenarioValidation(t *testing.T) {
	c, cpu := testSystemParts(t)
	pol := mustPolicy(t, sched.NameRandom)
	for name, cfg := range map[string]Config{
		"negative migration penalty": {Chip: c, CPU: cpu, Scheduler: pol, MigrationPenaltyMS: -1},
		"recover above emergency":    {Chip: c, CPU: cpu, Scheduler: pol, EmergencyC: 70, RecoverC: 80},
		"negative emergency":         {Chip: c, CPU: cpu, Scheduler: pol, EmergencyC: -5, RecoverC: -10},
	} {
		if _, err := New(cfg); err == nil {
			t.Errorf("%s accepted", name)
		}
	}
	sys, err := New(Config{Chip: c, CPU: cpu, Scheduler: pol, StartOffsetsMS: []float64{1, 2}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sys.Run(workload.Mix(stats.NewRNG(1), 4), 10); err == nil {
		t.Fatal("2 start offsets for 4 threads accepted")
	}
}
