package dynamic

import (
	"reflect"
	"sync"
	"testing"

	"vasched/internal/chip"
	"vasched/internal/cpusim"
	"vasched/internal/delay"
	"vasched/internal/floorplan"
	"vasched/internal/power"
	"vasched/internal/sched"
	"vasched/internal/stats"
	"vasched/internal/thermal"
	"vasched/internal/varmodel"
	"vasched/internal/workload"
)

var (
	buildOnce sync.Once
	theChip   *chip.Chip
	theCPU    *cpusim.Model
	buildErr  error
)

// testParts builds one characterised die plus the calibration it was built
// with (horizon tests need the latter to rebuild aged variants). 64x64
// grids keep the fixture fast; the engine does not care about resolution.
func testParts(t testing.TB) (*chip.Chip, *cpusim.Model) {
	t.Helper()
	buildOnce.Do(func() {
		g, err := varmodel.NewGenerator(testVarCfg())
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
			power.DefaultModel(testVarCfg().Tech), thermal.DefaultConfig())
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

func testVarCfg() varmodel.Config {
	cfg := varmodel.DefaultConfig()
	cfg.GridRows, cfg.GridCols = 64, 64
	return cfg
}

func mustPolicy(t testing.TB, name string) sched.Policy {
	t.Helper()
	p, err := sched.New(name)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func baseConfig(t testing.TB) Config {
	c, cpu := testParts(t)
	return Config{
		Chip: c, CPU: cpu,
		Scheduler: mustPolicy(t, sched.NameVarFAppIPC),
		DtMS:      2, OSIntervalMS: 10,
		Seed: 2008,
	}
}

func TestValidation(t *testing.T) {
	c, cpu := testParts(t)
	pol := mustPolicy(t, sched.NameVarFAppIPC)
	apps := workload.Mix(stats.NewRNG(1), 4)
	bad := []struct {
		name string
		cfg  Config
		apps []*workload.AppProfile
		dur  float64
	}{
		{"nil chip", Config{CPU: cpu, Scheduler: pol}, apps, 10},
		{"nil scheduler", Config{Chip: c, CPU: cpu}, apps, 10},
		{"recover above trip", Config{Chip: c, CPU: cpu, Scheduler: pol, EmergencyC: 70, RecoverC: 80}, apps, 10},
		{"negative migration penalty", Config{Chip: c, CPU: cpu, Scheduler: pol, MigrationPenaltyMS: -1}, apps, 10},
		{"empty workload", Config{Chip: c, CPU: cpu, Scheduler: pol}, nil, 10},
		{"too many threads", Config{Chip: c, CPU: cpu, Scheduler: pol}, workload.Mix(stats.NewRNG(1), 21), 10},
		{"zero duration", Config{Chip: c, CPU: cpu, Scheduler: pol}, apps, 0},
		{"offsets length", Config{Chip: c, CPU: cpu, Scheduler: pol, StartOffsetsMS: []float64{1, 2}}, apps, 10},
	}
	for _, tc := range bad {
		if _, err := Run(tc.cfg, tc.apps, tc.dur); err == nil {
			t.Errorf("%s accepted", tc.name)
		}
	}
}

func TestRunBasicsAndDeterminism(t *testing.T) {
	cfg := baseConfig(t)
	apps := workload.Mix(stats.NewRNG(3), 8)
	a, err := Run(cfg, apps, 30)
	if err != nil {
		t.Fatal(err)
	}
	if a.Steps != 15 || a.DurationMS != 30 {
		t.Fatalf("steps=%d duration=%v", a.Steps, a.DurationMS)
	}
	if a.MIPS <= 0 || a.AvgPowerW <= 0 || a.WeightedTP <= 0 {
		t.Fatalf("degenerate stats: %+v", a)
	}
	amb := cfg.Chip.Therm.Config().AmbientC
	if a.MaxTempC <= amb || a.FinalMaxTempC <= amb {
		t.Fatalf("chip never heated: max %v final %v (ambient %v)", a.MaxTempC, a.FinalMaxTempC, amb)
	}
	if a.WearoutMax <= 0 {
		t.Fatal("no aging accumulated")
	}
	for i, ins := range a.Instructions {
		if ins <= 0 {
			t.Fatalf("thread %d retired nothing", i)
		}
	}
	b, err := Run(cfg, apps, 30)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same config produced different results")
	}
}

func TestPartialFinalStep(t *testing.T) {
	cfg := baseConfig(t)
	apps := workload.Mix(stats.NewRNG(3), 4)
	// 2 ms steps into a 7 ms window: 3 full steps + one 1 ms remainder.
	r, err := Run(cfg, apps, 7)
	if err != nil {
		t.Fatal(err)
	}
	if r.Steps != 4 {
		t.Fatalf("steps = %d, want 4", r.Steps)
	}
}

func TestThrottleGovernorEngages(t *testing.T) {
	cfg := baseConfig(t)
	apps := workload.Mix(stats.NewRNG(3), 16)
	calm, err := Run(cfg, apps, 40)
	if err != nil {
		t.Fatal(err)
	}
	if calm.Emergencies != 0 || calm.ThrottledMS != 0 {
		t.Fatalf("default 85C threshold tripped at quick scale: %+v", calm)
	}
	// A threshold below the observed peak must trip, throttle, and cap the
	// peak below the unthrottled run's.
	hot := cfg
	hot.EmergencyC = calm.MaxTempC - 4
	hot.RecoverC = hot.EmergencyC - 2
	tr, err := Run(hot, apps, 40)
	if err != nil {
		t.Fatal(err)
	}
	if tr.Emergencies == 0 || tr.ThrottledMS <= 0 {
		t.Fatalf("governor never engaged: %+v", tr)
	}
	if tr.MaxTempC >= calm.MaxTempC {
		t.Fatalf("throttled peak %v not below unthrottled %v", tr.MaxTempC, calm.MaxTempC)
	}
	if tr.MIPS >= calm.MIPS {
		t.Fatalf("throttling was free: %v vs %v MIPS", tr.MIPS, calm.MIPS)
	}
}

func TestMigrationPenaltyCostsThroughput(t *testing.T) {
	cfg := baseConfig(t)
	// The random policy re-draws the mapping every OS interval, so
	// migrations are plentiful and deterministic for a fixed seed.
	cfg.Scheduler = mustPolicy(t, sched.NameRandom)
	apps := workload.Mix(stats.NewRNG(3), 8)
	free, err := Run(cfg, apps, 40)
	if err != nil {
		t.Fatal(err)
	}
	if free.Migrations == 0 {
		t.Fatal("random policy never migrated")
	}
	cfg.MigrationPenaltyMS = 5
	paid, err := Run(cfg, apps, 40)
	if err != nil {
		t.Fatal(err)
	}
	if paid.Migrations != free.Migrations {
		t.Fatalf("penalty changed the schedule: %d vs %d migrations", paid.Migrations, free.Migrations)
	}
	if paid.MIPS >= free.MIPS {
		t.Fatalf("migration penalty was free: %v vs %v MIPS", paid.MIPS, free.MIPS)
	}
}

func TestStartOffsetsShiftPhases(t *testing.T) {
	cfg := baseConfig(t)
	// swim's phase cycle is 420 ms; starting 5 ms before the first boundary
	// guarantees a crossing inside a 30 ms window that an offset-free run
	// cannot see.
	app, err := workload.ByName("swim")
	if err != nil {
		t.Fatal(err)
	}
	apps := []*workload.AppProfile{app}
	plain, err := Run(cfg, apps, 30)
	if err != nil {
		t.Fatal(err)
	}
	if plain.PhaseSwitches != 0 {
		t.Fatalf("30 ms window crossed a 210 ms phase: %+v", plain)
	}
	cfg.StartOffsetsMS = []float64{205}
	shifted, err := Run(cfg, apps, 30)
	if err != nil {
		t.Fatal(err)
	}
	if shifted.PhaseSwitches == 0 {
		t.Fatal("offset run saw no phase switch")
	}
	if shifted.MIPS == plain.MIPS {
		t.Fatal("phase switch did not change throughput")
	}
}

func TestHorizonEpochsAndAgingDirection(t *testing.T) {
	c, _ := testParts(t)
	hc := HorizonConfig{
		Run:        baseConfig(t),
		DelayCfg:   delay.DefaultConfig(),
		PowerCfg:   power.DefaultModel(testVarCfg().Tech),
		ThermalCfg: thermal.DefaultConfig(),
		Years:      []float64{3, 7},
	}
	apps := workload.Mix(stats.NewRNG(3), 8)
	res, err := RunHorizon(hc, apps, 20)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Epochs) != 3 {
		t.Fatalf("epochs = %d", len(res.Epochs))
	}
	fresh := res.Epochs[0]
	if fresh.Years != 0 || fresh.DVthMaxV != 0 {
		t.Fatalf("fresh epoch: %+v", fresh)
	}
	prevShift := 0.0
	for _, ep := range res.Epochs[1:] {
		if ep.DVthMaxV <= prevShift {
			t.Fatalf("Vth drift not growing: %v after %v", ep.DVthMaxV, prevShift)
		}
		prevShift = ep.DVthMaxV
		// NBTI raises Vth: aged cores bin no faster and leak no more.
		if ep.MinFmaxHz > fresh.MinFmaxHz {
			t.Fatalf("%g-year die bins faster than fresh", ep.Years)
		}
		if ep.Result.AvgPowerW >= fresh.Result.AvgPowerW {
			t.Fatalf("%g-year die burns more than fresh (%v vs %v W)",
				ep.Years, ep.Result.AvgPowerW, fresh.Result.AvgPowerW)
		}
	}
	// The original chip must be untouched by the horizon's map cloning.
	if got := minFmax(c); got != fresh.MinFmaxHz {
		t.Fatalf("base die mutated: minFmax %v vs %v", got, fresh.MinFmaxHz)
	}
}

func TestHorizonValidation(t *testing.T) {
	hc := HorizonConfig{
		Run:        baseConfig(t),
		DelayCfg:   delay.DefaultConfig(),
		PowerCfg:   power.DefaultModel(testVarCfg().Tech),
		ThermalCfg: thermal.DefaultConfig(),
	}
	apps := workload.Mix(stats.NewRNG(3), 4)
	for _, years := range [][]float64{{-1}, {0}, {3, 3}, {7, 3}} {
		bad := hc
		bad.Years = years
		if _, err := RunHorizon(bad, apps, 10); err == nil {
			t.Errorf("years %v accepted", years)
		}
	}
	noChip := hc
	noChip.Run.Chip = nil
	if _, err := RunHorizon(noChip, apps, 10); err == nil {
		t.Fatal("missing base chip accepted")
	}
}

func TestAgeMaps(t *testing.T) {
	c, _ := testParts(t)
	fp := c.FP
	dVth := make([]float64, fp.NumCores)
	dVth[0] = 0.05
	aged, err := AgeMaps(c.Maps, fp, dVth)
	if err != nil {
		t.Fatal(err)
	}
	// Core 0's mean rises by roughly the shift (block edges do not align
	// exactly with grid cells); everything else is untouched.
	r0 := fp.CoreRect(0)
	before := c.Maps.VthMeanOverRect(r0.X0, r0.Y0, r0.X1, r0.Y1)
	after := aged.VthMeanOverRect(r0.X0, r0.Y0, r0.X1, r0.Y1)
	if d := after - before; d < 0.8*0.05 || d > 0.05+1e-12 {
		t.Fatalf("core 0 mean moved by %v, want ~0.05", d)
	}
	// An unshifted core's mean barely moves (edge cells shared with core
	// 0's rectangle may pick up the neighbour's drift, nothing more).
	r19 := fp.CoreRect(19)
	if d := aged.VthMeanOverRect(r19.X0, r19.Y0, r19.X1, r19.Y1) - c.Maps.VthMeanOverRect(r19.X0, r19.Y0, r19.X1, r19.Y1); d > 0.1*0.05 {
		t.Fatalf("unshifted core drifted by %v", d)
	}
	// Source maps must be unmodified (fresh die keeps its identity).
	if got := c.Maps.VthMeanOverRect(r0.X0, r0.Y0, r0.X1, r0.Y1); got != before {
		t.Fatal("AgeMaps mutated its input")
	}
	if _, err := AgeMaps(c.Maps, fp, dVth[:3]); err == nil {
		t.Fatal("short shift vector accepted")
	}
	dVth[1] = -0.01
	if _, err := AgeMaps(c.Maps, fp, dVth); err == nil {
		t.Fatal("negative shift accepted")
	}
}

// BenchmarkDynamicStep measures the per-tick cost of the engine (the
// steady-state loop: transient step + scheduling cadence + wearout).
func BenchmarkDynamicStep(b *testing.B) {
	cfg := baseConfig(b)
	cfg.DtMS = 1
	apps := workload.Mix(stats.NewRNG(3), 16)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Run(cfg, apps, 50); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(50, "sim_ms/op")
}

// BenchmarkAgeMaps is one aged-die map edit at paper scale (256x256
// maps, 20 cores): the cell table, the clone of the Vth field and the
// per-core shift.
func BenchmarkAgeMaps(b *testing.B) {
	cfg := varmodel.DefaultConfig()
	g, err := varmodel.NewGenerator(cfg)
	if err != nil {
		b.Fatal(err)
	}
	maps, err := g.Die(8, 0)
	if err != nil {
		b.Fatal(err)
	}
	fp := floorplan.New20CoreCMP()
	dVth := drawShifts(stats.NewRNG(1), fp.NumCores, 0.06)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := AgeMaps(maps, fp, dVth); err != nil {
			b.Fatal(err)
		}
	}
}
