package core

import (
	"fmt"
	"math"
	"reflect"
	"testing"

	"vasched/internal/pm"
	"vasched/internal/sched"
	"vasched/internal/stats"
	"vasched/internal/workload"
)

// reuseCase is one drawn configuration of the reuse property test.
type reuseCase struct {
	name  string
	cfg   Config
	apps  []*workload.AppProfile
	durMS float64
}

// The modes and managers the property test cycles through, so every one
// is covered however the other fields are drawn.
var reuseManagers = []struct {
	name    string
	mode    Mode
	manager pm.Manager
}{
	{"UniFreq", ModeUniFreq, nil},
	{"NUniFreq", ModeNUniFreq, nil},
	{"Foxton*", ModeDVFS, pm.NewFoxton()},
	{"LinOpt", ModeDVFS, pm.NewLinOpt()},
	{"LinOpt-weighted", ModeDVFS, pm.LinOpt{FitPoints: 3, Objective: pm.ObjWeighted}},
	{"SAnn", ModeDVFS, pm.SAnn{MaxEvals: 300}},
}

var reuseSchedulers = []string{sched.NameVarFAppIPC, sched.NameRandom, sched.NameTempAware}

// drawReuseCases draws n configurations from a seeded RNG. Mode, manager,
// scheduler and thread count cycle with the index; intervals, durations
// and the scenario options are drawn, each option on about half of the
// cases. Intervals are drawn off the tick grid, and durations so that the
// tick rarely divides them.
func drawReuseCases(t *testing.T, n int, seed int64) []reuseCase {
	t.Helper()
	c, cpu := testSystemParts(t)
	rng := stats.NewRNG(seed)
	half := func() bool { return rng.Float64() < 0.5 }
	cases := make([]reuseCase, n)
	for i := range cases {
		m := reuseManagers[i%len(reuseManagers)]
		schedName := reuseSchedulers[(i/len(reuseManagers))%len(reuseSchedulers)]
		threads := 1 + (i*7)%20 // cycles through 1..20
		sample := []float64{1, 0.7, 1.3, 2.5}[rng.Intn(4)]
		cfg := Config{
			Chip: c, CPU: cpu, Scheduler: mustPolicy(t, schedName),
			Mode: m.mode, Manager: m.manager,
			Budget: pm.Budget{
				PTargetW:  float64(threads) * (2.5 + 2*rng.Float64()),
				PCoreMaxW: 4 + 4*rng.Float64(),
			},
			OSIntervalMS:     5 + 40*rng.Float64(),
			DVFSIntervalMS:   1.5 + 12*rng.Float64(),
			SampleIntervalMS: sample,
			Seed:             rng.Int63(),
		}
		dur := 30 + 90*rng.Float64()
		if half() {
			cfg.WarmupMS = dur * rng.Float64() / 2
		}
		if half() {
			cfg.CaptureTrace = true
		}
		if half() {
			cfg.SensorNoise = 0.05 * rng.Float64()
		}
		if half() {
			cfg.MigrationPenaltyMS = 3 * rng.Float64()
		}
		if half() {
			cfg.VTransitionUSPerStep = 200 * rng.Float64()
		}
		if i%4 == 1 {
			cfg.EmergencyC = 55 + 25*rng.Float64()
			cfg.RecoverC = cfg.EmergencyC - 4*rng.Float64()
		}
		apps := workload.Mix(stats.NewRNG(cfg.Seed), threads)
		if half() {
			cfg.StartOffsetsMS = make([]float64, threads)
			for k := range cfg.StartOffsetsMS {
				cfg.StartOffsetsMS[k] = 600 * rng.Float64()
			}
		}
		cases[i] = reuseCase{
			name:  fmt.Sprintf("%02d/%s/%s/%dthr", i, m.name, schedName, threads),
			cfg:   cfg,
			apps:  apps,
			durMS: dur,
		}
	}
	return cases
}

// runCounted runs cfg on a fresh System and returns the statistics and
// the number of chip evaluations the run made.
func runCounted(t *testing.T, cfg Config, apps []*workload.AppProfile, durMS float64, everyTick bool) (*RunStats, int) {
	t.Helper()
	sys, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sys.evalEveryTick = everyTick
	st, err := sys.Run(apps, durMS)
	if err != nil {
		t.Fatal(err)
	}
	return st, sys.evals
}

// bitsDiff reports the first difference between a and b, comparing floats
// by their bits and slices element by element; "" means identical.
func bitsDiff(path string, a, b reflect.Value) string {
	switch a.Kind() {
	case reflect.Float64:
		if math.Float64bits(a.Float()) != math.Float64bits(b.Float()) {
			return fmt.Sprintf("%s: %v vs %v", path, a.Float(), b.Float())
		}
	case reflect.Int, reflect.Int64:
		if a.Int() != b.Int() {
			return fmt.Sprintf("%s: %d vs %d", path, a.Int(), b.Int())
		}
	case reflect.Slice:
		if a.IsNil() != b.IsNil() || a.Len() != b.Len() {
			return fmt.Sprintf("%s: length %d vs %d", path, a.Len(), b.Len())
		}
		for i := 0; i < a.Len(); i++ {
			if d := bitsDiff(fmt.Sprintf("%s[%d]", path, i), a.Index(i), b.Index(i)); d != "" {
				return d
			}
		}
	case reflect.Struct:
		for i := 0; i < a.NumField(); i++ {
			if d := bitsDiff(path+"."+a.Type().Field(i).Name, a.Field(i), b.Field(i)); d != "" {
				return d
			}
		}
	default:
		return fmt.Sprintf("%s: no comparison for kind %v", path, a.Kind())
	}
	return ""
}

// TestEvalReuseBitIdentical is the exactness property of the steady-state
// evaluation reuse: over drawn configurations covering every mode and
// manager, the schedulers that read temperatures or re-map at random, the
// governor and every scenario option, a run that evaluates the chip on
// every tick and one that reuses unchanged evaluations return the same
// RunStats, bit for bit. DecideTime is host wall clock and the only field
// left out.
func TestEvalReuseBitIdentical(t *testing.T) {
	cases := drawReuseCases(t, 60, 2008)
	covered := map[string]int{}
	reusedTicks, steps := 0, 0
	for _, rc := range cases {
		reuse, evals := runCounted(t, rc.cfg, rc.apps, rc.durMS, false)
		every, allEvals := runCounted(t, rc.cfg, rc.apps, rc.durMS, true)
		if allEvals != every.Steps {
			t.Fatalf("%s: reuse off evaluated %d of %d ticks", rc.name, allEvals, every.Steps)
		}
		if evals > reuse.Steps {
			t.Fatalf("%s: %d evaluations for %d ticks", rc.name, evals, reuse.Steps)
		}
		reusedTicks += reuse.Steps - evals
		steps += reuse.Steps
		a, b := reflect.ValueOf(reuse).Elem(), reflect.ValueOf(every).Elem()
		for i := 0; i < a.NumField(); i++ {
			name := a.Type().Field(i).Name
			if name == "DecideTime" {
				continue
			}
			if d := bitsDiff(name, a.Field(i), b.Field(i)); d != "" {
				t.Fatalf("%s: reuse changed the run: %s", rc.name, d)
			}
		}

		// Modes, managers, schedulers and thread counts cycle with the
		// case index; the drawn options are tallied here.
		cfg := rc.cfg
		if math.Mod(cfg.OSIntervalMS, cfg.SampleIntervalMS) != 0 {
			covered["OS interval off the tick grid"]++
		}
		if cfg.Mode == ModeDVFS && math.Mod(cfg.DVFSIntervalMS, cfg.SampleIntervalMS) != 0 {
			covered["DVFS interval off the tick grid"]++
		}
		if math.Mod(rc.durMS, cfg.SampleIntervalMS) != 0 {
			covered["short last tick"]++
		}
		if cfg.WarmupMS > 0 {
			covered["warmup"]++
		}
		if reuse.Emergencies > 0 {
			covered["governor tripped"]++
		}
		if reuse.Migrations > 0 && cfg.MigrationPenaltyMS > 0 {
			covered["migration penalty"]++
		}
		if cfg.StartOffsetsMS != nil {
			covered["start offsets"]++
		}
		if cfg.Mode == ModeDVFS && cfg.VTransitionUSPerStep > 0 {
			covered["voltage transitions"]++
		}
		if cfg.SensorNoise > 0 {
			covered["sensor noise"]++
		}
		if cfg.CaptureTrace {
			covered["trace"]++
		}
		if reuse.PhaseSwitches > 0 {
			covered["phase switches"]++
		}
	}
	for _, w := range []string{
		"OS interval off the tick grid", "DVFS interval off the tick grid", "short last tick",
		"warmup", "governor tripped", "migration penalty", "start offsets",
		"voltage transitions", "sensor noise", "trace", "phase switches",
	} {
		if covered[w] == 0 {
			t.Errorf("no drawn case covers %q", w)
		}
	}
	if reusedTicks == 0 {
		t.Error("no tick reused an evaluation")
	}
	t.Logf("%d cases, %d of %d ticks reused the last evaluation", len(cases), reusedTicks, steps)
}

// TestEvalReuseCounts pins where evaluations happen: a steady NUniFreq
// run re-evaluates only when an operating point or phase changes, and a
// transient run steps the thermal state on every tick.
func TestEvalReuseCounts(t *testing.T) {
	c, cpu := testSystemParts(t)
	apps := workload.Mix(stats.NewRNG(5), 12)
	for _, transient := range []bool{false, true} {
		cfg := Config{
			Chip: c, CPU: cpu, Scheduler: mustPolicy(t, sched.NameVarFAppIPC),
			Mode: ModeNUniFreq, TransientThermal: transient, Seed: 5,
		}
		st, evals := runCounted(t, cfg, apps, 200, false)
		switch {
		case transient && evals != st.Steps:
			t.Errorf("transient run evaluated %d of %d ticks", evals, st.Steps)
		case !transient && (evals == 0 || evals >= st.Steps):
			t.Errorf("steady run evaluated %d of %d ticks", evals, st.Steps)
		}
	}
}
