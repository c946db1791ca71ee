package chip

import (
	"testing"

	"vasched/internal/delay"
	"vasched/internal/floorplan"
	"vasched/internal/power"
	"vasched/internal/thermal"
	"vasched/internal/varmodel"
	"vasched/internal/workload"
)

// BenchmarkBuild characterises one paper-scale die (256x256 maps, 20
// cores): the per-block leakage cache, every core's critical paths, V/f
// table and static-power profile, and the thermal model. The die's maps
// are generated outside the timer.
func BenchmarkBuild(b *testing.B) {
	cfg := varmodel.DefaultConfig()
	g, err := varmodel.NewGenerator(cfg)
	if err != nil {
		b.Fatal(err)
	}
	maps, err := g.Die(1, 0)
	if err != nil {
		b.Fatal(err)
	}
	fp := floorplan.New20CoreCMP()
	pm := power.DefaultModel(cfg.Tech)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Build(maps, fp, delay.DefaultConfig(), pm, thermal.DefaultConfig()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEvaluateDieSweep is die-sweep's evaluation kernel on one die:
// every SPEC application alone on every core at nominal supply and rated
// frequency, 280 steady-state evaluations per op.
func BenchmarkEvaluateDieSweep(b *testing.B) {
	c, cpu := testChip(b)
	apps := workload.SPEC()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for core := 0; core < c.NumCores(); core++ {
			for _, app := range apps {
				st := c.OffStates()
				st[core] = CoreState{App: app, V: c.Tech.VddNominal, F: c.FmaxNominal(core)}
				if _, err := c.Evaluate(st, cpu); err != nil {
					b.Fatal(err)
				}
			}
		}
	}
}

// BenchmarkEvaluateTransient is one transient tick of a fully loaded die at
// 0.9 V that re-assembles its dynamic power: the per-tick chip cost of a
// transient timeline such as dynamic-horizon's when an operating point
// or phase changed.
func BenchmarkEvaluateTransient(b *testing.B) {
	c, cpu := testChip(b)
	apps := workload.SPEC()
	st := c.OffStates()
	for core := range st {
		st[core] = CoreState{App: apps[core%len(apps)], V: 0.9, F: c.FmaxAt(core, 0.9)}
	}
	ts := c.NewTransientState()
	// The first step factors the 1 ms stepper.
	if _, err := ts.Step(st, 1); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := ts.Assemble(st, cpu); err != nil {
			b.Fatal(err)
		}
		if _, err := ts.Step(st, 1); err != nil {
			b.Fatal(err)
		}
	}
}
