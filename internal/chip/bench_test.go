package chip

import (
	"testing"

	"vasched/internal/workload"
)

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
// 0.9 V: the per-tick chip cost of a transient timeline such as
// dynamic-horizon's.
func BenchmarkEvaluateTransient(b *testing.B) {
	c, cpu := testChip(b)
	apps := workload.SPEC()
	st := c.OffStates()
	for core := range st {
		st[core] = CoreState{App: apps[core%len(apps)], V: 0.9, F: c.FmaxAt(core, 0.9)}
	}
	prev := c.Therm.AmbientTemps(nil)
	var out EvalResult
	// The first call sizes out and factors the 1 ms stepper.
	if err := c.EvaluateTransientInto(&out, st, cpu, prev, 1); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := c.EvaluateTransientInto(&out, st, cpu, prev, 1); err != nil {
			b.Fatal(err)
		}
		copy(prev, out.BlockTempC)
	}
}
