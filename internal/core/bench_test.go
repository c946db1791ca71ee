package core

import (
	"testing"

	"vasched/internal/pm"
	"vasched/internal/sched"
	"vasched/internal/stats"
	"vasched/internal/workload"
)

// benchmarkRun times one Figure 2 timeline: 20 threads placed by
// VarF&AppIPC for 1000 simulated ms at the default 1 ms tick, 10 ms DVFS
// and 100 ms OS intervals. The chip and CPU model are built outside the
// timer.
func benchmarkRun(b *testing.B, mode Mode, manager pm.Manager) {
	c, cpu := testSystemParts(b)
	apps := workload.Mix(stats.NewRNG(1), 20)
	cfg := Config{
		Chip: c, CPU: cpu, Scheduler: sched.VarFAppIPCPolicy{},
		Mode: mode, Manager: manager,
		Budget: pm.Budget{PTargetW: 75, PCoreMaxW: 7.5},
		Seed:   1,
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sys, err := New(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := sys.Run(apps, 1000); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkRunNUniFreq(b *testing.B) { benchmarkRun(b, ModeNUniFreq, nil) }

func BenchmarkRunDVFSLinOpt(b *testing.B) { benchmarkRun(b, ModeDVFS, pm.NewLinOpt()) }

// BenchmarkRunDVFSSAnn is the same timeline under SAnn at its default
// 20,000 evaluations per decision, through the session each Run sets up.
func BenchmarkRunDVFSSAnn(b *testing.B) { benchmarkRun(b, ModeDVFS, pm.NewSAnn()) }
