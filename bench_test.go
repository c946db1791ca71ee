// Benchmarks: one per paper table/figure (regenerating the artefact at the
// quick scale each iteration; see cmd/vasched -scale default for the
// paper-scale runs) plus the ablation benches DESIGN.md section 4 calls
// out. Custom metrics attached via ReportMetric surface the reproduced
// numbers — e.g. linopt_vs_foxton_pct on BenchmarkFig11 — next to the
// timing.
package vasched_test

import (
	"context"
	"runtime"
	"sync"
	"testing"

	"vasched/internal/core"
	"vasched/internal/experiments"
	"vasched/internal/pm"
	"vasched/internal/sched"
	"vasched/internal/stats"
	"vasched/internal/workload"
)

var (
	benchEnvOnce sync.Once
	benchEnv     *experiments.Env
	benchEnvErr  error
)

// env returns a shared quick-scale environment; chips are cached inside
// it, so repeated iterations measure the experiment itself, not die
// generation.
//
// The returned Env is SHARED across every benchmark in this file and
// must be treated as immutable: a benchmark that wrote to it (Workers,
// Scale, ...) would leak that state into whichever benchmarks happen to
// run after it, making results order-dependent. A benchmark that needs
// different settings must build its own Env (see BenchmarkFarmFig4,
// which owns a private QuickEnv so it can vary Workers).
func env(b *testing.B) *experiments.Env {
	b.Helper()
	benchEnvOnce.Do(func() {
		benchEnv, benchEnvErr = experiments.QuickEnv()
	})
	if benchEnvErr != nil {
		b.Fatal(benchEnvErr)
	}
	return benchEnv
}

// benchExperiment runs one registered experiment per iteration.
func benchExperiment(b *testing.B, id string) experiments.Renderer {
	e := env(b)
	var last experiments.Renderer
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r, err := experiments.Run(id, e)
		if err != nil {
			b.Fatal(err)
		}
		last = r
	}
	return last
}

func BenchmarkTable5(b *testing.B) { benchExperiment(b, "table5") }

func BenchmarkFig4(b *testing.B) {
	r := benchExperiment(b, "fig4").(*experiments.Fig4Result)
	b.ReportMetric(r.MeanPowerRatio(), "power_ratio")
	b.ReportMetric(r.MeanFreqRatio(), "freq_ratio")
}

func BenchmarkFig5(b *testing.B) { benchExperiment(b, "fig5") }
func BenchmarkFig6(b *testing.B) { benchExperiment(b, "fig6") }
func BenchmarkFig7(b *testing.B) { benchExperiment(b, "fig7") }
func BenchmarkFig8(b *testing.B) { benchExperiment(b, "fig8") }

func BenchmarkFig9(b *testing.B) {
	r := benchExperiment(b, "fig9").(*experiments.SchedSweepResult)
	// VarF&AppIPC throughput gain over Random at 8 threads (paper: 5-10%).
	gain := r.Rel("VarF&AppIPC", 2, func(c experiments.SchedCell) float64 { return c.MIPS })
	b.ReportMetric((gain-1)*100, "varfappipc_mips_gain_pct")
}

func BenchmarkFig10(b *testing.B) { benchExperiment(b, "fig10") }

func BenchmarkFig11(b *testing.B) {
	r := benchExperiment(b, "fig11").(*experiments.DVFSSweepResult)
	// Headline: VarF&AppIPC+LinOpt vs Random+Foxton* at 20 threads.
	mips := r.Rel("VarF&AppIPC+LinOpt", 3, func(c experiments.DVFSCell) float64 { return c.MIPS })
	ed2 := r.Rel("VarF&AppIPC+LinOpt", 3, func(c experiments.DVFSCell) float64 { return c.EDSquared })
	b.ReportMetric((mips-1)*100, "linopt_mips_gain_pct")
	b.ReportMetric((1-ed2)*100, "linopt_ed2_reduction_pct")
}

func BenchmarkFig12(b *testing.B) { benchExperiment(b, "fig12") }
func BenchmarkFig13(b *testing.B) { benchExperiment(b, "fig13") }

func BenchmarkFig14(b *testing.B) {
	r := benchExperiment(b, "fig14").(*experiments.Fig14Result)
	b.ReportMetric(r.Deviation(10, 20), "dev_at_10ms_pct")
	b.ReportMetric(r.Deviation(2000, 20), "dev_at_2s_pct")
}

func BenchmarkFig15(b *testing.B) {
	r := benchExperiment(b, "fig15").(*experiments.Fig15Result)
	b.ReportMetric(float64(r.Solve("Cost-Performance", 20).Microseconds()), "linopt_solve_20t_us")
}

func BenchmarkSec74(b *testing.B) { benchExperiment(b, "sec74") }

// BenchmarkFarmFig4 compares the farm engine's serial path against the
// parallel one on the same workload (fig4 at quick scale). Both variants
// share the process-wide die cache, so after the first iteration they
// measure the experiment body, not die characterisation; on a multi-core
// host the parallel variant should approach a GOMAXPROCS-fold speedup,
// and its output is bit-identical either way (see
// experiments.TestParallelMatchesSerial).
func BenchmarkFarmFig4(b *testing.B) {
	for _, bc := range []struct {
		name    string
		workers int
	}{
		{"serial", 1},
		{"parallel", runtime.GOMAXPROCS(0)},
	} {
		bc := bc
		b.Run(bc.name, func(b *testing.B) {
			e, err := experiments.QuickEnv()
			if err != nil {
				b.Fatal(err)
			}
			e.Workers = bc.workers
			if _, err := experiments.Run("fig4", e); err != nil { // warm the die cache
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := experiments.Run("fig4", e); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkSAnnVsExhaustive(b *testing.B) {
	r := benchExperiment(b, "sann").(*experiments.SAnnValidationResult)
	b.ReportMetric(r.Rows[len(r.Rows)-1].GapPct, "sann_gap_pct")
}

// frozen builds a frozen 20-thread platform snapshot for the ablations.
func frozen(b *testing.B, threads int) (*pm.Snapshot, pm.Budget) {
	b.Helper()
	e := env(b)
	c, err := e.Chip(0)
	if err != nil {
		b.Fatal(err)
	}
	apps := workload.Mix(stats.NewRNG(3), threads)
	plat, err := core.FrozenSnapshot(c, e.CPU(), apps, 7)
	if err != nil {
		b.Fatal(err)
	}
	return plat, experiments.CostPerformance.Budget(threads, 20)
}

func modelTP(s *pm.Snapshot, levels []int) float64 {
	return s.ObjectiveValue(levels, pm.ObjMIPS, s.ObjCoef(pm.ObjMIPS, nil))
}

// BenchmarkAblationFitPoints compares LinOpt's 3-point power fit against
// the paper's "at the very least 2" variant (DESIGN.md ablation 1).
func BenchmarkAblationFitPoints(b *testing.B) {
	plat, budget := frozen(b, 20)
	for _, fit := range []int{2, 3} {
		fit := fit
		name := map[int]string{2: "2pt", 3: "3pt"}[fit]
		b.Run(name, func(b *testing.B) {
			m := pm.LinOpt{FitPoints: fit}
			var tp float64
			for i := 0; i < b.N; i++ {
				levels, err := m.Decide(context.Background(), plat, budget, stats.NewRNG(9))
				if err != nil {
					b.Fatal(err)
				}
				tp = modelTP(plat, levels)
			}
			b.ReportMetric(tp, "modeled_mips")
		})
	}
}

// BenchmarkAblationIPCModel quantifies what LinOpt's frequency-independent
// IPC assumption costs against an oracle that optimises the true IPC(f)
// (DESIGN.md ablation 2). Small thread count so the oracle's exhaustive
// search stays tractable.
func BenchmarkAblationIPCModel(b *testing.B) {
	plat, budget := frozen(b, 4)
	trueTP := func(levels []int) float64 {
		sum := 0.0
		for c, l := range levels {
			i := c*plat.Levels + l
			sum += plat.TrueIPC[i] * plat.Freq[i] / 1e6
		}
		return sum
	}
	for _, mgr := range []pm.Manager{pm.NewLinOpt(), pm.NewOracle()} {
		mgr := mgr
		b.Run(mgr.Name(), func(b *testing.B) {
			var tp float64
			for i := 0; i < b.N; i++ {
				levels, err := mgr.Decide(context.Background(), plat, budget, stats.NewRNG(9))
				if err != nil {
					b.Fatal(err)
				}
				tp = trueTP(levels)
			}
			b.ReportMetric(tp, "true_mips")
		})
	}
}

// BenchmarkSolverComparison times the four optimisers on one frozen
// problem and reports the modelled throughput each achieves (DESIGN.md
// ablation 3; the quality/latency trade-off of paper Section 4.3.2).
func BenchmarkSolverComparison(b *testing.B) {
	plat, budget := frozen(b, 4)
	managers := []pm.Manager{
		pm.NewFoxton(),
		pm.NewLinOpt(),
		pm.SAnn{MaxEvals: 20000},
		pm.NewExhaustive(),
	}
	for _, mgr := range managers {
		mgr := mgr
		b.Run(mgr.Name(), func(b *testing.B) {
			var tp float64
			for i := 0; i < b.N; i++ {
				levels, err := mgr.Decide(context.Background(), plat, budget, stats.NewRNG(9))
				if err != nil {
					b.Fatal(err)
				}
				tp = modelTP(plat, levels)
			}
			b.ReportMetric(tp, "modeled_mips")
		})
	}
}

// BenchmarkAblationTransitionLatency quantifies what voltage-transition
// speed costs at the paper's 10 ms LinOpt cadence: the paper conservatively
// assumes Xscale-era off-chip regulators (tens to hundreds of microseconds
// per step) and cites Kim et al.'s on-chip regulators (nanoseconds) as the
// enabling technology. The reported throughput shows the gap is small at
// 10 ms — and would dominate at sub-millisecond cadences.
func BenchmarkAblationTransitionLatency(b *testing.B) {
	e := env(b)
	c, err := e.Chip(0)
	if err != nil {
		b.Fatal(err)
	}
	for _, usPerStep := range []float64{0, 100} {
		usPerStep := usPerStep
		name := "onchip-0us"
		if usPerStep > 0 {
			name = "xscale-100us"
		}
		b.Run(name, func(b *testing.B) {
			var mips float64
			for i := 0; i < b.N; i++ {
				policy, err := schedNew(b)
				if err != nil {
					b.Fatal(err)
				}
				sys, err := core.New(core.Config{
					Chip: c, CPU: e.CPU(), Scheduler: policy,
					Mode: core.ModeDVFS, Manager: pm.NewLinOpt(),
					Budget:               experiments.CostPerformance.Budget(16, 20),
					VTransitionUSPerStep: usPerStep,
					SampleIntervalMS:     2,
					Seed:                 5,
				})
				if err != nil {
					b.Fatal(err)
				}
				apps := workload.Mix(stats.NewRNG(5), 16)
				st, err := sys.Run(apps, 50)
				if err != nil {
					b.Fatal(err)
				}
				mips = st.MIPS
			}
			b.ReportMetric(mips, "mips")
		})
	}
}

func schedNew(b *testing.B) (sched.Policy, error) {
	b.Helper()
	return sched.New(sched.NameVarFAppIPC)
}
