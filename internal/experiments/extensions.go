package experiments

import (
	"fmt"
	"strings"

	"vasched/internal/core"
	"vasched/internal/parallel"
	"vasched/internal/pm"
	"vasched/internal/sched"
	"vasched/internal/stats"
	"vasched/internal/workload"
)

// ExtSchedRow compares one scheduling policy on the extension metrics.
type ExtSchedRow struct {
	Policy     string
	MIPS       float64
	AvgPowerW  float64
	MaxTempC   float64
	WearoutMax float64
	EDSquared  float64
}

// ExtSchedResult is the temperature/wearout extension study (the paper's
// Section 8 future work, items 1 and 2): does temperature-aware mapping
// reduce hot spots and slow down aging, and at what throughput cost?
type ExtSchedResult struct {
	Rows []ExtSchedRow
}

// ExtSched runs Random, VarP&AppP, and TempAware at 12 threads in
// NUniFreq and reports thermal, wearout, and throughput outcomes.
func ExtSched(e *Env) (*ExtSchedResult, error) {
	res := &ExtSchedResult{}
	// Transient thermal needs several thermal time constants of simulated
	// time to be meaningful: run longer than the default sweeps and
	// exclude the cold-start from the statistics.
	dur := e.SimMS
	if dur < 300 {
		dur = 300
	}
	const warmup = 100.0
	for _, pname := range []string{sched.NameRandom, sched.NameVarPAppP, sched.NameTempAware} {
		policy, err := sched.New(pname)
		if err != nil {
			return nil, err
		}
		runs, err := e.runTrials(core.Config{
			Scheduler: policy, Mode: core.ModeNUniFreq,
			// Short OS interval so migration (the TempAware mechanism)
			// actually happens within the run, and transient thermal so
			// migrated-to cores heat up with realistic inertia instead of
			// instantly.
			OSIntervalMS:     20,
			TransientThermal: true,
			WarmupMS:         warmup,
			SampleIntervalMS: e.SampleMS,
		}, 12, warmup+dur)
		if err != nil {
			return nil, err
		}
		var mips, pw, maxT, wear, ed2 []float64
		for _, st := range runs {
			mips = append(mips, st.MIPS)
			pw = append(pw, st.AvgPowerW)
			maxT = append(maxT, st.MaxTempC)
			wear = append(wear, st.WearoutMax)
			ed2 = append(ed2, st.EDSquared)
		}
		res.Rows = append(res.Rows, ExtSchedRow{
			Policy: pname, MIPS: stats.Mean(mips), AvgPowerW: stats.Mean(pw),
			MaxTempC: stats.Mean(maxT), WearoutMax: stats.Mean(wear),
			EDSquared: stats.Mean(ed2),
		})
	}
	return res, nil
}

// Render formats the study.
func (r *ExtSchedResult) Render() string {
	var b strings.Builder
	b.WriteString("Extension (paper Section 8, items 1-2): thermal- and wearout-aware scheduling, 12 threads, NUniFreq\n")
	fmt.Fprintf(&b, "%-12s %10s %10s %10s %12s\n", "policy", "MIPS", "power(W)", "maxT(C)", "wearout max")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "%-12s %10.0f %10.1f %10.1f %12.2f\n",
			row.Policy, row.MIPS, row.AvgPowerW, row.MaxTempC, row.WearoutMax)
	}
	b.WriteString("(wearout = aging rate of the fastest-aging core relative to nominal operation)\n")
	return b.String()
}

// ExtParallelRow compares one (core choice, objective) configuration.
type ExtParallelRow struct {
	Label           string
	TimeMS          float64
	AvgPowerW       float64
	EnergyJ         float64
	BarrierWastePct float64
}

// ExtParallelResult is the parallel-applications extension study (Section
// 8, item 3): barrier-synchronised jobs on a variation-affected CMP under
// a power budget, comparing core-selection and power-management policies.
type ExtParallelResult struct {
	Job  parallel.Job
	Rows []ExtParallelRow
}

// ExtParallel runs an 8-thread swim-like barrier job on die 0 under a
// tight budget.
func ExtParallel(e *Env) (*ExtParallelResult, error) {
	c, err := e.Chip(0)
	if err != nil {
		return nil, err
	}
	app, err := workload.ByName("swim")
	if err != nil {
		return nil, err
	}
	job := parallel.Job{App: app, Threads: 8, SectionInstr: 1e7, Sections: 20}
	budget := pm.Budget{PTargetW: 24, PCoreMaxW: 7}

	fastest, err := parallel.PickFastestCores(c, job.Threads)
	if err != nil {
		return nil, err
	}
	similar, err := parallel.PickSimilarCores(c, job.Threads)
	if err != nil {
		return nil, err
	}
	res := &ExtParallelResult{Job: job}
	cases := []struct {
		label string
		cores []int
		mgr   pm.Manager
	}{
		{"fastest + Foxton*", fastest, pm.NewFoxton()},
		{"fastest + LinOpt(MIPS)", fastest, pm.NewLinOpt()},
		{"fastest + LinOpt(min-speed)", fastest, pm.LinOpt{FitPoints: 3, Objective: pm.ObjMinSpeed}},
		{"similar + LinOpt(min-speed)", similar, pm.LinOpt{FitPoints: 3, Objective: pm.ObjMinSpeed}},
	}
	for _, cs := range cases {
		r, err := parallel.Budgeted(e.Context(), c, e.CPU(), job, cs.cores, cs.mgr, budget, e.Seed)
		if err != nil {
			return nil, err
		}
		res.Rows = append(res.Rows, ExtParallelRow{
			Label: cs.label, TimeMS: r.TimeMS, AvgPowerW: r.AvgPowerW,
			EnergyJ: r.EnergyJ, BarrierWastePct: r.BarrierWastePct,
		})
	}
	return res, nil
}

// Render formats the study.
func (r *ExtParallelResult) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Extension (paper Section 8, item 3): %d-thread barrier job (%s), Ptarget 24 W\n",
		r.Job.Threads, r.Job.App.Name)
	fmt.Fprintf(&b, "%-30s %10s %10s %10s %12s\n", "configuration", "time(ms)", "power(W)", "energy(J)", "barrier waste")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "%-30s %10.1f %10.1f %10.2f %11.1f%%\n",
			row.Label, row.TimeMS, row.AvgPowerW, row.EnergyJ, row.BarrierWastePct)
	}
	b.WriteString("(barrier waste = aggregate thread-time idle at barriers)\n")
	return b.String()
}
