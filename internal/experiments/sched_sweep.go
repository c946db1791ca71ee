package experiments

import (
	"fmt"
	"strings"

	"vasched/internal/core"
	"vasched/internal/sched"
	"vasched/internal/stats"
)

// SchedCell is the mean outcome of one (policy, thread-count) cell of a
// scheduling sweep, averaged over dies and workload trials.
type SchedCell struct {
	Threads   int
	Policy    string
	PowerW    float64
	MIPS      float64
	FreqHz    float64
	EDSquared float64
}

// schedSweep runs a no-DVFS sweep (Figures 7-10): for each thread count
// and scheduling policy, Trials random workloads run on RunDies dies and
// the metrics are averaged.
func schedSweep(e *Env, mode core.Mode, policyNames []string, threads []int) (map[string][]SchedCell, error) {
	out := make(map[string][]SchedCell, len(policyNames))
	for _, pname := range policyNames {
		policy, err := sched.New(pname)
		if err != nil {
			return nil, err
		}
		for _, n := range threads {
			slots, err := e.runTrials(core.Config{
				Scheduler: policy, Mode: mode, SampleIntervalMS: e.SampleMS,
			}, n, e.SimMS)
			if err != nil {
				return nil, err
			}
			var pw, mips, freq, ed2 []float64
			for _, st := range slots {
				pw = append(pw, st.AvgPowerW)
				mips = append(mips, st.MIPS)
				freq = append(freq, st.AvgActiveFreqHz)
				ed2 = append(ed2, st.EDSquared)
			}
			out[pname] = append(out[pname], SchedCell{
				Threads: n, Policy: pname,
				PowerW: stats.Mean(pw), MIPS: stats.Mean(mips),
				FreqHz: stats.Mean(freq), EDSquared: stats.Mean(ed2),
			})
		}
	}
	return out, nil
}

// SchedSweepResult holds a rendered scheduling sweep: per policy, one cell
// per thread count, plus the baseline policy everything normalises to.
type SchedSweepResult struct {
	Title    string
	Baseline string
	Policies []string
	Threads  []int
	Cells    map[string][]SchedCell
}

// Rel returns metric(policy)/metric(baseline) for the thread-count index
// ti, where metric selects from the cell.
func (r *SchedSweepResult) Rel(policy string, ti int, metric func(SchedCell) float64) float64 {
	base := metric(r.Cells[r.Baseline][ti])
	if base == 0 {
		return 0
	}
	return metric(r.Cells[policy][ti]) / base
}

// renderRelative renders one relative-metric panel.
func (r *SchedSweepResult) renderRelative(b *strings.Builder, label string, metric func(SchedCell) float64) {
	fmt.Fprintf(b, "%s (relative to %s)\n", label, r.Baseline)
	fmt.Fprintf(b, "%-12s", "threads")
	for _, p := range r.Policies {
		fmt.Fprintf(b, " %12s", p)
	}
	b.WriteString("\n")
	for ti, n := range r.Threads {
		fmt.Fprintf(b, "%-12d", n)
		for _, p := range r.Policies {
			fmt.Fprintf(b, " %12.3f", r.Rel(p, ti, metric))
		}
		b.WriteString("\n")
	}
}

// Fig7 reproduces Figure 7: total power and ED^2 of Random, VarP, and
// VarP&AppP in the UniFreq configuration.
func Fig7(e *Env) (*SchedSweepResult, error) {
	return schedFigure(e, core.ModeUniFreq,
		"Figure 7: UniFreq power & ED^2",
		[]string{sched.NameRandom, sched.NameVarP, sched.NameVarPAppP})
}

// Fig8 reproduces Figure 8: the same algorithms in NUniFreq.
func Fig8(e *Env) (*SchedSweepResult, error) {
	return schedFigure(e, core.ModeNUniFreq,
		"Figure 8: NUniFreq power & ED^2",
		[]string{sched.NameRandom, sched.NameVarP, sched.NameVarPAppP})
}

// Fig9 reproduces Figure 9: average frequency and throughput of Random,
// VarF, and VarF&AppIPC in NUniFreq. Figure 10 (ED^2 of the same runs) is
// rendered from the same result.
func Fig9(e *Env) (*SchedSweepResult, error) {
	return schedFigure(e, core.ModeNUniFreq,
		"Figure 9: NUniFreq frequency & MIPS",
		[]string{sched.NameRandom, sched.NameVarF, sched.NameVarFAppIPC})
}

// Fig10 reproduces Figure 10; it shares its runs with Figure 9.
func Fig10(e *Env) (*SchedSweepResult, error) {
	r, err := Fig9(e)
	if err != nil {
		return nil, err
	}
	r.Title = "Figure 10: NUniFreq ED^2"
	return r, nil
}

func schedFigure(e *Env, mode core.Mode, title string, policies []string) (*SchedSweepResult, error) {
	threads := []int{2, 4, 8, 16, 20}
	cells, err := schedSweep(e, mode, policies, threads)
	if err != nil {
		return nil, err
	}
	return &SchedSweepResult{
		Title:    title,
		Baseline: policies[0],
		Policies: policies,
		Threads:  threads,
		Cells:    cells,
	}, nil
}

// Render prints every panel relevant to the figure.
func (r *SchedSweepResult) Render() string {
	var b strings.Builder
	b.WriteString(r.Title + "\n")
	r.renderRelative(&b, "(a) total power", func(c SchedCell) float64 { return c.PowerW })
	r.renderRelative(&b, "(b) ED^2", func(c SchedCell) float64 { return c.EDSquared })
	r.renderRelative(&b, "(c) mean frequency", func(c SchedCell) float64 { return c.FreqHz })
	r.renderRelative(&b, "(d) MIPS", func(c SchedCell) float64 { return c.MIPS })
	return b.String()
}
