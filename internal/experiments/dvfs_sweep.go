package experiments

import (
	"fmt"
	"strings"
	"time"

	"vasched/internal/core"
	"vasched/internal/pm"
	"vasched/internal/sched"
	"vasched/internal/stats"
)

// Combo is one (scheduler, power manager) pairing of the paper's Table 1
// bottom section.
type Combo struct {
	Sched   string
	Manager string
}

// Label renders the paper's "Sched+Manager" name.
func (c Combo) Label() string { return c.Sched + "+" + c.Manager }

// The paper's four evaluated combinations.
var paperCombos = []Combo{
	{sched.NameRandom, pm.NameFoxton},
	{sched.NameVarFAppIPC, pm.NameFoxton},
	{sched.NameVarFAppIPC, pm.NameLinOpt},
	{sched.NameVarFAppIPC, pm.NameSAnn},
}

// DVFSCell is the mean outcome of one (combo, thread-count) cell.
type DVFSCell struct {
	Threads      int
	Combo        Combo
	PowerW       float64
	MIPS         float64
	WeightedTP   float64
	EDSquared    float64
	WeightedED2  float64
	DeviationPct float64
	DecideMean   time.Duration
}

// dvfsSweep runs the NUniFreq+DVFS sweep for one power environment.
func dvfsSweep(e *Env, env PowerEnv, combos []Combo, threads []int, obj pm.Objective) (map[string][]DVFSCell, error) {
	out := make(map[string][]DVFSCell, len(combos))
	for _, combo := range combos {
		policy, err := sched.New(combo.Sched)
		if err != nil {
			return nil, err
		}
		mgr, err := e.Manager(combo.Manager, obj)
		if err != nil {
			return nil, err
		}
		for _, n := range threads {
			// Managers and policies are stateless values, so every cell
			// of the die×trial grid shares them.
			slots, err := e.runTrials(core.Config{
				Scheduler: policy, Mode: core.ModeDVFS, Manager: mgr,
				Budget:           env.Budget(n, e.Floorplan().NumCores),
				SampleIntervalMS: e.SampleMS, DecideHist: e.DecideHist,
			}, n, e.SimMS)
			if err != nil {
				return nil, err
			}
			var pw, mips, wtp, ed2, wed2, dev []float64
			var decide time.Duration
			var decideN int
			for _, st := range slots {
				pw = append(pw, st.AvgPowerW)
				mips = append(mips, st.MIPS)
				wtp = append(wtp, st.WeightedTP)
				ed2 = append(ed2, st.EDSquared)
				wed2 = append(wed2, st.AvgPowerW/(st.WeightedTP*st.WeightedTP*st.WeightedTP))
				dev = append(dev, st.PowerDeviationPct)
				decide += st.DecideTime
				decideN += st.DecideCount
			}
			cell := DVFSCell{
				Threads: n, Combo: combo,
				PowerW: stats.Mean(pw), MIPS: stats.Mean(mips),
				WeightedTP: stats.Mean(wtp), EDSquared: stats.Mean(ed2),
				WeightedED2:  stats.Mean(wed2),
				DeviationPct: stats.Mean(dev),
			}
			if decideN > 0 {
				cell.DecideMean = decide / time.Duration(decideN)
			}
			out[combo.Label()] = append(out[combo.Label()], cell)
		}
	}
	return out, nil
}

// DVFSSweepResult holds a rendered DVFS sweep.
type DVFSSweepResult struct {
	Title    string
	Env      PowerEnv
	Baseline string
	Combos   []Combo
	Threads  []int
	Cells    map[string][]DVFSCell
	Weighted bool
}

// Rel returns metric(combo)/metric(baseline) at thread index ti.
func (r *DVFSSweepResult) Rel(combo string, ti int, metric func(DVFSCell) float64) float64 {
	base := metric(r.Cells[r.Baseline][ti])
	if base == 0 {
		return 0
	}
	return metric(r.Cells[combo][ti]) / base
}

// Fig11 reproduces Figure 11: throughput and ED^2 of the four algorithm
// combinations in the Cost-Performance environment, for 4-20 threads,
// relative to Random+Foxton*.
func Fig11(e *Env) (*DVFSSweepResult, error) {
	threads := []int{4, 8, 16, 20}
	cells, err := dvfsSweep(e, CostPerformance, paperCombos, threads, pm.ObjMIPS)
	if err != nil {
		return nil, err
	}
	return &DVFSSweepResult{
		Title:    "Figure 11: NUniFreq+DVFS throughput & ED^2 (Cost-Performance, 75 W)",
		Env:      CostPerformance,
		Baseline: paperCombos[0].Label(),
		Combos:   paperCombos,
		Threads:  threads,
		Cells:    cells,
	}, nil
}

// Fig13 reproduces Figure 13: the Figure 11 experiment re-run with
// weighted throughput as the optimisation goal, reporting weighted
// throughput and weighted ED^2.
func Fig13(e *Env) (*DVFSSweepResult, error) {
	threads := []int{4, 8, 16, 20}
	cells, err := dvfsSweep(e, CostPerformance, paperCombos, threads, pm.ObjWeighted)
	if err != nil {
		return nil, err
	}
	return &DVFSSweepResult{
		Title:    "Figure 13: weighted throughput & weighted ED^2 (Cost-Performance, 75 W)",
		Env:      CostPerformance,
		Baseline: paperCombos[0].Label(),
		Combos:   paperCombos,
		Threads:  threads,
		Cells:    cells,
		Weighted: true,
	}, nil
}

// Render prints the figure's two panels.
func (r *DVFSSweepResult) Render() string {
	var b strings.Builder
	b.WriteString(r.Title + "\n")
	tpMetric := func(c DVFSCell) float64 { return c.MIPS }
	edMetric := func(c DVFSCell) float64 { return c.EDSquared }
	tpLabel, edLabel := "(a) MIPS", "(b) ED^2"
	if r.Weighted {
		tpMetric = func(c DVFSCell) float64 { return c.WeightedTP }
		edMetric = func(c DVFSCell) float64 { return c.WeightedED2 }
		tpLabel, edLabel = "(a) weighted TP", "(b) weighted ED^2"
	}
	r.renderPanel(&b, tpLabel, tpMetric)
	r.renderPanel(&b, edLabel, edMetric)
	return b.String()
}

func (r *DVFSSweepResult) renderPanel(b *strings.Builder, label string, metric func(DVFSCell) float64) {
	fmt.Fprintf(b, "%s (relative to %s)\n", label, r.Baseline)
	fmt.Fprintf(b, "%-10s", "threads")
	for _, c := range r.Combos {
		fmt.Fprintf(b, " %24s", c.Label())
	}
	b.WriteString("\n")
	for ti, n := range r.Threads {
		fmt.Fprintf(b, "%-10d", n)
		for _, c := range r.Combos {
			fmt.Fprintf(b, " %24.3f", r.Rel(c.Label(), ti, metric))
		}
		b.WriteString("\n")
	}
}

// Fig12Result reproduces Figure 12: 20-thread throughput of the four
// combinations across the three power environments.
type Fig12Result struct {
	Baseline string
	Combos   []Combo
	Envs     []PowerEnv
	// Cells[comboLabel][envIndex]
	Cells map[string][]DVFSCell
}

// Fig12 runs the environment sweep.
func Fig12(e *Env) (*Fig12Result, error) {
	res := &Fig12Result{
		Baseline: paperCombos[0].Label(),
		Combos:   paperCombos,
		Envs:     []PowerEnv{LowPower, CostPerformance, HighPerformance},
		Cells:    make(map[string][]DVFSCell),
	}
	for _, env := range res.Envs {
		cells, err := dvfsSweep(e, env, paperCombos, []int{20}, pm.ObjMIPS)
		if err != nil {
			return nil, err
		}
		for label, cs := range cells {
			res.Cells[label] = append(res.Cells[label], cs[0])
		}
	}
	return res, nil
}

// Rel returns MIPS(combo)/MIPS(baseline) for environment index ei.
func (r *Fig12Result) Rel(combo string, ei int) float64 {
	base := r.Cells[r.Baseline][ei].MIPS
	if base == 0 {
		return 0
	}
	return r.Cells[combo][ei].MIPS / base
}

// Render formats the environment sweep.
func (r *Fig12Result) Render() string {
	var b strings.Builder
	b.WriteString("Figure 12: 20-thread MIPS vs power target (relative to " + r.Baseline + ")\n")
	fmt.Fprintf(&b, "%-20s", "power target")
	for _, c := range r.Combos {
		fmt.Fprintf(&b, " %24s", c.Label())
	}
	b.WriteString("\n")
	for ei, env := range r.Envs {
		fmt.Fprintf(&b, "%-20s", fmt.Sprintf("%s (%.0fW)", env.Name, env.PTargetW))
		for _, c := range r.Combos {
			fmt.Fprintf(&b, " %24.3f", r.Rel(c.Label(), ei))
		}
		b.WriteString("\n")
	}
	return b.String()
}
