package experiments

import (
	"context"
	"fmt"
	"strings"

	"vasched/internal/core"
	"vasched/internal/pm"
	"vasched/internal/sched"
	"vasched/internal/stats"
	"vasched/internal/workload"
)

// Sec74Result reproduces the Section 7.4 text claim: moving from UniFreq
// to NUniFreq at full occupancy raises the average core frequency (~15% in
// the paper), raises power (~10%), and cuts ED^2 (~20%).
type Sec74Result struct {
	FreqRatio  float64
	PowerRatio float64
	ED2Ratio   float64
}

// Sec74 runs both configurations with Random scheduling on the Env's dies.
func Sec74(e *Env) (*Sec74Result, error) {
	policy, err := sched.New(sched.NameRandom)
	if err != nil {
		return nil, err
	}
	run := func(mode core.Mode) (freq, power, ed2 float64, err error) {
		// Die×trial fan-out through the farm; reduce in serial order.
		tasks := e.RunDies * e.Trials
		slots := make([]*core.RunStats, tasks)
		err = e.ForTasks(tasks, func(ctx context.Context, i int) error {
			die, trial := i/e.Trials, i%e.Trials
			c, err := e.Chip(die)
			if err != nil {
				return err
			}
			seed := e.Seed + int64(trial)*97 + int64(die)*13
			apps := workload.Mix(stats.NewRNG(seed), 20)
			sys, err := core.New(core.Config{
				Chip: c, CPU: e.CPU(), Scheduler: policy, Mode: mode,
				SampleIntervalMS: e.SampleMS, Seed: seed, Ctx: ctx,
			})
			if err != nil {
				return err
			}
			st, err := sys.Run(apps, e.SimMS)
			if err != nil {
				return err
			}
			slots[i] = st
			return nil
		})
		if err != nil {
			return 0, 0, 0, err
		}
		var fs, ps, es []float64
		for _, st := range slots {
			fs = append(fs, st.AvgActiveFreqHz)
			ps = append(ps, st.AvgPowerW)
			es = append(es, st.EDSquared)
		}
		return stats.Mean(fs), stats.Mean(ps), stats.Mean(es), nil
	}
	uf, up, ue, err := run(core.ModeUniFreq)
	if err != nil {
		return nil, err
	}
	nf, np, ne, err := run(core.ModeNUniFreq)
	if err != nil {
		return nil, err
	}
	return &Sec74Result{FreqRatio: nf / uf, PowerRatio: np / up, ED2Ratio: ne / ue}, nil
}

// Render formats the comparison.
func (r *Sec74Result) Render() string {
	var b strings.Builder
	b.WriteString("Section 7.4: NUniFreq vs UniFreq at 20 threads\n")
	fmt.Fprintf(&b, "frequency: %+.1f%% (paper: ~+15%%)\n", (r.FreqRatio-1)*100)
	fmt.Fprintf(&b, "power:     %+.1f%% (paper: ~+10%%)\n", (r.PowerRatio-1)*100)
	fmt.Fprintf(&b, "ED^2:      %+.1f%% (paper: ~-20%%)\n", (r.ED2Ratio-1)*100)
	return b.String()
}

// SAnnValidationRow is one thread-count's SAnn-vs-exhaustive gap.
type SAnnValidationRow struct {
	Threads int
	// GapPct is (exhaustive - SAnn) / exhaustive modelled throughput, in
	// percent, averaged over trials.
	GapPct float64
	// LinOptGapPct is the same gap for LinOpt.
	LinOptGapPct float64
}

// SAnnValidationResult reproduces the Section 6.5 validation: for up to 4
// threads, SAnn's throughput is within ~1% of an exhaustive search.
type SAnnValidationResult struct {
	Rows []SAnnValidationRow
}

// SAnnVsExhaustive runs the validation on die 0 with frozen platform
// snapshots (the comparison is between optimisers, not timelines).
func SAnnVsExhaustive(e *Env) (*SAnnValidationResult, error) {
	c, err := e.Chip(0)
	if err != nil {
		return nil, err
	}
	res := &SAnnValidationResult{}
	for _, n := range []int{2, 3, 4} {
		budget := CostPerformance.Budget(n, e.Floorplan().NumCores)
		var gaps, linGaps []float64
		for trial := 0; trial < e.Trials; trial++ {
			seed := e.Seed + int64(trial)*53
			apps := workload.Mix(stats.NewRNG(seed), n)
			plat, err := core.FrozenSnapshot(c, e.CPU(), apps, seed)
			if err != nil {
				return nil, err
			}
			mips := plat.ObjCoef(pm.ObjMIPS, nil)
			modelTP := func(levels []int) float64 {
				return plat.ObjectiveValue(levels, pm.ObjMIPS, mips)
			}
			exh, err := pm.NewExhaustive().Decide(e.Context(), plat, budget, stats.NewRNG(seed))
			if err != nil {
				return nil, err
			}
			sann, err := pm.SAnn{MaxEvals: e.SAnnEvals * 5}.Decide(e.Context(), plat, budget, stats.NewRNG(seed))
			if err != nil {
				return nil, err
			}
			lin, err := pm.NewLinOpt().Decide(e.Context(), plat, budget, stats.NewRNG(seed))
			if err != nil {
				return nil, err
			}
			ref := modelTP(exh)
			if ref > 0 {
				gaps = append(gaps, (ref-modelTP(sann))/ref*100)
				linGaps = append(linGaps, (ref-modelTP(lin))/ref*100)
			}
		}
		res.Rows = append(res.Rows, SAnnValidationRow{
			Threads: n, GapPct: stats.Mean(gaps), LinOptGapPct: stats.Mean(linGaps),
		})
	}
	return res, nil
}

// Render formats the validation table.
func (r *SAnnValidationResult) Render() string {
	var b strings.Builder
	b.WriteString("Section 6.5 validation: throughput gap to exhaustive search\n")
	fmt.Fprintf(&b, "%-10s %12s %12s\n", "threads", "SAnn gap", "LinOpt gap")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "%-10d %11.2f%% %11.2f%%\n", row.Threads, row.GapPct, row.LinOptGapPct)
	}
	b.WriteString("(paper: SAnn within 1% of exhaustive for <=4 threads)\n")
	return b.String()
}
