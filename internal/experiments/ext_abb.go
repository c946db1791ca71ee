package experiments

import (
	"context"
	"fmt"
	"strings"

	"vasched/internal/abb"
	"vasched/internal/chip"
	"vasched/internal/core"
	"vasched/internal/sched"
	"vasched/internal/stats"
	"vasched/internal/workload"
)

// ExtABBResult is the Adaptive-Body-Bias interaction study. Humenay et
// al. (the paper's related work) propose ABB/ASV to *reduce* variation;
// the paper proposes to *exploit* it. This experiment quantifies the
// interplay: ABB compresses the frequency spread (at a leakage cost), and
// with less spread left to exploit, the variation-aware scheduler's
// advantage over Random shrinks — the two techniques are complementary,
// exactly as the paper argues.
type ExtABBResult struct {
	// Spreads before/after biasing (max/min core ratios).
	FreqSpreadBase, FreqSpreadABB float64
	LeakSpreadBase, LeakSpreadABB float64
	// TotalStaticBase/ABB are chip static power sums at the top level
	// (manufacturer tables), showing ABB's leakage bill.
	TotalStaticBase, TotalStaticABB float64
	// SchedGainBase/ABB are VarF&AppIPC's MIPS gain over Random (in
	// percent) on the base and biased chips, NUniFreq, 8 threads.
	SchedGainBasePct, SchedGainABBPct float64
}

// ExtABB runs the study on die 0.
func ExtABB(e *Env) (*ExtABBResult, error) {
	baseC, err := e.Chip(0)
	if err != nil {
		return nil, err
	}
	biased, _, err := abb.Rebuild(baseC, e.DelayCfg, e.Power, e.ThermalCfg, abb.DefaultConfig())
	if err != nil {
		return nil, err
	}

	res := &ExtABBResult{}
	res.FreqSpreadBase, res.LeakSpreadBase = abb.Spread(baseC)
	res.FreqSpreadABB, res.LeakSpreadABB = abb.Spread(biased)
	top := len(baseC.Levels) - 1
	for coreID := 0; coreID < baseC.NumCores(); coreID++ {
		res.TotalStaticBase += baseC.StaticAtLevel[coreID][top]
		res.TotalStaticABB += biased.StaticAtLevel[coreID][top]
	}

	// One task per (die, trial, policy) timeline, listed in the serial
	// order — base die then biased die, trials ascending, Random then
	// VarF&AppIPC — so the means reduce in that order however the farm
	// schedules the tasks.
	chips := []*chip.Chip{baseC, biased}
	policies := []sched.Policy{sched.RandomPolicy{}, sched.VarFAppIPCPolicy{}}
	type task struct{ die, trial, policy int }
	var tasks []task
	for die := range chips {
		for trial := 0; trial < e.Trials; trial++ {
			for p := range policies {
				tasks = append(tasks, task{die, trial, p})
			}
		}
	}
	mips := make([]float64, len(tasks))
	err = e.ForTasks(len(tasks), func(ctx context.Context, i int) error {
		t := tasks[i]
		seed := e.Seed + int64(t.trial)*41
		sys, err := core.New(core.Config{
			Chip: chips[t.die], CPU: e.CPU(), Scheduler: policies[t.policy], Mode: core.ModeNUniFreq,
			SampleIntervalMS: e.SampleMS, Seed: seed, Ctx: ctx,
		})
		if err != nil {
			return err
		}
		st, err := sys.Run(workload.Mix(stats.NewRNG(seed), 8), e.SimMS)
		if err != nil {
			return err
		}
		mips[i] = st.MIPS
		return nil
	})
	if err != nil {
		return nil, err
	}
	// byDie[die][policy] holds the trials' MIPS in trial order.
	var byDie [2][2][]float64
	for i, t := range tasks {
		byDie[t.die][t.policy] = append(byDie[t.die][t.policy], mips[i])
	}
	gain := func(m [2][]float64) float64 { return (stats.Mean(m[1])/stats.Mean(m[0]) - 1) * 100 }
	res.SchedGainBasePct, res.SchedGainABBPct = gain(byDie[0]), gain(byDie[1])
	return res, nil
}

// Render formats the study.
func (r *ExtABBResult) Render() string {
	var b strings.Builder
	b.WriteString("Extension: Adaptive Body Bias (Humenay et al.) vs variation-aware scheduling\n")
	fmt.Fprintf(&b, "%-34s %10s %10s\n", "", "base die", "with ABB")
	fmt.Fprintf(&b, "%-34s %10.2f %10.2f\n", "core frequency spread (max/min)", r.FreqSpreadBase, r.FreqSpreadABB)
	fmt.Fprintf(&b, "%-34s %10.2f %10.2f\n", "core static-power spread", r.LeakSpreadBase, r.LeakSpreadABB)
	fmt.Fprintf(&b, "%-34s %9.1fW %9.1fW\n", "total core static power @1V", r.TotalStaticBase, r.TotalStaticABB)
	fmt.Fprintf(&b, "%-34s %9.1f%% %9.1f%%\n", "VarF&AppIPC gain over Random", r.SchedGainBasePct, r.SchedGainABBPct)
	b.WriteString("(ABB narrows the spread the scheduler exploits — the techniques are complementary)\n")
	return b.String()
}
