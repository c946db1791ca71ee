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

// Fig14Point is one (interval, thread-count) deviation measurement.
type Fig14Point struct {
	IntervalMS   float64
	Threads      int
	DeviationPct float64
}

// Fig14Result reproduces Figure 14: the average deviation of consumed
// power from Ptarget as a function of the interval between LinOpt runs,
// for 4- and 20-thread workloads. Long intervals let program phases drift
// the power away from the last solution; at the paper's 10 ms the
// deviation is ~1%.
type Fig14Result struct {
	Points []Fig14Point
}

// Fig14 sweeps the DVFS re-solve interval. The timeline is long enough to
// cover several re-solves of the longest interval.
func Fig14(e *Env) (*Fig14Result, error) {
	intervals := []float64{2000, 1000, 500, 100, 10}
	policy, err := sched.New(sched.NameVarFAppIPC)
	if err != nil {
		return nil, err
	}
	c, err := e.Chip(0)
	if err != nil {
		return nil, err
	}
	// One task per (threads, interval, trial) timeline, listed in the
	// serial sweep's order, so every point's deviations reduce in trial
	// order however the farm schedules the tasks.
	type task struct {
		point, threads int
		durMS          float64
		cfg            core.Config
	}
	res := &Fig14Result{}
	var tasks []task
	for _, n := range []int{4, 20} {
		budget := CostPerformance.Budget(n, e.Floorplan().NumCores)
		for _, interval := range intervals {
			// Warm up for one full interval (thermal transients and the
			// first decision), then measure over two more; sample at
			// 1 ms like the paper.
			warm := interval
			if warm < 50 {
				warm = 50
			}
			dur := warm + 2*interval
			if dur < warm+e.SimMS {
				dur = warm + e.SimMS
			}
			trials := e.Trials
			if interval >= 500 && trials > 2 {
				// Long timelines are expensive; two trials suffice for a
				// mean deviation.
				trials = 2
			}
			point := len(res.Points)
			res.Points = append(res.Points, Fig14Point{IntervalMS: interval, Threads: n})
			for trial := 0; trial < trials; trial++ {
				tasks = append(tasks, task{point: point, threads: n, durMS: dur, cfg: core.Config{
					Chip: c, CPU: e.CPU(), Scheduler: policy,
					Mode: core.ModeDVFS, Manager: pm.NewLinOpt(), Budget: budget,
					DVFSIntervalMS: interval,
					WarmupMS:       warm,
					// The OS interval must not re-map threads more often
					// than the DVFS interval re-solves, or the re-map
					// (which resets levels) would mask the interval
					// effect.
					OSIntervalMS:     dur + 1,
					SampleIntervalMS: 1,
					Seed:             e.Seed + int64(trial)*31,
					DecideHist:       e.DecideHist,
				}})
			}
		}
	}
	devs := make([]float64, len(tasks))
	err = e.ForTasks(len(tasks), func(ctx context.Context, i int) error {
		t := tasks[i]
		cfg := t.cfg
		cfg.Ctx = ctx
		sys, err := core.New(cfg)
		if err != nil {
			return err
		}
		st, err := sys.Run(workload.Mix(stats.NewRNG(cfg.Seed), t.threads), t.durMS)
		if err != nil {
			return err
		}
		devs[i] = st.PowerDeviationPct
		return nil
	})
	if err != nil {
		return nil, err
	}
	pointDevs := make([][]float64, len(res.Points))
	for i, t := range tasks {
		pointDevs[t.point] = append(pointDevs[t.point], devs[i])
	}
	for p := range res.Points {
		res.Points[p].DeviationPct = stats.Mean(pointDevs[p])
	}
	return res, nil
}

// Deviation returns the measured deviation for an (interval, threads)
// pair, or -1 if absent.
func (r *Fig14Result) Deviation(intervalMS float64, threads int) float64 {
	for _, p := range r.Points {
		if p.IntervalMS == intervalMS && p.Threads == threads {
			return p.DeviationPct
		}
	}
	return -1
}

// Render formats the sweep.
func (r *Fig14Result) Render() string {
	var b strings.Builder
	b.WriteString("Figure 14: mean |power - Ptarget| vs interval between LinOpt runs\n")
	fmt.Fprintf(&b, "%-12s %12s %12s\n", "interval", "4 threads", "20 threads")
	for _, interval := range []float64{2000, 1000, 500, 100, 10} {
		fmt.Fprintf(&b, "%-12s %11.2f%% %11.2f%%\n",
			fmtInterval(interval), r.Deviation(interval, 4), r.Deviation(interval, 20))
	}
	b.WriteString("(paper: falls below ~1% at the 10 ms interval)\n")
	return b.String()
}

func fmtInterval(ms float64) string {
	if ms >= 1000 {
		return fmt.Sprintf("%.0fs", ms/1000)
	}
	return fmt.Sprintf("%.0fms", ms)
}
