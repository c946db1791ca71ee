package experiments

import (
	"fmt"
	"strings"

	"vasched/internal/core"
	"vasched/internal/pm"
	"vasched/internal/stats"
	"vasched/internal/workload"
)

// ExtSAnnParRow is one chain count's outcome.
type ExtSAnnParRow struct {
	// Chains is the number of independent annealing chains per decision.
	Chains int
	// Evals is the total objective-evaluation budget per decision
	// (Chains x the per-chain budget).
	Evals int
	// TPutMIPS is the modelled throughput of the chosen operating point,
	// averaged over trials.
	TPutMIPS float64
	// GainPct is the throughput gain over the single-chain row.
	GainPct float64
}

// ExtSAnnParResult is the chain-scaling study of the parallel multi-chain
// SAnn mode (pm.SAnn.Chains / anneal.SolveParallel): K independent chains
// with deterministically derived RNG streams, best-of reduction. More
// chains buy a wider search for the same wall-clock (chains fan out
// across the farm workers), and the result is a function of the chain
// count alone — any -parallel N renders this table byte-identically.
type ExtSAnnParResult struct {
	Threads int
	Rows    []ExtSAnnParRow
}

// ExtSAnnPar runs SAnn with 1, 2, 4, and 8 chains on frozen die-0
// platform snapshots (the comparison is between search budgets, not
// timelines), averaging the modelled throughput over the Env's trials.
func ExtSAnnPar(e *Env) (*ExtSAnnParResult, error) {
	c, err := e.Chip(0)
	if err != nil {
		return nil, err
	}
	const threads = 16
	budget := CostPerformance.Budget(threads, e.Floorplan().NumCores)
	res := &ExtSAnnParResult{Threads: threads}
	for _, chains := range []int{1, 2, 4, 8} {
		var tps []float64
		for trial := 0; trial < e.Trials; trial++ {
			seed := e.Seed + int64(trial)*53
			apps := workload.Mix(stats.NewRNG(seed), threads)
			plat, err := core.FrozenSnapshot(c, e.CPU(), apps, seed)
			if err != nil {
				return nil, err
			}
			mgr := pm.SAnn{MaxEvals: e.SAnnEvals, Chains: chains, Workers: e.Workers}
			levels, err := mgr.Decide(e.Context(), plat, budget, stats.NewRNG(seed))
			if err != nil {
				return nil, err
			}
			tps = append(tps, plat.ObjectiveValue(levels, pm.ObjMIPS, plat.ObjCoef(pm.ObjMIPS, nil)))
		}
		res.Rows = append(res.Rows, ExtSAnnParRow{
			Chains:   chains,
			Evals:    chains * e.SAnnEvals,
			TPutMIPS: stats.Mean(tps),
		})
	}
	base := res.Rows[0].TPutMIPS
	for i := range res.Rows {
		if base > 0 {
			res.Rows[i].GainPct = (res.Rows[i].TPutMIPS - base) / base * 100
		}
	}
	return res, nil
}

// Render formats the chain-scaling table.
func (r *ExtSAnnParResult) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Extension: parallel multi-chain SAnn (%d threads, die 0)\n", r.Threads)
	fmt.Fprintf(&b, "%-8s %14s %16s %12s\n", "chains", "evals/decide", "modelled MIPS", "vs 1 chain")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "%-8d %14d %16.1f %+11.2f%%\n", row.Chains, row.Evals, row.TPutMIPS, row.GainPct)
	}
	b.WriteString("(independent chains, derived RNG streams, best-of reduction;\n identical output at any worker count)\n")
	return b.String()
}
