package experiments

import (
	"context"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"strings"

	"vasched/internal/core"
	"vasched/internal/metrics"
	"vasched/internal/pm"
	"vasched/internal/stats"
	"vasched/internal/workload"
)

// kernelSchedPM is the die×trial task kernel behind the ext-cluster
// experiment: index = die*Trials + trial selects one (die, workload)
// pair, whose schedule + power-management decision is computed in
// isolation. It exercises the full per-task stack a clustered worker has
// to reproduce — die characterisation, thread profiling, VarF&AppIPC
// assignment, and a LinOpt decision — while staying a pure function of
// (Scale, Seed, BatchSeed, index).
const kernelSchedPM = "sched-pm"

// clusterThreads is the occupancy ext-cluster schedules (16 of 20 cores,
// like the ext-sann-par study).
const clusterThreads = 16

// schedPMBlob is the kernel's wire shape.
type schedPMBlob struct {
	TPutMIPS float64 `json:"tp"`
	PowerW   float64 `json:"pw"`
}

func init() {
	RegisterKernel(kernelSchedPM, func(ctx context.Context, e *Env, index int) ([]byte, error) {
		b, err := schedPMTask(ctx, e, index/e.Trials, index%e.Trials)
		if err != nil {
			return nil, err
		}
		return json.Marshal(b)
	})
}

// schedPMTask computes one (die, trial) schedule + power-management
// decision — the unit of work behind both the sched-pm kernel (die×trial
// index space) and the adaptive die-sched kernel (per-die trial
// averages). A pure function of (Scale, Seed, BatchSeed, die, trial).
func schedPMTask(ctx context.Context, e *Env, die, trial int) (schedPMBlob, error) {
	var b schedPMBlob
	c, err := e.Chip(die)
	if err != nil {
		return b, err
	}
	// The same per-index seed formula the timeline sweeps use: the
	// result depends only on (die, trial), never on shard layout.
	seed := e.Seed + int64(die)*13 + int64(trial)*97
	apps := workload.Mix(stats.NewRNG(seed), clusterThreads)
	plat, err := core.FrozenSnapshot(c, e.CPU(), apps, seed)
	if err != nil {
		return b, err
	}
	budget := CostPerformance.Budget(clusterThreads, e.Floorplan().NumCores)
	mgr := pm.LinOpt{FitPoints: 3}
	levels, err := mgr.Decide(ctx, plat, budget, stats.NewRNG(seed))
	if err != nil {
		return b, err
	}
	b.TPutMIPS = plat.ObjectiveValue(levels, pm.ObjMIPS, plat.ObjCoef(pm.ObjMIPS, nil))
	b.PowerW = plat.TotalPower(levels)
	return b, nil
}

// ExtClusterResult is the sharded-cluster demonstration experiment: a
// die×trial grid of schedule+PM decisions reduced to per-die statistics,
// plus an FNV-64a checksum over every task blob in index order. The
// checksum is the determinism witness: a run sharded across any number
// of workers — or degraded back to local execution, or perturbed by a
// FaultPlan — renders this result byte-for-byte identically.
type ExtClusterResult struct {
	Dies     int
	Trials   int
	Threads  int
	PTargetW float64
	// TPutMIPS and PowerW are per-die trial averages.
	TPutMIPS []float64
	PowerW   []float64
	// Checksum is the FNV-64a over all task blobs in index order.
	Checksum string
}

// ExtCluster runs the die×trial grid through the distributable kernel
// path (remote shards when the Env has a cluster attached, the local
// farm otherwise) and reduces serially in index order.
func ExtCluster(e *Env) (*ExtClusterResult, error) {
	n := e.NumDies * e.Trials
	res := &ExtClusterResult{
		Dies:     e.NumDies,
		Trials:   e.Trials,
		Threads:  clusterThreads,
		PTargetW: CostPerformance.Budget(clusterThreads, e.Floorplan().NumCores).PTargetW,
		TPutMIPS: make([]float64, e.NumDies),
		PowerW:   make([]float64, e.NumDies),
	}
	sum := fnv.New64a()
	err := e.ForDiesKernel(kernelSchedPM, n, func(index int, blob []byte) error {
		sum.Write(blob)
		var b schedPMBlob
		if err := json.Unmarshal(blob, &b); err != nil {
			return fmt.Errorf("experiments: task %d blob: %w", index, err)
		}
		die := index / e.Trials
		res.TPutMIPS[die] += b.TPutMIPS / float64(e.Trials)
		res.PowerW[die] += b.PowerW / float64(e.Trials)
		return nil
	})
	if err != nil {
		return nil, err
	}
	res.Checksum = fmt.Sprintf("%016x", sum.Sum64())
	return res, nil
}

// Render formats the per-die statistics and the determinism checksum.
func (r *ExtClusterResult) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Extension: sharded cluster run (%d dies x %d trials, %d threads, LinOpt @ %.0f W)\n",
		r.Dies, r.Trials, r.Threads, r.PTargetW)
	fmt.Fprintf(&b, "modelled throughput per die: mean %.1f  min %.1f  max %.1f MIPS\n",
		stats.Mean(r.TPutMIPS), stats.Min(r.TPutMIPS), stats.Max(r.TPutMIPS))
	fmt.Fprintf(&b, "  %s\n", metrics.Sparkline(r.TPutMIPS, 60))
	fmt.Fprintf(&b, "decided chip power per die:  mean %.2f  min %.2f  max %.2f W\n",
		stats.Mean(r.PowerW), stats.Min(r.PowerW), stats.Max(r.PowerW))
	fmt.Fprintf(&b, "  %s\n", metrics.Sparkline(r.PowerW, 60))
	fmt.Fprintf(&b, "task-blob checksum: %s\n", r.Checksum)
	b.WriteString("(byte-identical at any worker/shard count, under fault injection,\n and when degraded to pure-local execution)\n")
	return b.String()
}
