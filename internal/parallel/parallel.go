// Package parallel analyses barrier-synchronised parallel applications on
// a variation-affected CMP — the paper's third future-work extension
// ("analyzing the impact of the algorithms on parallel applications").
//
// A parallel job is N threads of the same code separated by barriers:
// every section completes when its *slowest* thread arrives, so
// core-to-core frequency variation directly becomes wasted wall-clock time
// on the fast cores (Balakrishnan et al.'s performance-asymmetry problem,
// discussed in the paper's related work). That changes the right answers:
// schedulers should pick cores with *similar* speeds, and power managers
// should maximise the minimum thread speed (pm.ObjMinSpeed) instead of the
// sum.
package parallel

import (
	"context"
	"errors"
	"fmt"

	"vasched/internal/chip"
	"vasched/internal/cpusim"
	"vasched/internal/pm"
	"vasched/internal/stats"
	"vasched/internal/workload"
)

// Job describes a barrier-synchronised parallel application.
type Job struct {
	// App is the per-thread behaviour (one of the SPEC profiles).
	App *workload.AppProfile
	// Threads is the number of worker threads.
	Threads int
	// SectionInstr is the instructions each thread executes between
	// barriers.
	SectionInstr float64
	// Sections is the number of barrier intervals in the job.
	Sections int
}

// Validate reports job errors.
func (j Job) Validate() error {
	if j.App == nil {
		return errors.New("parallel: job has no application")
	}
	if j.Threads <= 0 || j.SectionInstr <= 0 || j.Sections <= 0 {
		return fmt.Errorf("parallel: invalid job %+v", j)
	}
	return nil
}

// Result summarises one job execution.
type Result struct {
	// TimeMS is the job's wall-clock completion time.
	TimeMS float64
	// AvgPowerW is the average chip power while running.
	AvgPowerW float64
	// EnergyJ is total energy.
	EnergyJ float64
	// BarrierWastePct is the share of aggregate thread-time spent waiting
	// at barriers (0 on a perfectly homogeneous machine).
	BarrierWastePct float64
	// SpeedThreads is each thread's achieved instructions-per-second.
	SpeedThreads []float64
}

// Run executes the job on the given cores of the chip at the given ladder
// levels (one per thread, aligned with cores). Each barrier section takes
// as long as its slowest thread; power is evaluated with the chip's full
// thermal model at the chosen operating points.
func Run(c *chip.Chip, cpu *cpusim.Model, job Job, cores []int, levels []int) (*Result, error) {
	if err := job.Validate(); err != nil {
		return nil, err
	}
	if len(cores) != job.Threads || len(levels) != job.Threads {
		return nil, fmt.Errorf("parallel: %d cores / %d levels for %d threads",
			len(cores), len(levels), job.Threads)
	}
	states := c.OffStates()
	speeds := make([]float64, job.Threads)
	for t, coreID := range cores {
		v := c.Levels[levels[t]]
		f := c.FmaxAt(coreID, v)
		if f <= 0 {
			return nil, fmt.Errorf("parallel: core %d infeasible at %.2f V", coreID, v)
		}
		states[coreID] = chip.CoreState{App: job.App, V: v, F: f}
	}
	res, err := c.Evaluate(states, cpu)
	if err != nil {
		return nil, err
	}
	slowest := 0.0
	for t, coreID := range cores {
		speeds[t] = res.CoreIPC[coreID] * states[coreID].F
		if t == 0 || speeds[t] < slowest {
			slowest = speeds[t]
		}
	}
	if slowest <= 0 {
		return nil, errors.New("parallel: a thread made no progress")
	}

	sectionTime := job.SectionInstr / slowest // seconds
	totalTime := sectionTime * float64(job.Sections)
	// Barrier waste: time each thread idles per section, summed.
	var busy, total float64
	for _, s := range speeds {
		busy += job.SectionInstr / s
		total += sectionTime
	}
	return &Result{
		TimeMS:          totalTime * 1000,
		AvgPowerW:       res.TotalW,
		EnergyJ:         res.TotalW * totalTime,
		BarrierWastePct: (1 - busy/total) * 100,
		SpeedThreads:    speeds,
	}, nil
}

// PickSimilarCores returns the n-core subset (of the chip's cores) with
// the most uniform rated frequencies — the scheduling answer for barrier
// workloads. It slides a window over the frequency-sorted core list and
// picks the window with the smallest max/min spread.
func PickSimilarCores(c *chip.Chip, n int) ([]int, error) {
	if n <= 0 || n > c.NumCores() {
		return nil, fmt.Errorf("parallel: cannot pick %d of %d cores", n, c.NumCores())
	}
	type cf struct {
		core int
		f    float64
	}
	all := make([]cf, c.NumCores())
	for i := range all {
		all[i] = cf{core: i, f: c.FmaxNominal(i)}
	}
	// Insertion sort by frequency (20 elements).
	for i := 1; i < len(all); i++ {
		for j := i; j > 0 && all[j].f < all[j-1].f; j-- {
			all[j], all[j-1] = all[j-1], all[j]
		}
	}
	best, bestSpread := 0, -1.0
	for s := 0; s+n <= len(all); s++ {
		spread := all[s+n-1].f / all[s].f
		if bestSpread < 0 || spread < bestSpread {
			best, bestSpread = s, spread
		}
	}
	out := make([]int, n)
	for i := 0; i < n; i++ {
		out[i] = all[best+i].core
	}
	return out, nil
}

// PickFastestCores returns the n highest-frequency cores (the VarF answer,
// which is right for throughput but wrong for barriers when the budget
// forces unequal operating points).
func PickFastestCores(c *chip.Chip, n int) ([]int, error) {
	if n <= 0 || n > c.NumCores() {
		return nil, fmt.Errorf("parallel: cannot pick %d of %d cores", n, c.NumCores())
	}
	type cf struct {
		core int
		f    float64
	}
	all := make([]cf, c.NumCores())
	for i := range all {
		all[i] = cf{core: i, f: c.FmaxNominal(i)}
	}
	for i := 1; i < len(all); i++ {
		for j := i; j > 0 && all[j].f > all[j-1].f; j-- {
			all[j], all[j-1] = all[j-1], all[j]
		}
	}
	out := make([]int, n)
	for i := 0; i < n; i++ {
		out[i] = all[i].core
	}
	return out, nil
}

// NewJobPlatform builds the pm.Snapshot of the job's threads on the
// chosen cores (power tables at the reference temperature, sensor IPC at
// each core's top operating point, true IPC at every feasible level), so
// any power manager can set the job's per-core operating points.
func NewJobPlatform(c *chip.Chip, cpu *cpusim.Model, job Job, cores []int) (*pm.Snapshot, error) {
	if err := job.Validate(); err != nil {
		return nil, err
	}
	if len(cores) != job.Threads {
		return nil, fmt.Errorf("parallel: %d cores for %d threads", len(cores), job.Threads)
	}
	phase := workload.Phase{IPCScale: 1, PowerScale: 1}
	nl := len(c.Levels)
	snap := &pm.Snapshot{Uncore: c.Power.L2StaticW(c.Maps, c.FP, c.Tech.TRefC)}
	snap.Resize(job.Threads, nl)
	copy(snap.Volt, c.Levels)
	ref, err := cpu.SteadyIPC(job.App, c.Tech.FNominalHz)
	if err != nil {
		return nil, err
	}
	for t, coreID := range cores {
		snap.Refs[t] = ref * c.Tech.FNominalHz
		for li, v := range c.Levels {
			i := t*nl + li
			f := c.FmaxAt(coreID, v)
			snap.Freq[i] = f
			if f <= 0 {
				continue
			}
			ipcAt, err := cpu.IPC(job.App, phase, f)
			if err != nil {
				return nil, err
			}
			snap.TrueIPC[i] = ipcAt
			stat := c.CoreStaticCached(coreID, v, c.Tech.TRefC)
			dyn := c.Power.DynamicCoreW(job.App.DynPowerW, job.App.IPCNom, v, f, ipcAt)
			snap.Power[i] = stat + dyn
		}
		// The IPC sensor reads the thread at the top operating point.
		snap.IPCs[t] = snap.TrueIPC[t*nl+nl-1]
	}
	return snap, nil
}

// Budgeted solves the job's operating points with the given manager and
// budget on the given cores, then runs the job. It is the glue the
// ext-parallel experiment and tests use. The context only carries
// tracing state for the manager's decision span.
func Budgeted(ctx context.Context, c *chip.Chip, cpu *cpusim.Model, job Job, cores []int, mgr pm.Manager, budget pm.Budget, rngSeed int64) (*Result, error) {
	snap, err := NewJobPlatform(c, cpu, job, cores)
	if err != nil {
		return nil, err
	}
	levels, err := mgr.Decide(ctx, snap, budget, stats.NewRNG(rngSeed))
	if err != nil {
		return nil, err
	}
	return Run(c, cpu, job, cores, levels)
}
