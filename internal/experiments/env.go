// Package experiments reproduces every table and figure of the paper's
// evaluation (Section 7). Each experiment is a function from a shared Env
// (the "lab bench": variation model, floorplan, power/thermal calibration,
// die batch, workload pool) to a typed result that renders the paper's
// plot as a text table. DESIGN.md section 3 maps experiment ids to paper
// artefacts; EXPERIMENTS.md records measured-vs-paper outcomes.
package experiments

import (
	"context"
	"fmt"

	"vasched/internal/chip"
	"vasched/internal/cluster"
	"vasched/internal/core"
	"vasched/internal/cpusim"
	"vasched/internal/delay"
	"vasched/internal/diecache"
	"vasched/internal/farm"
	"vasched/internal/floorplan"
	"vasched/internal/metrics"
	"vasched/internal/pm"
	"vasched/internal/power"
	"vasched/internal/stats"
	"vasched/internal/thermal"
	"vasched/internal/trace"
	"vasched/internal/varmodel"
	"vasched/internal/workload"
)

// PowerEnv is one of the paper's three power environments (Section 7.5):
// the chip-wide Ptarget at full (20-thread) occupancy; fewer threads scale
// the target proportionally.
type PowerEnv struct {
	Name     string
	PTargetW float64
}

// The paper's environments.
var (
	LowPower        = PowerEnv{Name: "Low Power", PTargetW: 50}
	CostPerformance = PowerEnv{Name: "Cost-Performance", PTargetW: 75}
	HighPerformance = PowerEnv{Name: "High Performance", PTargetW: 100}
)

// Budget returns the pm budget for n active threads on a CMP with numCores
// cores: Ptarget scales proportionally with occupancy (paper Section 7.5);
// the per-core cap is twice the per-core share of the full-occupancy
// target.
func (e PowerEnv) Budget(n, numCores int) pm.Budget {
	return pm.Budget{
		PTargetW:  e.PTargetW * float64(n) / float64(numCores),
		PCoreMaxW: 2 * e.PTargetW / float64(numCores),
	}
}

// Env is the shared experimental setup.
type Env struct {
	// VarCfg, DelayCfg, Power, ThermalCfg configure die generation.
	VarCfg     varmodel.Config
	DelayCfg   delay.Config
	Power      power.Model
	ThermalCfg thermal.Config
	// NumDies is the batch size for die-statistics experiments (the paper
	// uses 200 dies per experiment).
	NumDies int
	// RunDies is how many dies the time-based scheduling/DVFS sweeps
	// average over (each run costs a full timeline simulation).
	RunDies int
	// Trials is the number of random workloads per configuration (the
	// paper repeats each experiment 20 times).
	Trials int
	// SimMS is the simulated duration of each timeline run and SampleMS
	// the power-monitor cadence.
	SimMS    float64
	SampleMS float64
	// SAnnEvals is the simulated-annealing budget per invocation (the
	// paper used 1e6 for one-shot runs; sweeps need it smaller).
	SAnnEvals int
	// Seed derives all randomness; BatchSeed selects the die batch.
	Seed      int64
	BatchSeed int64
	// Scale names the stock configuration this Env was built from
	// ("quick" or "default", set by QuickEnv/DefaultEnv). It is the
	// cluster routing key: a shard request carries only (Scale, Seed,
	// BatchSeed, kernel, indices), and the worker rebuilds the same stock
	// Env from it. Leave empty for hand-customised Envs — an empty Scale
	// disables remote routing, so a custom configuration can never be
	// silently computed against a stock one on a worker.
	Scale string
	// Cluster, when non-nil, routes kernel-based die loops
	// (ForDiesKernel) to remote workers, degrading to local execution if
	// the whole cluster is unavailable. Nil runs everything locally.
	Cluster ShardRunner
	// Workers bounds the die-level parallelism of the farm engine: the
	// experiments fan independent dies (and independent timeline trials)
	// across this many goroutines. 0 means runtime.GOMAXPROCS(0); 1
	// reproduces the historical serial execution. Results are
	// bit-identical at every setting (see internal/farm).
	Workers int
	// DecideHist, when non-nil, receives one Observe(seconds) per power-
	// manager Decide call made by the DVFS experiments (passed through to
	// core.Config.DecideHist). LatencyHist is mutex-guarded, so one
	// histogram can collect across the parallel die farm. Purely
	// observational: experiment outputs are identical with or without it.
	DecideHist *metrics.LatencyHist
	// Adaptive, when non-nil, switches the ext-adapt experiment into
	// adaptive stratified sampling with the given settings (nil — and
	// every other experiment — evaluates the exact full population, so
	// attaching a cluster or changing Workers still cannot perturb the
	// classic goldens). See internal/adapt and DESIGN.md §12.
	Adaptive *AdaptiveConfig

	fp      *floorplan.Floorplan
	cpu     *cpusim.Model
	gen     *varmodel.Generator
	pool    []*workload.AppProfile
	dies    *diecache.Cache
	cfgHash uint64
	ctx     context.Context
}

// sharedDies is the process-wide characterised-die cache: the ~15
// experiments (and, in cmd/vaschedd, concurrent jobs) that share a die
// batch pay the GRF + thermal-fixed-point characterisation once per die.
// Entries are content-addressed by (config hash, batch seed, die index),
// so Envs with identical model configuration share dies no matter how
// they were constructed. Capped so a long-running service cannot grow
// without bound; rebuilt dies are bit-identical, so eviction only costs
// time. An on-disk blob layer (SetSharedDieCacheDir) lets a restarted
// service skip re-sampling entirely.
var sharedDies = diecache.New(1024, "")

// SharedDieCacheStatsFull exposes every counter the shared cache keeps,
// including the disk-layer ones (for the vaschedd /metrics endpoint).
func SharedDieCacheStatsFull() diecache.Stats { return sharedDies.Stats() }

// SetSharedDieCacheDir points the shared cache's blob store at dir
// (empty disables it). Intended for process start-up (vaschedd's
// -die-cache-dir flag) before experiments run.
func SetSharedDieCacheDir(dir string) { sharedDies.SetDir(dir) }

// DefaultEnv returns the paper-scale configuration (200 dies for the
// statistics experiments; the timeline sweeps average over a few dies and
// ten workloads each, which already gives stable means).
func DefaultEnv() (*Env, error) {
	e := &Env{
		VarCfg:     varmodel.DefaultConfig(),
		DelayCfg:   delay.DefaultConfig(),
		Power:      power.DefaultModel(varmodel.DefaultConfig().Tech),
		ThermalCfg: thermal.DefaultConfig(),
		NumDies:    200,
		RunDies:    3,
		Trials:     10,
		SimMS:      100,
		SampleMS:   1,
		SAnnEvals:  20000,
		Seed:       2008,
		BatchSeed:  1,
		Scale:      "default",
	}
	return e, e.init()
}

// QuickEnv returns a scaled-down configuration for tests and benchmarks:
// fewer dies, fewer trials, shorter timelines, coarser sampling.
func QuickEnv() (*Env, error) {
	e := &Env{
		VarCfg:     varmodel.DefaultConfig(),
		DelayCfg:   delay.DefaultConfig(),
		Power:      power.DefaultModel(varmodel.DefaultConfig().Tech),
		ThermalCfg: thermal.DefaultConfig(),
		NumDies:    12,
		RunDies:    1,
		Trials:     3,
		SimMS:      30,
		SampleMS:   5,
		SAnnEvals:  4000,
		Seed:       2008,
		BatchSeed:  1,
		Scale:      "quick",
	}
	e.VarCfg.GridRows, e.VarCfg.GridCols = 128, 128
	return e, e.init()
}

func (e *Env) init() error {
	if err := e.VarCfg.Validate(); err != nil {
		return err
	}
	e.fp = floorplan.New20CoreCMP()
	gen, err := varmodel.NewGenerator(e.VarCfg)
	if err != nil {
		return err
	}
	e.gen = gen
	e.pool = workload.SPEC()
	cpu, err := cpusim.New(cpusim.DefaultCoreConfig(), e.pool)
	if err != nil {
		return err
	}
	e.cpu = cpu
	if e.dies == nil {
		e.dies = sharedDies
	}
	// The canonical config hash covers every input that shapes die
	// characterisation: Envs with equal hashes produce bit-identical dies
	// and may share cache entries (in memory, on disk, and across the
	// cluster); changing any model field — even adding a new one —
	// changes the hash and strands the old entries instead of aliasing
	// them.
	hash, err := diecache.ConfigHash(e.VarCfg, e.DelayCfg, e.Power, e.ThermalCfg)
	if err != nil {
		return fmt.Errorf("experiments: hashing model config: %w", err)
	}
	e.cfgHash = hash
	return nil
}

// ConfigHash returns the canonical hash of the Env's model configuration
// — the content-address prefix of every die this Env generates. Shard
// requests carry it so a worker whose rebuilt Env disagrees (version
// skew, divergent defaults) refuses the shard instead of silently
// computing different dies.
func (e *Env) ConfigHash() uint64 { return e.cfgHash }

// Context returns the Env's cancellation context (Background if none was
// attached). Long die loops run through the farm engine, which checks it
// between tasks, so cancelling stops in-flight experiment work.
func (e *Env) Context() context.Context {
	if e.ctx == nil {
		return context.Background()
	}
	return e.ctx
}

// SetContext attaches a cancellation context to the Env.
func (e *Env) SetContext(ctx context.Context) { e.ctx = ctx }

// ForTasks runs fn(ctx, i) for every task index in [0, n) through the
// farm worker pool (Workers-wide). fn must only write to state addressed
// by its index; callers reduce the slots serially afterwards, which keeps
// parallel results bit-identical to the serial path. The callback's
// context carries the per-task tracing span (fn must not let it affect
// results).
func (e *Env) ForTasks(n int, fn func(ctx context.Context, i int) error) error {
	return farm.Map(e.Context(), e.Workers, n, fn)
}

// trialSeed is the seed rule of the die×trial timeline grid (DESIGN.md
// section 6): trial `trial` on die `die` draws its workload mix and runs
// its timeline from this seed, so a result depends only on (die, trial),
// never on which worker or shard computed it.
func (e *Env) trialSeed(die, trial int) int64 {
	return e.Seed + int64(die)*13 + int64(trial)*97
}

// runTrials runs cfg on every (die, trial) cell of the RunDies×Trials
// grid, each a threads-thread random workload simulated for durationMS,
// and returns the run statistics die-major (index die*Trials+trial), the
// order the experiments reduce in. cfg is a template: each cell fills in
// its die's Chip, the CPU model, its task context and its trialSeed.
func (e *Env) runTrials(cfg core.Config, threads int, durationMS float64) ([]*core.RunStats, error) {
	out := make([]*core.RunStats, e.RunDies*e.Trials)
	err := e.ForTasks(len(out), func(ctx context.Context, i int) error {
		die, trial := i/e.Trials, i%e.Trials
		c, err := e.Chip(die)
		if err != nil {
			return err
		}
		run := cfg
		run.Chip, run.CPU, run.Ctx = c, e.CPU(), ctx
		run.Seed = e.trialSeed(die, trial)
		sys, err := core.New(run)
		if err != nil {
			return err
		}
		out[i], err = sys.Run(workload.Mix(stats.NewRNG(run.Seed), threads), durationMS)
		return err
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// ShardRunner distributes a kernel's index list across remote workers
// and returns one blob per index, in argument order. internal/cluster's
// Client is the production implementation.
type ShardRunner interface {
	Run(ctx context.Context, job cluster.Job, indices []int) ([][]byte, error)
}

// ForDiesKernel is ForDiesKernelIndices over every index in [0, n),
// under the Env's context.
func (e *Env) ForDiesKernel(name string, n int, reduce func(index int, blob []byte) error) error {
	return e.ForDiesKernelIndices(e.Context(), name, indexRange(n), reduce)
}

// ForDiesKernelIndices runs the registered kernel for exactly the given
// indices and reduces the serialized results serially in argument order
// (pos is the position within indices; the caller maps pos back to
// indices[pos]). With a Cluster attached (and a stock Scale), the
// indices are sharded across remote workers; otherwise — or when the
// whole cluster is down — the kernel runs locally through the farm pool.
// Both paths produce byte-identical blobs, so the reduce step (and
// therefore the experiment's rendered report) cannot tell them apart;
// clustering, shard size, retries, hedging, and degradation are all
// invisible in the output. ctx is an argument so that callers such as
// the adaptive driver's rounds parent the kernel spans.
func (e *Env) ForDiesKernelIndices(ctx context.Context, name string, indices []int, reduce func(pos int, blob []byte) error) error {
	clustered := e.Cluster != nil && e.Scale != ""
	path := "local"
	if clustered {
		path = "cluster"
	}
	ctx, sp := trace.Start(ctx, "env.kernel",
		trace.String("kernel", name), trace.Int("n", len(indices)), trace.String("path", path))
	defer sp.End()
	if clustered {
		job := cluster.Job{Kernel: name, Scale: e.Scale, Seed: e.Seed, BatchSeed: e.BatchSeed, ConfigHash: e.cfgHash}
		blobs, err := e.Cluster.Run(ctx, job, indices)
		if err == nil {
			return reduceBlobs(blobs, reduce)
		}
		// Cancellation is not degradation: propagate it.
		if ctxErr := ctx.Err(); ctxErr != nil {
			return ctxErr
		}
		// Graceful degradation: the cluster client has already counted
		// the failed run; recompute everything locally.
		trace.Event(ctx, "cluster.degrade")
	}
	k, err := kernelByName(name)
	if err != nil {
		return err
	}
	blobs, err := farm.Collect(ctx, e.Workers, len(indices), func(ctx context.Context, i int) ([]byte, error) {
		return k(ctx, e, indices[i])
	})
	if err != nil {
		return err
	}
	return reduceBlobs(blobs, reduce)
}

// indexRange returns the indices 0..n-1.
func indexRange(n int) []int {
	indices := make([]int, n)
	for i := range indices {
		indices[i] = i
	}
	return indices
}

// reduceBlobs applies reduce serially in index order.
func reduceBlobs(blobs [][]byte, reduce func(index int, blob []byte) error) error {
	for i, b := range blobs {
		if err := reduce(i, b); err != nil {
			return err
		}
	}
	return nil
}

// Floorplan returns the shared 20-core floorplan.
func (e *Env) Floorplan() *floorplan.Floorplan { return e.fp }

// CPU returns the calibrated core model.
func (e *Env) CPU() *cpusim.Model { return e.cpu }

// Apps returns the SPEC application pool.
func (e *Env) Apps() []*workload.AppProfile { return e.pool }

// Chip returns (building and caching on first use) the characterised die
// with the given batch index. Dies come from the process-wide
// content-addressed cache keyed by (config hash, BatchSeed, die);
// concurrent requests for the same die share one characterisation, and
// with a blob directory configured a cache miss tries the disk layer
// before re-sampling. Safe for concurrent use: the generator serialises
// its own FFT scratch, and its pair cache serves an odd die from its even
// sibling's transform when the two are requested back to back.
func (e *Env) Chip(die int) (*chip.Chip, error) {
	key := diecache.Key{ConfigHash: e.cfgHash, BatchSeed: e.BatchSeed, Die: die}
	v, err := e.dies.Get(e.Context(), key,
		func() (*varmodel.DieMaps, error) {
			return e.gen.Die(e.BatchSeed, die)
		},
		func(maps *varmodel.DieMaps) (any, error) {
			c, err := chip.Build(maps, e.fp, e.DelayCfg, e.Power, e.ThermalCfg)
			if err != nil {
				return nil, fmt.Errorf("experiments: building die %d: %w", die, err)
			}
			return c, nil
		})
	if err != nil {
		return nil, err
	}
	return v.(*chip.Chip), nil
}

// DieMaps returns die's raw variation maps (Vth/Leff fields) without
// paying for full chip characterisation — the basis of the adaptive
// sampler's cheap severity proxy. Like Chip, the maps are a pure function
// of (BatchSeed, die).
func (e *Env) DieMaps(die int) (*varmodel.DieMaps, error) {
	return e.gen.Die(e.BatchSeed, die)
}

// Manager instantiates a power manager by paper name, with the Env's SAnn
// budget and the given objective.
func (e *Env) Manager(name string, obj pm.Objective) (pm.Manager, error) {
	switch name {
	case pm.NameFoxton:
		return pm.NewFoxton(), nil
	case pm.NameLinOpt:
		return pm.LinOpt{FitPoints: 3, Objective: obj}, nil
	case pm.NameSAnn:
		return pm.SAnn{MaxEvals: e.SAnnEvals, Objective: obj}, nil
	case pm.NameExhaustive:
		return pm.Exhaustive{Objective: obj}, nil
	case pm.NameOracle:
		return pm.Exhaustive{UseTrueIPC: true, Objective: obj}, nil
	default:
		return nil, fmt.Errorf("experiments: unknown manager %q", name)
	}
}
