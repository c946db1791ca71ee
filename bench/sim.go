package main

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"hash"
	"math"
	"sync"
	"syscall"
	"time"

	"vasched/internal/chip"
	"vasched/internal/core"
	"vasched/internal/cpusim"
	"vasched/internal/delay"
	"vasched/internal/dynamic"
	"vasched/internal/farm"
	"vasched/internal/floorplan"
	"vasched/internal/pm"
	"vasched/internal/power"
	"vasched/internal/sched"
	"vasched/internal/stats"
	"vasched/internal/thermal"
	"vasched/internal/trace"
	"vasched/internal/varmodel"
	"vasched/internal/workload"
)

// workers is the farm width of the simulator workloads: the benchmark host
// has two CPUs.
const workers = 2

// maxUnits caps the unit index space of one measured run, far above what
// a minute of measuring reaches.
const maxUnits = 1 << 14

// simEnv is the set-up the simulator workloads share: the paper's variation
// model, floorplan and calibration (Table 4), and the dies characterised
// before measuring starts.
type simEnv struct {
	gen   *varmodel.Generator
	fp    *floorplan.Floorplan
	dcfg  delay.Config
	power power.Model
	therm thermal.Config
	cpu   *cpusim.Model
	apps  []*workload.AppProfile
	dies  []*chip.Chip
}

// newSimEnv prepares the generator and the core model, then generates and
// characterises dies 0..n-1 of the given batch.
func newSimEnv(batchSeed int64, n int) (*simEnv, error) {
	vc := varmodel.DefaultConfig()
	gen, err := varmodel.NewGenerator(vc)
	if err != nil {
		return nil, err
	}
	apps := workload.SPEC()
	cpu, err := cpusim.New(cpusim.DefaultCoreConfig(), apps)
	if err != nil {
		return nil, err
	}
	env := &simEnv{
		gen:   gen,
		fp:    floorplan.New20CoreCMP(),
		dcfg:  delay.DefaultConfig(),
		power: power.DefaultModel(vc.Tech),
		therm: thermal.DefaultConfig(),
		cpu:   cpu,
		apps:  apps,
	}
	for k := 0; k < n; k++ {
		c, err := env.build(batchSeed, k)
		if err != nil {
			return nil, err
		}
		env.dies = append(env.dies, c)
	}
	return env, nil
}

// build generates and characterises one die.
func (e *simEnv) build(batchSeed int64, k int) (*chip.Chip, error) {
	maps, err := e.gen.Die(batchSeed, k)
	if err != nil {
		return nil, err
	}
	return chip.Build(maps, e.fp, e.dcfg, e.power, e.therm)
}

// simSpec describes one simulator workload.
type simSpec struct {
	// dies is how many dies set-up characterises; at least one, so that
	// the generator's and the thermal model's lazy state exists before
	// measuring starts.
	dies int
	// round is the number of units that make up one balanced round; a run
	// measures whole rounds only.
	round int
	// check lists the units whose outputs form the recorded digest. They
	// all lie in the first round, which every run completes.
	check []int
	// work is the work a unit does, in the unit of work_per_s: dies, or
	// simulated milliseconds.
	work float64
	// capacity sizes each unit's tracer so that no span is dropped.
	capacity int
	// unit runs unit i. It returns a function that hashes the outputs and
	// checks their invariants, which the runner calls outside the timing.
	unit func(ctx context.Context, env *simEnv, seed int64, i int) (checker, error)
}

// checker hashes a unit's outputs into h and returns the first invariant
// the outputs violate, or "".
type checker func(h *hasher) string

// unitOut is one unit's outcome.
type unitOut struct {
	// dur is the time of the unit's calls into the program; task adds the
	// hashing and checking around them.
	dur, task time.Duration
	digest    []byte
	problem   string
}

// hasher digests simulated outputs bit-exactly.
type hasher struct {
	h         hash.Hash
	nonFinite bool
}

func newHasher() *hasher { return &hasher{h: sha256.New()} }

// f adds values by their IEEE-754 bits and notes any NaN or infinity.
func (h *hasher) f(vs ...float64) {
	var b [8]byte
	for _, v := range vs {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			h.nonFinite = true
		}
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
		h.h.Write(b[:])
	}
}

// i adds integers.
func (h *hasher) i(vs ...int) {
	for _, v := range vs {
		h.f(float64(v))
	}
}

// doUnit runs one unit, traced into its own tracer when agg is set.
func doUnit(ctx context.Context, env *simEnv, spec simSpec, seed int64, i int, agg *layerAgg) (unitOut, error) {
	var tr *trace.Tracer
	if agg != nil {
		tr = trace.New(spec.capacity)
		ctx = trace.WithTracer(ctx, tr)
	}
	start := time.Now()
	uctx, sp := trace.Start(ctx, unitSpan, trace.Int("unit", i))
	check, err := spec.unit(uctx, env, seed, i)
	sp.End()
	out := unitOut{dur: time.Since(start)}
	if err != nil {
		return out, fmt.Errorf("unit %d: %w", i, err)
	}
	h := newHasher()
	out.problem = check(h)
	if out.problem == "" && h.nonFinite {
		out.problem = "non-finite output"
	}
	out.digest = h.h.Sum(nil)
	if tr != nil {
		n := int(tr.Dropped())
		if n > 0 {
			out.problem = fmt.Sprintf("tracer dropped %d spans", n)
		}
		agg.add(tr.Snapshot(), n)
	}
	if out.problem != "" {
		out.problem = fmt.Sprintf("unit %d: %s", i, out.problem)
	}
	out.task = time.Since(start)
	return out, nil
}

// errStop ends a measured run at a round boundary.
var errStop = errors.New("deadline reached")

// measure runs units 0, 1, 2, ... on the farm until the deadline has passed
// at a round boundary: a round that has started runs to completion, so the
// mix of units a run measures is always whole rounds.
func measure(ctx context.Context, env *simEnv, spec simSpec, seed int64, deadline time.Time, agg *layerAgg) ([]unitOut, time.Duration, error) {
	var (
		mu        sync.Mutex
		outs      = make([]unitOut, maxUnits)
		lastRound = -1
		stopRound = maxUnits
	)
	start := time.Now()
	err := farm.Map(ctx, workers, maxUnits, func(ctx context.Context, i int) error {
		r := i / spec.round
		mu.Lock()
		if r > lastRound {
			// The first unit of a round to arrive decides whether the
			// round runs. Units are taken in index order, so every unit of
			// an earlier round has already been taken.
			lastRound = r
			if r > 0 && stopRound == maxUnits && time.Now().After(deadline) {
				stopRound = r
			}
		}
		stop := r >= stopRound
		mu.Unlock()
		if stop {
			return errStop
		}
		out, err := doUnit(ctx, env, spec, seed, i, agg)
		outs[i] = out
		return err
	})
	wall := time.Since(start)
	if err != nil && !errors.Is(err, errStop) {
		return nil, 0, err
	}
	return outs[:min(stopRound*spec.round, maxUnits)], wall, nil
}

// runChecks runs the check units of a seed on the farm and returns the
// digest over their outputs.
func runChecks(ctx context.Context, env *simEnv, spec simSpec, seed int64) (string, []string, error) {
	outs, err := farm.Collect(ctx, workers, len(spec.check), func(ctx context.Context, k int) (unitOut, error) {
		return doUnit(ctx, env, spec, seed, spec.check[k], nil)
	})
	if err != nil {
		return "", nil, err
	}
	return digestOf(outs), problems(outs), nil
}

// digestOf hashes the per-unit digests in order.
func digestOf(outs []unitOut) string {
	h := sha256.New()
	for _, o := range outs {
		h.Write(o.digest)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// problems lists the invariant violations of a set of units.
func problems(outs []unitOut) []string {
	var ps []string
	for _, o := range outs {
		if o.problem != "" {
			ps = append(ps, o.problem)
		}
	}
	return ps
}

// maxRSSMB is the process's peak resident set size.
func maxRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// runSim runs a simulator workload: set-up, a measured run, then the digest
// check against the recorded outputs.
func runSim(ctx context.Context, o options, name string, spec simSpec, traced bool) (*result, error) {
	start := time.Now()
	env, err := newSimEnv(o.seed, spec.dies)
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	setup := time.Since(start).Seconds()
	if o.setupOnly {
		return setupResult(name, setup), nil
	}

	var agg *layerAgg
	if traced {
		agg = newLayerAgg()
	}
	samples0 := env.gen.SampleCount()
	outs, wall, err := measure(ctx, env, spec, o.seed, time.Now().Add(o.duration()), agg)
	if err != nil {
		return nil, err
	}
	samples := env.gen.SampleCount() - samples0

	res := &result{Workload: name, Attempted: len(outs)}
	durs := make([]float64, len(outs))
	var busy time.Duration
	for k, u := range outs {
		durs[k] = ms(u.dur)
		busy += u.task
	}
	sorted := sortedCopy(durs)
	n := float64(len(outs))
	res.Metrics = map[string]float64{
		"setup_s":      setup,
		"work_per_s":   n * spec.work / wall.Seconds(),
		"unit_ms_p50":  percentile(sorted, 0.5),
		"unit_ms_tail": percentile(sorted, 0.9),
		"max_rss_mb":   maxRSSMB(),
	}
	res.addProblems(problems(outs)...)

	checked := make([]unitOut, len(spec.check))
	for k, i := range spec.check {
		checked[k] = outs[i]
	}
	res.Digest = digestOf(checked)
	if _, ok := expectedDigest(name, o.seed); ok {
		res.checkDigest(o.seed, res.Digest)
	} else {
		// No recorded outputs for this seed: check that the program still
		// computes the recorded outputs of seed 1, outside the timing.
		ref, err := newSimEnv(1, spec.dies)
		if err != nil {
			return nil, fmt.Errorf("reference set-up: %w", err)
		}
		d, ps, err := runChecks(ctx, ref, spec, 1)
		if err != nil {
			return nil, fmt.Errorf("reference units: %w", err)
		}
		res.RefDigest = d
		res.addProblems(ps...)
		res.checkDigest(1, d)
	}

	if agg != nil {
		res.Layers = map[string]float64{
			"farm.idle_frac": 1 - busy.Seconds()/(workers*wall.Seconds()),
			"trace.dropped":  float64(agg.dropped),
		}
		agg.layerMetrics(res.Layers)
		res.Layers["varmodel.samples_per_die"] = ratio(float64(samples), res.Layers["varmodel.die.calls_per_unit"]*n)
	}
	return res, nil
}

// unitSeed derives a unit's own seed: each unit draws a fresh workload mix.
func unitSeed(seed int64, i int) int64 { return seed*1_000_003 + int64(i) }

// dieSweep is the fig4/fig5 kernel at paper scale: a unit generates the die
// pair (2k, 2k+1), characterises both dies, and evaluates every SPEC
// application alone on every core at nominal supply.
var dieSweep = simSpec{
	dies:     1,
	round:    1,
	check:    []int{0},
	work:     2,
	capacity: 1024,
	unit: func(ctx context.Context, env *simEnv, seed int64, k int) (checker, error) {
		type dieOut struct {
			c     *chip.Chip
			evals []*chip.EvalResult
		}
		var dies [2]dieOut
		for d := range dies {
			_, sp := trace.Start(ctx, "varmodel.die")
			maps, err := env.gen.Die(seed, 2*k+d)
			sp.End()
			if err != nil {
				return nil, err
			}
			_, sp = trace.Start(ctx, "chip.build")
			c, err := chip.Build(maps, env.fp, env.dcfg, env.power, env.therm)
			sp.End()
			if err != nil {
				return nil, err
			}
			evals := make([]*chip.EvalResult, 0, c.NumCores()*len(env.apps))
			for core := 0; core < c.NumCores(); core++ {
				for _, app := range env.apps {
					st := c.OffStates()
					st[core] = chip.CoreState{App: app, V: c.Tech.VddNominal, F: c.FmaxNominal(core)}
					_, sp := trace.Start(ctx, "chip.evaluate")
					r, err := c.Evaluate(st, env.cpu)
					sp.End()
					if err != nil {
						return nil, err
					}
					evals = append(evals, r)
				}
			}
			dies[d] = dieOut{c, evals}
		}
		return func(h *hasher) string {
			problem := ""
			for _, d := range dies {
				for core, vfs := range d.c.VFTable {
					for _, vf := range vfs {
						h.f(vf.V, vf.F)
					}
					h.f(d.c.StaticAtLevel[core]...)
				}
				for k, r := range d.evals {
					hashEval(h, r)
					core := k / len(env.apps)
					if problem == "" && !(r.TotalW > 0 && r.CorePowerW[core] > 0 && r.CoreIPC[core] > 0 &&
						r.CoreTempC[core] >= env.therm.AmbientC) {
						problem = fmt.Sprintf("core %d evaluation out of range: %+v", core, *r)
					}
				}
			}
			return problem
		}, nil
	},
}

// hashEval adds every field of a chip evaluation.
func hashEval(h *hasher, r *chip.EvalResult) {
	h.f(r.TotalW, r.DynW, r.StaticW, r.L2PowerW)
	h.i(r.ThermalIters)
	h.f(r.CorePowerW...)
	h.f(r.CoreTempC...)
	h.f(r.CoreIPC...)
	h.f(r.BlockTempC...)
}

// The timeline-dvfs round: every thread count with every combination of
// the paper's Table 1, the most expensive units first so that the last
// round of a run leaves little idle time on the farm.
var (
	timelineThreads = []int{20, 16, 12, 8, 4}
	timelineCombos  = []struct {
		policy  sched.Policy
		manager pm.Manager
	}{
		{sched.VarFAppIPCPolicy{}, pm.SAnn{MaxEvals: 20000}},
		{sched.VarFAppIPCPolicy{}, pm.LinOpt{FitPoints: 3}},
		{sched.VarFAppIPCPolicy{}, pm.NewFoxton()},
		{sched.RandomPolicy{}, pm.NewFoxton()},
	}
)

// Figure 2 timeline of one timeline-dvfs unit.
const (
	timelineSimMS = 1000
	costPerfW     = 75 // the Cost-Performance environment's Ptarget at 20 threads
)

// timelineDVFS runs one core.System timeline in NUniFreq+DVFS mode per unit:
// 1 ms samples, 10 ms DVFS intervals, 100 ms OS intervals.
var timelineDVFS = simSpec{
	dies:     5,
	round:    len(timelineThreads) * len(timelineCombos),
	check:    []int{16, 17, 18, 19},
	work:     timelineSimMS,
	capacity: 1024,
	unit: func(ctx context.Context, env *simEnv, seed int64, i int) (checker, error) {
		j := i % (len(timelineThreads) * len(timelineCombos))
		threads := timelineThreads[j/len(timelineCombos)]
		combo := timelineCombos[j%len(timelineCombos)]
		c := env.dies[i/(len(timelineThreads)*len(timelineCombos))%len(env.dies)]
		s := unitSeed(seed, i)
		apps := workload.Mix(stats.NewRNG(s), threads)
		ctx, sp := trace.Start(ctx, "core.run")
		defer sp.End()
		sys, err := core.New(core.Config{
			Chip: c, CPU: env.cpu, Scheduler: tracedPolicy{combo.policy, ctx},
			Mode: core.ModeDVFS, Manager: combo.manager,
			Budget: pm.Budget{
				PTargetW:  costPerfW * float64(threads) / float64(c.NumCores()),
				PCoreMaxW: 2 * costPerfW / float64(c.NumCores()),
			},
			Seed: s, Ctx: ctx,
		})
		if err != nil {
			return nil, err
		}
		st, err := sys.Run(apps, timelineSimMS)
		if err != nil {
			return nil, err
		}
		return func(h *hasher) string {
			// DecideTime is host wall clock and stays out of the digest.
			h.f(st.DurationMS, st.AvgPowerW, st.AvgDynW, st.AvgStatW, st.MIPS, st.WeightedTP,
				st.AvgActiveFreqHz, st.MaxTempC, st.EDSquared, st.PowerDeviationPct, st.WearoutMax)
			h.f(st.WearoutIndex...)
			h.f(st.Instructions...)
			h.i(st.DecideCount)
			if want := timelineSimMS / 10; st.DecideCount != want {
				return fmt.Sprintf("%d DVFS decisions, want %d", st.DecideCount, want)
			}
			if !(st.MIPS > 0 && st.AvgPowerW > 0 && st.MaxTempC > env.therm.AmbientC) {
				return fmt.Sprintf("timeline statistics out of range: MIPS %v, power %v W, max %v C",
					st.MIPS, st.AvgPowerW, st.MaxTempC)
			}
			return ""
		}, nil
	},
}

// The dynamic-horizon scenario: 16 threads, a fresh epoch and two aged ones.
const (
	horizonThreads = 16
	horizonEpochMS = 3000
)

var horizonYears = []float64{3, 7}

// dynamicHorizon runs one wearout horizon per unit: backward-Euler thermal
// transients at 1 ms, OS re-mapping every 10 ms with a 5 ms migration
// penalty, and an aged re-characterisation of the die for each epoch.
var dynamicHorizon = simSpec{
	dies:     5,
	round:    1,
	check:    []int{0},
	work:     horizonEpochMS * float64(1+len(horizonYears)),
	capacity: 1 << 15,
	unit: func(ctx context.Context, env *simEnv, seed int64, i int) (checker, error) {
		c := env.dies[i%len(env.dies)]
		s := unitSeed(seed, i)
		apps := workload.Mix(stats.NewRNG(s), horizonThreads)
		ctx, sp := trace.Start(ctx, "dynamic.horizon")
		defer sp.End()
		hr, err := dynamic.RunHorizon(dynamic.HorizonConfig{
			Run: dynamic.Config{
				Chip: c, CPU: env.cpu, Scheduler: tracedPolicy{sched.VarFAppIPCPolicy{}, ctx},
				DtMS: 1, OSIntervalMS: 10, MigrationPenaltyMS: 5, Seed: s, Ctx: ctx,
			},
			DelayCfg: env.dcfg, PowerCfg: env.power, ThermalCfg: env.therm,
			Years: horizonYears,
		}, apps, horizonEpochMS)
		if err != nil {
			return nil, err
		}
		return func(h *hasher) string {
			problem := ""
			if len(hr.Epochs) != 1+len(horizonYears) {
				return fmt.Sprintf("%d epochs, want %d", len(hr.Epochs), 1+len(horizonYears))
			}
			for k, ep := range hr.Epochs {
				r := ep.Result
				h.f(ep.Years, ep.DVthMaxV, ep.MinFmaxHz)
				h.f(r.DurationMS, r.AvgPowerW, r.MIPS, r.WeightedTP, r.MaxTempC, r.FinalMaxTempC,
					r.ThrottledMS, r.WearoutMax)
				h.i(r.Steps, r.Emergencies, r.Migrations, r.PhaseSwitches)
				h.f(r.Instructions...)
				h.f(r.WearoutIndex...)
				h.f(r.EquivalentTime...)
				switch {
				case problem != "":
				case r.Steps != horizonEpochMS:
					problem = fmt.Sprintf("epoch %d ran %d steps, want %d", k, r.Steps, horizonEpochMS)
				case !(r.MIPS > 0 && r.AvgPowerW > 0):
					problem = fmt.Sprintf("epoch %d out of range: MIPS %v, power %v W", k, r.MIPS, r.AvgPowerW)
				case k > 0 && ep.MinFmaxHz > hr.Epochs[k-1].MinFmaxHz:
					problem = fmt.Sprintf("the %v-year die is faster than the %v-year die", ep.Years, hr.Epochs[k-1].Years)
				}
			}
			return problem
		}, nil
	},
}

// tracedPolicy opens a sched.assign span around every Assign. Policies take
// no context, so the span's parent is the context the wrapper was built
// with rather than the caller's current span.
type tracedPolicy struct {
	sched.Policy
	ctx context.Context
}

// Assign implements sched.Policy.
func (p tracedPolicy) Assign(cores []sched.CoreInfo, threads []sched.ThreadInfo, rng *stats.RNG) (sched.Assignment, error) {
	_, sp := trace.Start(p.ctx, "sched.assign")
	defer sp.End()
	return p.Policy.Assign(cores, threads, rng)
}
