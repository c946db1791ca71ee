// Package core is the runtime that ties the repository together: a System
// owns one characterised chip, a scheduling policy, and (optionally) a
// power manager, and executes the paper's Figure 2 timeline — the OS
// re-schedules threads every OS interval, the power manager re-solves the
// per-core (V, f) assignment every DVFS interval, and the chip model
// integrates instructions, power, and temperature in between.
//
// The same tick loop carries the optional scenario stages: thermal
// transients (TransientThermal), a thermal-emergency governor clamping the
// voltage ladder (EmergencyC/RecoverC), migration stalls
// (MigrationPenaltyMS) and phase start offsets (StartOffsetsMS).
package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"slices"
	"time"

	"vasched/internal/chip"
	"vasched/internal/cpusim"
	"vasched/internal/metrics"
	"vasched/internal/pm"
	"vasched/internal/sched"
	"vasched/internal/sensors"
	"vasched/internal/stats"
	"vasched/internal/trace"
	"vasched/internal/wearout"
	"vasched/internal/workload"
)

// Mode selects the CMP configuration of the paper's Table 2.
type Mode int

// The three evaluated configurations.
const (
	// ModeUniFreq: all cores cycle at the slowest core's frequency, no
	// DVFS (Section 4.1).
	ModeUniFreq Mode = iota
	// ModeNUniFreq: each core at its own maximum frequency, no DVFS
	// (Section 4.2).
	ModeNUniFreq
	// ModeDVFS: non-uniform frequency with per-core DVFS under a power
	// budget (Section 4.3).
	ModeDVFS
)

// String names the configuration as in Table 2.
func (m Mode) String() string {
	switch m {
	case ModeUniFreq:
		return "UniFreq"
	case ModeNUniFreq:
		return "NUniFreq"
	case ModeDVFS:
		return "NUniFreq+DVFS"
	default:
		return fmt.Sprintf("Mode(%d)", int(m))
	}
}

// Config assembles a System.
type Config struct {
	// Chip is the characterised die and CPU the calibrated core model.
	Chip *chip.Chip
	CPU  *cpusim.Model
	// Scheduler places threads on cores.
	Scheduler sched.Policy
	// Mode selects the Table 2 configuration.
	Mode Mode
	// Manager chooses (V, f) points; required in ModeDVFS, ignored
	// otherwise.
	Manager pm.Manager
	// Budget is the power envelope for ModeDVFS.
	Budget pm.Budget
	// OSIntervalMS and DVFSIntervalMS set the Figure 2 cadence. Defaults:
	// 100 ms and 10 ms.
	OSIntervalMS   float64
	DVFSIntervalMS float64
	// SampleIntervalMS is the tick: the simulated time one step of the
	// timeline advances, which is also the power-monitor sampling cadence
	// of the Figure 14 deviation statistic. Default: 1 ms.
	SampleIntervalMS float64
	// WarmupMS excludes an initial transient from the reported statistics:
	// the timeline still executes (temperatures settle, the first DVFS
	// decisions take effect) but accumulators and the deviation tracker
	// only start recording afterwards.
	WarmupMS float64
	// CaptureTrace records one TracePoint per monitor sample in
	// RunStats.Trace (costs memory proportional to duration/sample).
	CaptureTrace bool
	// TransientThermal switches the per-sample thermal evaluation from
	// steady-state (the default, matching the recorded experiments) to
	// time-stepped RC integration with thermal inertia. Activity-
	// migration policies (TempAware) only show their benefit with inertia
	// modelled: a migrated-to core heats up over tens of milliseconds
	// instead of instantly.
	TransientThermal bool
	// EmergencyC, when positive, arms a thermal-emergency governor
	// (pm.ThrottleGovernor): a tick whose hottest block exceeds EmergencyC
	// clamps every core one more ladder level below the top, and a tick
	// below RecoverC releases one level. The clamp caps the level the mode
	// chooses and never goes below a core's lowest feasible level. Zero
	// disables the governor.
	EmergencyC float64
	RecoverC   float64
	// MigrationPenaltyMS is the stall charged to a thread each time the
	// scheduler moves it to a different core (cold caches, state
	// transfer). The thread burns power but retires no instructions for
	// this long after a migration.
	MigrationPenaltyMS float64
	// StartOffsetsMS, when non-nil, gives each thread a head start into
	// its phase cycle (len must equal the thread count). Progress and
	// instruction counts still start at zero.
	StartOffsetsMS []float64
	// VTransitionUSPerStep is the time in microseconds a core stalls per
	// voltage-ladder step it moves at a DVFS decision. The paper
	// conservatively assumes the transition speeds of Xscale-era systems
	// (tens of microseconds per step, supplied by off-chip regulators);
	// fast on-chip regulators (Kim et al., cited in the paper) make this
	// ~0. Default 0.
	VTransitionUSPerStep float64
	// SensorNoise is the relative sigma of sensor measurements.
	SensorNoise float64
	// Seed drives every stochastic choice (random scheduling, profiling
	// core selection, SAnn).
	Seed int64
	// DecideHist, when non-nil, receives one Observe(seconds) per
	// Manager.Decide call, so services running experiments (cmd/vaschedd)
	// can export decision-latency distributions without touching the
	// aggregate DecideTime/DecideCount statistics.
	DecideHist *metrics.LatencyHist
	// Ctx, when non-nil, carries tracing state: spans opened by the power
	// manager, and a governed run's per-tick dynamic.step spans, nest
	// under the caller's span. It is observability-only: the simulation
	// ignores cancellation.
	Ctx context.Context
}

func (c *Config) setDefaults() {
	if c.OSIntervalMS <= 0 {
		c.OSIntervalMS = 100
	}
	if c.DVFSIntervalMS <= 0 {
		c.DVFSIntervalMS = 10
	}
	if c.SampleIntervalMS <= 0 {
		c.SampleIntervalMS = 1
	}
}

// Validate reports configuration errors.
func (c *Config) Validate() error {
	if c.Chip == nil || c.CPU == nil {
		return errors.New("core: Chip and CPU are required")
	}
	if c.Scheduler == nil {
		return errors.New("core: Scheduler is required")
	}
	// NaN passes every ordered comparison below, and +Inf durations never
	// end: a non-finite interval would silently stop re-mapping or DVFS
	// after the first tick, and a NaN threshold disarm the governor.
	for _, f := range []struct {
		name string
		v    float64
	}{
		{"OSIntervalMS", c.OSIntervalMS},
		{"DVFSIntervalMS", c.DVFSIntervalMS},
		{"SampleIntervalMS", c.SampleIntervalMS},
		{"WarmupMS", c.WarmupMS},
		{"EmergencyC", c.EmergencyC},
		{"RecoverC", c.RecoverC},
		{"MigrationPenaltyMS", c.MigrationPenaltyMS},
		{"VTransitionUSPerStep", c.VTransitionUSPerStep},
		{"SensorNoise", c.SensorNoise},
	} {
		if math.IsNaN(f.v) || math.IsInf(f.v, 0) {
			return fmt.Errorf("core: %s %v is not finite", f.name, f.v)
		}
	}
	for i, off := range c.StartOffsetsMS {
		if math.IsNaN(off) || math.IsInf(off, 0) {
			return fmt.Errorf("core: StartOffsetsMS[%d] %v is not finite", i, off)
		}
	}
	if c.Mode == ModeDVFS {
		if c.Manager == nil {
			return errors.New("core: ModeDVFS requires a power manager")
		}
		if !(c.Budget.PTargetW > 0) || !(c.Budget.PCoreMaxW > 0) {
			return fmt.Errorf("core: ModeDVFS requires a positive budget, got %+v", c.Budget)
		}
	}
	if c.EmergencyC < 0 {
		return fmt.Errorf("core: negative emergency threshold %.1fC", c.EmergencyC)
	}
	if c.RecoverC > c.EmergencyC {
		return fmt.Errorf("core: recover threshold %.1fC above emergency %.1fC", c.RecoverC, c.EmergencyC)
	}
	if c.MigrationPenaltyMS < 0 {
		return fmt.Errorf("core: negative migration penalty %v", c.MigrationPenaltyMS)
	}
	return nil
}

// TracePoint is one monitor sample of a captured run.
type TracePoint struct {
	// TimeMS is the sample's simulated time.
	TimeMS float64
	// PowerW and MIPS are the instantaneous chip power and throughput.
	PowerW float64
	MIPS   float64
	// MaxTempC is the hottest block temperature at the sample.
	MaxTempC float64
}

// RunStats aggregates one run.
type RunStats struct {
	// DurationMS is the simulated time and Steps the tick count.
	DurationMS float64
	Steps      int
	// AvgPowerW/AvgDynW/AvgStatW are time-averaged chip powers.
	AvgPowerW, AvgDynW, AvgStatW float64
	// MIPS is the time-averaged total throughput.
	MIPS float64
	// WeightedTP is the time-averaged weighted throughput (one unit per
	// thread running at its reference speed).
	WeightedTP float64
	// AvgActiveFreqHz is the time- and thread-averaged core frequency.
	AvgActiveFreqHz float64
	// MaxTempC is the hottest block temperature seen; FinalMaxTempC the
	// hottest at the last tick (the transient state the run ends in).
	MaxTempC      float64
	FinalMaxTempC float64
	// EDSquared is AvgPowerW / MIPS^3 (proportional to true ED^2 at fixed
	// work; see metrics.EDSquared).
	EDSquared float64
	// PowerDeviationPct is the Figure 14 statistic: mean |P - Ptarget| in
	// percent over the monitor samples (0 unless ModeDVFS).
	PowerDeviationPct float64
	// Emergencies counts governor escalations and ThrottledMS the
	// simulated time spent with a non-zero clamp.
	Emergencies int
	ThrottledMS float64
	// Migrations counts threads moved between cores at OS re-schedules;
	// PhaseSwitches counts workload phase-boundary crossings observed.
	Migrations    int
	PhaseSwitches int
	// WearoutIndex is the per-die-core aging rate relative to nominal
	// operation (see package wearout); WearoutMax is its maximum — the
	// lifetime-limiting core — and EquivalentTime the per-core integrated
	// equivalent stress time (the quantity horizon runs extrapolate).
	WearoutIndex   []float64
	WearoutMax     float64
	EquivalentTime []float64
	// Instructions is per-thread executed instruction counts.
	Instructions []float64
	// DecideTime is total wall-clock time spent inside Manager.Decide,
	// and DecideCount the number of invocations (Figure 15).
	DecideTime  time.Duration
	DecideCount int
	// Trace holds per-sample points when Config.CaptureTrace is set.
	Trace []TracePoint
}

// System is a runnable CMP with scheduling and power management.
type System struct {
	cfg Config
	rng *stats.RNG
	// Set and read only by in-package tests: evalEveryTick turns off the
	// reuse of unchanged steady-state evaluations and transient dynamic
	// power, and evals counts the ticks of the last Run that evaluated
	// the chip (steady state) or assembled its dynamic power (transient).
	evalEveryTick bool
	evals         int
}

// New validates cfg and returns a System.
func New(cfg Config) (*System, error) {
	cfg.setDefaults()
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &System{cfg: cfg, rng: stats.NewRNG(cfg.Seed)}, nil
}

// evalKey is one core's share of what a steady-state chip evaluation, or
// the dynamic power of a transient tick, depends on: the thread, its
// operating point and its phase index. A powered-off core has the zero
// key.
type evalKey struct {
	app   *workload.AppProfile
	v, f  float64
	phase int
}

// Run executes the workload for the given simulated duration and returns
// aggregate statistics. The number of threads must not exceed the number
// of cores. Each tick of SampleIntervalMS runs, in order: the OS interval
// (re-profile, re-map, charge migration stalls), the DVFS interval
// (ModeDVFS only), the operating points under the governor's clamp, the
// steady-state or transient chip evaluation, progress and phase
// crossings, wearout, and the governor's look at the tick's peak
// temperature. Every tick builds the per-core (app, V, f, phase) key
// vector. A steady-state evaluation runs only on ticks where it differs
// from the last evaluated vector, otherwise the last result is reused,
// which is exact because Evaluate is a pure function of that vector. A
// transient tick always steps the thermal state, but re-assembles the
// dynamic power only on such ticks, which is exact for the same reason.
func (s *System) Run(apps []*workload.AppProfile, durationMS float64) (*RunStats, error) {
	c := s.cfg.Chip
	if len(apps) == 0 {
		return nil, errors.New("core: empty workload")
	}
	if len(apps) > c.NumCores() {
		return nil, fmt.Errorf("core: %d threads exceed %d cores", len(apps), c.NumCores())
	}
	if !(durationMS > 0) || math.IsInf(durationMS, 1) {
		return nil, fmt.Errorf("core: duration %v ms is not positive and finite", durationMS)
	}
	if s.cfg.StartOffsetsMS != nil && len(s.cfg.StartOffsetsMS) != len(apps) {
		return nil, fmt.Errorf("core: %d start offsets for %d threads", len(s.cfg.StartOffsetsMS), len(apps))
	}

	// Streams 1-4 feed sensor noise, the scheduler, the power manager and
	// the profiler. Derive consumes a parent draw, so the derivation order
	// fixes every stream. Governed runs derive the power-manager stream
	// last, and only with a manager to feed, because the thermal-emergency
	// scenarios were recorded without one: their goldens pin the profiler
	// stream that order yields.
	governed := s.cfg.EmergencyC > 0
	noise := sensors.NewNoise(s.cfg.SensorNoise, s.rng.Derive(1))
	schedRNG := s.rng.Derive(2)
	var pmRNG *stats.RNG
	if !governed {
		pmRNG = s.rng.Derive(3)
	}
	profRNG := s.rng.Derive(4)
	if governed && s.cfg.Mode == ModeDVFS {
		pmRNG = s.rng.Derive(3)
	}

	// Session-capable managers get per-run private state (simplex warm
	// starts); the shared Config value stays safe for concurrent runs.
	manager := s.cfg.Manager
	if sm, ok := manager.(pm.SessionManager); ok {
		manager = sm.NewSession()
	}
	ctx := s.cfg.Ctx
	if ctx == nil {
		ctx = context.Background()
	}

	coreInfos := sensors.CoreInfos(c)
	aging, err := wearout.NewAccumulator(wearout.DefaultParams(), c.NumCores())
	if err != nil {
		return nil, err
	}
	governor := &pm.ThrottleGovernor{TripC: s.cfg.EmergencyC, RecoverC: s.cfg.RecoverC}
	nT := len(apps)
	elapsed := make([]float64, nT)
	copy(elapsed, s.cfg.StartOffsetsMS)
	instructions := make([]float64, nT)
	refIPS := make([]float64, nT)
	phaseIdx := make([]int, nT)
	for i, a := range apps {
		ipc, err := s.cfg.CPU.SteadyIPC(a, c.Tech.FNominalHz)
		if err != nil {
			return nil, err
		}
		refIPS[i] = ipc * c.Tech.FNominalHz
		phaseIdx[i], _ = a.PhaseIndexAt(elapsed[i])
	}

	// clock[core*nl+l], read on every tick, is the frequency core runs
	// at on ladder level l: its rated frequency there. UniFreq cores
	// share one clock: it runs at the slowest core's rated frequency at
	// the common supply, and the governor's clamp stops at the highest of
	// the cores' lowest feasible levels.
	vTop, nl := len(c.Levels)-1, len(c.Levels)
	clock := make([]float64, c.NumCores()*nl)
	for core := 0; core < c.NumCores(); core++ {
		for l, v := range c.Levels {
			clock[core*nl+l] = c.FmaxAt(core, v)
		}
	}
	uniFloor := 0
	if s.cfg.Mode == ModeUniFreq {
		for l := range c.Levels {
			uni := clock[l]
			for core := 1; core < c.NumCores(); core++ {
				uni = min(uni, clock[core*nl+l])
			}
			for core := 0; core < c.NumCores(); core++ {
				clock[core*nl+l] = uni
			}
		}
		for core := 0; core < c.NumCores(); core++ {
			uniFloor = max(uniFloor, c.MinLevelIndex(core))
		}
	}

	var (
		powerAcc, dynAcc, statAcc, mipsAcc, wtpAcc, freqAcc metrics.Accumulator
		deviation                                           = metrics.NewDeviationTracker(s.cfg.Budget.PTargetW)
	)
	out := &RunStats{DurationMS: durationMS, Instructions: instructions}

	// Per-tick buffers: apart from OS intervals, DVFS decisions,
	// steady-state evaluations at a changed operating point and the trace
	// spans of a traced run, the loop allocates nothing. transient owns
	// the thermal state, the dynamic power and the result of a transient
	// run. keys is this tick's (app, V, f, phase) vector and evalKeys the
	// one the chip last evaluated or assembled.
	var assignment sched.Assignment
	var lastEval *chip.EvalResult
	var transient *chip.TransientState
	if s.cfg.TransientThermal {
		transient = c.NewTransientState()
	}
	keys := make([]evalKey, c.NumCores())
	evalKeys := make([]evalKey, c.NumCores())
	s.evals = 0
	levels := make([]int, nT) // ladder levels the mode chose (DVFS decisions)
	stallMS := make([]float64, nT)
	states := c.OffStates()
	ipcs := make([]float64, nT)
	freqs := make([]float64, nT)
	coreVolts := make([]float64, c.NumCores())
	depth := 0 // the governor's clamp in ladder levels
	// The managers' view of the chip, refilled in place at every DVFS
	// interval; Decide only reads it.
	snap := new(pm.Snapshot)

	// Only governed runs open a span per tick, with migration and
	// emergency events under it, as the recorded dynamic scenarios do: a
	// span per tick of every Fig. 2 timeline would overflow a 1024-span
	// trace ring such as the timeline-dvfs benchmark's. Their attributes
	// are built only with a tracer attached, so an untraced run formats
	// nothing. The deferred End closes a tick span left open by an error
	// return.
	traced := governed && trace.FromContext(ctx) != nil
	var sp *trace.ActiveSpan
	defer func() { sp.End() }()

	now := 0.0
	nextOS := 0.0
	nextDVFS := 0.0
	for now < durationMS-1e-9 {
		dt := s.cfg.SampleIntervalMS
		if rem := durationMS - now; dt > rem {
			dt = rem
		}
		tickCtx := ctx
		if traced {
			tickCtx, sp = trace.Start(ctx, "dynamic.step",
				trace.Int("tick", out.Steps), trace.Int("depth", depth))
		}

		// OS scheduling interval: re-profile and re-map threads.
		if now >= nextOS-1e-9 {
			// Expose current sensor temperatures to temperature-aware
			// policies; a cold chip reads ambient.
			for i := range coreInfos {
				if lastEval != nil {
					coreInfos[i].TempC = lastEval.CoreTempC[i]
				} else {
					coreInfos[i].TempC = c.Therm.Config().AmbientC
				}
			}
			threadInfos, err := sensors.ProfileThreads(c, s.cfg.CPU, apps, elapsed, noise, profRNG)
			if err != nil {
				return nil, err
			}
			next, err := s.cfg.Scheduler.Assign(coreInfos, threadInfos, schedRNG)
			if err != nil {
				return nil, err
			}
			if err := next.Validate(c.NumCores()); err != nil {
				return nil, err
			}
			moved := 0
			for t := range assignment {
				if next[t] != assignment[t] {
					moved++
					stallMS[t] += s.cfg.MigrationPenaltyMS
				}
			}
			out.Migrations += moved
			if traced && moved > 0 {
				trace.Event(tickCtx, "dynamic.migrate", trace.Int("threads", moved))
			}
			assignment = next
			nextOS += s.cfg.OSIntervalMS
			// A re-map invalidates the previous DVFS decision.
			for i := range levels {
				levels[i] = vTop
			}
			nextDVFS = now
		}

		// DVFS interval: re-solve the (V, f) assignment.
		if s.cfg.Mode == ModeDVFS && now >= nextDVFS-1e-9 {
			if err := s.fillSnapshot(snap, apps, assignment, elapsed, levels, lastEval, noise); err != nil {
				return nil, err
			}
			start := time.Now()
			lv, err := manager.Decide(tickCtx, snap, s.cfg.Budget, pmRNG)
			d := time.Since(start)
			out.DecideTime += d
			out.DecideCount++
			if s.cfg.DecideHist != nil {
				s.cfg.DecideHist.Observe(d.Seconds())
			}
			if err != nil {
				return nil, err
			}
			if s.cfg.VTransitionUSPerStep > 0 {
				for t := range levels {
					steps := lv[t] - levels[t]
					if steps < 0 {
						steps = -steps
					}
					stallMS[t] += float64(steps) * s.cfg.VTransitionUSPerStep / 1000
				}
			}
			copy(levels, lv)
			nextDVFS += s.cfg.DVFSIntervalMS
		}

		// Operating points: the mode's ladder level, capped by the
		// governor's clamp but never below a feasible level. phaseIdx[t]
		// is the phase index at elapsed[t], which the progress loop keeps
		// current.
		clear(states)
		clear(keys)
		for t, app := range apps {
			coreID := assignment[t]
			lvl := levels[t]
			if limit := vTop - depth; lvl > limit {
				lvl = max(limit, c.MinLevelIndex(coreID), uniFloor)
			}
			v, f := c.Levels[lvl], clock[coreID*nl+lvl]
			states[coreID] = chip.CoreState{App: app, V: v, F: f, ElapsedMS: elapsed[t]}
			keys[coreID] = evalKey{app: app, v: v, f: f, phase: phaseIdx[t]}
			freqs[t] = f
		}
		// Evaluate and the dynamic-power half of a transient tick are pure
		// functions of the (app, V, f, phase) vector: the fixed point
		// restarts from the same warm start on every call, neither draws
		// random numbers, and cpusim's IPC is stateless. While the vector
		// repeats, lastEval is what Evaluate would return, and the
		// transient state already holds what Assemble would compute, bit
		// for bit. A steady-state result is shared across ticks and must
		// stay read-only: progress, wearout, the governor, the
		// accumulators, the scheduler's temperatures and fillSnapshot
		// only read it.
		changed := lastEval == nil || s.evalEveryTick || !slices.Equal(keys, evalKeys)
		if changed {
			copy(evalKeys, keys)
			s.evals++
		}
		var res *chip.EvalResult
		switch {
		case transient != nil:
			if changed {
				err = transient.Assemble(states, s.cfg.CPU)
			}
			if err == nil {
				res, err = transient.Step(states, dt)
			}
		case changed:
			res, err = c.Evaluate(states, s.cfg.CPU)
		default:
			res = lastEval
		}
		if err != nil {
			return nil, err
		}
		lastEval = res

		// Progress, stalls and phase crossings.
		for t, app := range apps {
			ipcs[t] = res.CoreIPC[assignment[t]]
			// Stalls (voltage transitions, migrations) burn a share of
			// this sample without retiring instructions.
			if stallMS[t] > 0 {
				stall := stallMS[t]
				if stall > dt {
					stall = dt
				}
				stallMS[t] -= stall
				ipcs[t] *= 1 - stall/dt
			}
			instructions[t] += ipcs[t] * freqs[t] * dt / 1000
			elapsed[t] += dt
			if idx, _ := app.PhaseIndexAt(elapsed[t]); idx != phaseIdx[t] {
				phaseIdx[t] = idx
				out.PhaseSwitches++
			}
		}
		for core := range coreVolts {
			coreVolts[core] = states[core].V // 0 when powered off
		}
		if err := aging.Add(res.CoreTempC, coreVolts, dt); err != nil {
			return nil, err
		}
		mt := c.Therm.MaxTemp(res.BlockTempC)
		mips := metrics.MIPS(ipcs, freqs)
		if s.cfg.CaptureTrace {
			out.Trace = append(out.Trace, TracePoint{TimeMS: now, PowerW: res.TotalW, MIPS: mips, MaxTempC: mt})
		}

		// Thermal emergency governor: observe this tick's peak, adjust the
		// clamp for the next.
		out.FinalMaxTempC = mt
		if governed {
			newDepth, tripped := governor.Observe(mt, vTop)
			if tripped && traced {
				trace.Event(tickCtx, "dynamic.emergency",
					trace.Int("depth", newDepth), trace.String("maxC", fmt.Sprintf("%.1f", mt)))
			}
			depth = newDepth
			if depth > 0 {
				out.ThrottledMS += dt
			}
		}

		if now+dt > s.cfg.WarmupMS {
			wtp, err := metrics.WeightedThroughput(ipcs, freqs, refIPS)
			if err != nil {
				return nil, err
			}
			powerAcc.Add(res.TotalW, dt)
			dynAcc.Add(res.DynW, dt)
			statAcc.Add(res.StaticW, dt)
			mipsAcc.Add(mips, dt)
			wtpAcc.Add(wtp, dt)
			freqAcc.Add(stats.Mean(freqs), dt)
			if s.cfg.Mode == ModeDVFS {
				deviation.Sample(res.TotalW)
			}
			out.MaxTempC = max(out.MaxTempC, mt)
		}
		sp.End()
		out.Steps++
		now += dt
	}

	out.AvgPowerW = powerAcc.Mean()
	out.AvgDynW = dynAcc.Mean()
	out.AvgStatW = statAcc.Mean()
	out.MIPS = mipsAcc.Mean()
	out.WeightedTP = wtpAcc.Mean()
	out.AvgActiveFreqHz = freqAcc.Mean()
	out.PowerDeviationPct = deviation.MeanPct()
	out.Emergencies = governor.Emergencies()
	out.WearoutIndex = aging.Index()
	out.WearoutMax = aging.Max()
	out.EquivalentTime = aging.EquivalentTime()
	out.EDSquared = metrics.EDSquared(out.AvgPowerW, out.MIPS)
	return out, nil
}
