package vasched

import (
	"errors"
	"fmt"

	"vasched/internal/chip"
	"vasched/internal/core"
	"vasched/internal/cpusim"
	"vasched/internal/delay"
	"vasched/internal/dynamic"
	"vasched/internal/floorplan"
	"vasched/internal/metrics"
	"vasched/internal/pm"
	"vasched/internal/power"
	"vasched/internal/sched"
	"vasched/internal/thermal"
	"vasched/internal/varmodel"
	"vasched/internal/workload"
)

// Options configures the manufactured die a Platform models.
type Options struct {
	// Cores is the number of cores on the CMP (the paper evaluates 20).
	Cores int
	// DieAreaMM2 is the die area (the paper's die is 340 mm^2).
	DieAreaMM2 float64
	// VthSigmaOverMu is the total threshold-voltage variation intensity
	// (sigma/mu); the paper sweeps 0.03-0.12 and defaults to 0.12.
	VthSigmaOverMu float64
	// SystematicFraction is the share of variation *variance* that is
	// spatially correlated (0.5 in the paper).
	SystematicFraction float64
	// Phi is the spatial-correlation range as a fraction of chip width
	// (0.5 in the paper).
	Phi float64
	// GridSize is the variation-map resolution per dimension.
	GridSize int
	// DieIndex selects which die of the statistical batch to build;
	// different indices are independent manufacturing outcomes. It must
	// lie in [0, 1_000_003).
	DieIndex int
	// Seed drives all randomness (die generation and runtime decisions).
	Seed int64
	// SensorNoise is the relative sigma of runtime sensor measurements
	// (0 = ideal sensors).
	SensorNoise float64
}

// DefaultOptions returns the paper's Table 4 configuration.
func DefaultOptions() Options {
	return Options{
		Cores:              20,
		DieAreaMM2:         340,
		VthSigmaOverMu:     0.12,
		SystematicFraction: 0.5,
		Phi:                0.5,
		GridSize:           256,
		DieIndex:           0,
		Seed:               1,
	}
}

// Platform is one manufactured, characterised CMP die plus the calibrated
// core performance model — everything needed to build runnable Systems.
type Platform struct {
	opt  Options
	chip *chip.Chip
	cpu  *cpusim.Model
	// The calibration the die was characterised with, kept so wearout
	// horizons can re-characterise drifted variants of the same die.
	dcfg delay.Config
	pcfg power.Model
	tcfg thermal.Config
}

// NewPlatform generates the variation maps for the selected die,
// characterises every core (maximum frequencies, V/f tables, static power)
// and calibrates the core model against the paper's Table 5 workloads.
func NewPlatform(opt Options) (*Platform, error) {
	if opt.Cores <= 0 {
		return nil, fmt.Errorf("vasched: invalid core count %d", opt.Cores)
	}
	if opt.DieAreaMM2 <= 0 {
		return nil, fmt.Errorf("vasched: invalid die area %v", opt.DieAreaMM2)
	}
	vcfg := varmodel.DefaultConfig()
	vcfg.VthSigmaOverMu = opt.VthSigmaOverMu
	vcfg.SystematicFraction = opt.SystematicFraction
	vcfg.Phi = opt.Phi
	if opt.GridSize > 0 {
		vcfg.GridRows, vcfg.GridCols = opt.GridSize, opt.GridSize
	}
	if err := vcfg.Validate(); err != nil {
		return nil, err
	}
	gen, err := varmodel.NewGenerator(vcfg)
	if err != nil {
		return nil, err
	}
	maps, err := gen.Die(opt.Seed, opt.DieIndex)
	if err != nil {
		return nil, err
	}
	fp := floorplan.NewCMP(opt.Cores, opt.DieAreaMM2)
	dcfg, pcfg, tcfg := delay.DefaultConfig(), power.DefaultModel(vcfg.Tech), thermal.DefaultConfig()
	c, err := chip.Build(maps, fp, dcfg, pcfg, tcfg)
	if err != nil {
		return nil, err
	}
	cpu, err := cpusim.New(cpusim.DefaultCoreConfig(), workload.SPEC())
	if err != nil {
		return nil, err
	}
	return &Platform{opt: opt, chip: c, cpu: cpu, dcfg: dcfg, pcfg: pcfg, tcfg: tcfg}, nil
}

// NumCores returns the platform's core count.
func (p *Platform) NumCores() int { return p.chip.NumCores() }

// CoreFmaxGHz returns a core's rated maximum frequency at the nominal
// supply, in GHz. Cores differ because of process variation.
func (p *Platform) CoreFmaxGHz(core int) float64 {
	return p.chip.FmaxNominal(core) / 1e9
}

// CoreStaticPowerW returns a core's manufacturer-measured static power at
// the maximum voltage — the VarP scheduling key.
func (p *Platform) CoreStaticPowerW(core int) float64 {
	return p.chip.StaticAtLevel[core][len(p.chip.Levels)-1]
}

// VoltageLevels returns the DVFS ladder shared by all cores.
func (p *Platform) VoltageLevels() []float64 {
	return append([]float64(nil), p.chip.Levels...)
}

// SPECApps lists the names of the built-in application pool (the paper's
// 14 SPEC CPU2000 workloads, Table 5).
func SPECApps() []string {
	pool := workload.SPEC()
	names := make([]string, len(pool))
	for i, a := range pool {
		names[i] = a.Name
	}
	return names
}

// Scheduler and manager names accepted by SystemConfig, matching the
// paper's Table 1.
const (
	SchedRandom     = sched.NameRandom
	SchedVarP       = sched.NameVarP
	SchedVarPAppP   = sched.NameVarPAppP
	SchedVarF       = sched.NameVarF
	SchedVarFAppIPC = sched.NameVarFAppIPC
	// SchedTempAware maps hot threads onto currently cool cores (this
	// repository's implementation of the paper's first future-work item).
	SchedTempAware = sched.NameTempAware

	ManagerFoxton     = pm.NameFoxton
	ManagerLinOpt     = pm.NameLinOpt
	ManagerSAnn       = pm.NameSAnn
	ManagerExhaustive = pm.NameExhaustive
)

// Mode names accepted by SystemConfig (the paper's Table 2).
const (
	ModeUniFreq  = "UniFreq"
	ModeNUniFreq = "NUniFreq"
	ModeDVFS     = "NUniFreq+DVFS"
)

// SystemConfig selects the scheduling and power-management configuration.
type SystemConfig struct {
	// Scheduler is one of the Sched* names; default Random.
	Scheduler string
	// Mode is one of the Mode* names; default NUniFreq.
	Mode string
	// Manager (Manager* names) and the budget are required in ModeDVFS.
	Manager   string
	PTargetW  float64
	PCoreMaxW float64
	// WeightedObjective makes the optimising managers maximise weighted
	// throughput instead of raw MIPS (the paper's Figure 13).
	WeightedObjective bool
	// OSIntervalMS and DVFSIntervalMS override the Figure 2 cadence
	// (defaults 100 ms and 10 ms).
	OSIntervalMS   float64
	DVFSIntervalMS float64
	// TransientThermal models per-block thermal inertia (RC time
	// stepping) instead of per-sample steady state. Needed for
	// migration-based policies such as SchedTempAware to show their
	// thermal benefit.
	TransientThermal bool
	// WarmupMS excludes an initial transient (cold caches, cold silicon)
	// from the reported statistics; the timeline still executes.
	WarmupMS float64
	// CaptureTrace records a per-sample time series in Stats.Trace.
	CaptureTrace bool
}

// System is a runnable CMP with a scheduler and (optionally) a power
// manager attached.
type System struct {
	sys *core.System
}

// NewSystem assembles a System on this platform.
func (p *Platform) NewSystem(cfg SystemConfig) (*System, error) {
	if cfg.Scheduler == "" {
		cfg.Scheduler = SchedRandom
	}
	policy, err := sched.New(cfg.Scheduler)
	if err != nil {
		return nil, err
	}
	var mode core.Mode
	switch cfg.Mode {
	case "", ModeNUniFreq:
		mode = core.ModeNUniFreq
	case ModeUniFreq:
		mode = core.ModeUniFreq
	case ModeDVFS:
		mode = core.ModeDVFS
	default:
		return nil, fmt.Errorf("vasched: unknown mode %q", cfg.Mode)
	}
	var mgr pm.Manager
	if mode == core.ModeDVFS {
		obj := pm.ObjMIPS
		if cfg.WeightedObjective {
			obj = pm.ObjWeighted
		}
		switch cfg.Manager {
		case ManagerFoxton:
			mgr = pm.NewFoxton()
		case ManagerLinOpt, "":
			mgr = pm.LinOpt{FitPoints: 3, Objective: obj}
		case ManagerSAnn:
			mgr = pm.SAnn{Objective: obj}
		case ManagerExhaustive:
			mgr = pm.Exhaustive{Objective: obj}
		default:
			return nil, fmt.Errorf("vasched: unknown power manager %q", cfg.Manager)
		}
		if cfg.PTargetW <= 0 {
			return nil, errors.New("vasched: NUniFreq+DVFS requires PTargetW")
		}
		if cfg.PCoreMaxW <= 0 {
			// Default per-core cap: twice the per-core share of the
			// budget, as the experiments use.
			cfg.PCoreMaxW = 2 * cfg.PTargetW / float64(p.NumCores())
		}
	}
	sys, err := core.New(core.Config{
		Chip:             p.chip,
		CPU:              p.cpu,
		Scheduler:        policy,
		Mode:             mode,
		Manager:          mgr,
		Budget:           pm.Budget{PTargetW: cfg.PTargetW, PCoreMaxW: cfg.PCoreMaxW},
		OSIntervalMS:     cfg.OSIntervalMS,
		DVFSIntervalMS:   cfg.DVFSIntervalMS,
		TransientThermal: cfg.TransientThermal,
		WarmupMS:         cfg.WarmupMS,
		CaptureTrace:     cfg.CaptureTrace,
		SensorNoise:      p.opt.SensorNoise,
		Seed:             p.opt.Seed,
	})
	if err != nil {
		return nil, err
	}
	return &System{sys: sys}, nil
}

// TracePoint is one captured monitor sample.
type TracePoint struct {
	TimeMS   float64
	PowerW   float64
	MIPS     float64
	MaxTempC float64
}

// Sparkline renders a series extracted from a trace as a compact unicode
// strip chart of the given width.
func Sparkline(trace []TracePoint, metric func(TracePoint) float64, width int) string {
	values := make([]float64, len(trace))
	for i, p := range trace {
		values[i] = metric(p)
	}
	return metrics.Sparkline(values, width)
}

// Stats summarises one run.
type Stats struct {
	// DurationMS is the simulated time.
	DurationMS float64
	// AvgPowerW, DynPowerW, StaticPowerW are time-averaged chip powers.
	AvgPowerW    float64
	DynPowerW    float64
	StaticPowerW float64
	// MIPS is the total throughput; WeightedThroughput counts each thread
	// relative to its stand-alone reference speed.
	MIPS               float64
	WeightedThroughput float64
	// EDSquared is proportional to energy*delay^2 at fixed work (lower is
	// better); use it to compare configurations, not as an absolute.
	EDSquared float64
	// AvgFrequencyGHz is the mean active-core frequency.
	AvgFrequencyGHz float64
	// MaxTempC is the hottest block temperature observed.
	MaxTempC float64
	// PowerDeviationPct is the mean |power - PTargetW| in percent (DVFS
	// mode only).
	PowerDeviationPct float64
	// WearoutMax is the aging rate of the fastest-aging core relative to
	// nominal operation (1.0 = nominal; see internal/wearout).
	WearoutMax float64
	// Trace holds the per-sample time series when
	// SystemConfig.CaptureTrace is set.
	Trace []TracePoint
	// InstructionsM is per-thread progress in millions of instructions.
	InstructionsM []float64
}

// DynamicConfig selects a time-stepped scenario (internal/dynamic). It
// runs on the same timeline engine as System.Run, with every core at its
// own maximum frequency and no power manager, and adds transient thermal
// integration, phase-shifting workloads, emergency DVFS throttling,
// migration stalls, and optional wearout horizons.
type DynamicConfig struct {
	// Scheduler is one of the Sched* names; default SchedVarFAppIPC.
	Scheduler string
	// DtMS is the thermal integration step (default 1 ms).
	DtMS float64
	// OSIntervalMS is the re-scheduling cadence (default 10 ms).
	OSIntervalMS float64
	// EmergencyC trips the thermal throttle and RecoverC releases it
	// (defaults 85 and EmergencyC-5).
	EmergencyC float64
	RecoverC   float64
	// MigrationPenaltyMS stalls a thread each time it moves cores.
	MigrationPenaltyMS float64
	// HorizonYears, when non-empty, re-runs the scenario on Vth-drifted
	// dies at each simulated age (must be positive and increasing).
	HorizonYears []float64
}

// DynamicStats summarises one dynamic epoch's run.
type DynamicStats struct {
	DurationMS    float64
	AvgPowerW     float64
	MIPS          float64
	MaxTempC      float64
	Emergencies   int
	ThrottledMS   float64
	Migrations    int
	PhaseSwitches int
	WearoutMax    float64
}

// DynamicEpoch is one simulated age of a dynamic scenario.
type DynamicEpoch struct {
	// Years is the simulated age (0 = fresh die); DVthMaxMV the largest
	// applied threshold drift and MinFmaxGHz the slowest core's rated
	// frequency at that age.
	Years      float64
	DVthMaxMV  float64
	MinFmaxGHz float64
	Stats      DynamicStats
}

// RunDynamic executes the time-stepped scenario on this platform's die:
// one epoch for the fresh die, plus one per HorizonYears entry on the
// correspondingly aged die. Deterministic for fixed (Options, config,
// apps, duration).
func (p *Platform) RunDynamic(cfg DynamicConfig, appNames []string, durationMS float64) ([]DynamicEpoch, error) {
	if cfg.Scheduler == "" {
		cfg.Scheduler = SchedVarFAppIPC
	}
	policy, err := sched.New(cfg.Scheduler)
	if err != nil {
		return nil, err
	}
	apps := make([]*workload.AppProfile, len(appNames))
	for i, name := range appNames {
		a, err := workload.ByName(name)
		if err != nil {
			return nil, err
		}
		apps[i] = a
	}
	run := dynamic.Config{
		Chip:               p.chip,
		CPU:                p.cpu,
		Scheduler:          policy,
		DtMS:               cfg.DtMS,
		OSIntervalMS:       cfg.OSIntervalMS,
		EmergencyC:         cfg.EmergencyC,
		RecoverC:           cfg.RecoverC,
		MigrationPenaltyMS: cfg.MigrationPenaltyMS,
		SensorNoise:        p.opt.SensorNoise,
		Seed:               p.opt.Seed,
	}
	hres, err := dynamic.RunHorizon(dynamic.HorizonConfig{
		Run:        run,
		DelayCfg:   p.dcfg,
		PowerCfg:   p.pcfg,
		ThermalCfg: p.tcfg,
		Years:      cfg.HorizonYears,
	}, apps, durationMS)
	if err != nil {
		return nil, err
	}
	out := make([]DynamicEpoch, len(hres.Epochs))
	for i, ep := range hres.Epochs {
		out[i] = DynamicEpoch{
			Years:      ep.Years,
			DVthMaxMV:  ep.DVthMaxV * 1000,
			MinFmaxGHz: ep.MinFmaxHz / 1e9,
			Stats: DynamicStats{
				DurationMS:    ep.Result.DurationMS,
				AvgPowerW:     ep.Result.AvgPowerW,
				MIPS:          ep.Result.MIPS,
				MaxTempC:      ep.Result.MaxTempC,
				Emergencies:   ep.Result.Emergencies,
				ThrottledMS:   ep.Result.ThrottledMS,
				Migrations:    ep.Result.Migrations,
				PhaseSwitches: ep.Result.PhaseSwitches,
				WearoutMax:    ep.Result.WearoutMax,
			},
		}
	}
	return out, nil
}

// Run executes the named applications (one thread per core at most) for
// durationMS of simulated time.
func (s *System) Run(appNames []string, durationMS float64) (*Stats, error) {
	apps := make([]*workload.AppProfile, len(appNames))
	for i, name := range appNames {
		a, err := workload.ByName(name)
		if err != nil {
			return nil, err
		}
		apps[i] = a
	}
	st, err := s.sys.Run(apps, durationMS)
	if err != nil {
		return nil, err
	}
	out := &Stats{
		DurationMS:         st.DurationMS,
		AvgPowerW:          st.AvgPowerW,
		DynPowerW:          st.AvgDynW,
		StaticPowerW:       st.AvgStatW,
		MIPS:               st.MIPS,
		WeightedThroughput: st.WeightedTP,
		EDSquared:          st.EDSquared,
		AvgFrequencyGHz:    st.AvgActiveFreqHz / 1e9,
		MaxTempC:           st.MaxTempC,
		PowerDeviationPct:  st.PowerDeviationPct,
		WearoutMax:         st.WearoutMax,
	}
	for _, p := range st.Trace {
		out.Trace = append(out.Trace, TracePoint{
			TimeMS: p.TimeMS, PowerW: p.PowerW, MIPS: p.MIPS, MaxTempC: p.MaxTempC,
		})
	}
	for _, ins := range st.Instructions {
		out.InstructionsM = append(out.InstructionsM, ins/1e6)
	}
	return out, nil
}
