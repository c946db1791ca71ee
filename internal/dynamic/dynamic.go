// Package dynamic configures the time-stepped scenarios on core's timeline:
// Run maps a scenario onto core.System.Run with every core at its own
// maximum frequency (ModeNUniFreq), backward-Euler thermal transients
// (one chip.TransientState per run, which re-assembles dynamic power
// only when an operating point or phase changes), the thermal emergency
// governor armed (pm.ThrottleGovernor), migration stalls and phase start
// offsets. Between OS intervals an untraced run allocates nothing per
// tick; a traced one allocates its per-tick spans. Long-horizon runs
// (horizon.go) degrade Vth across simulated years from the measured
// wearout rates and re-schedule against the drifted die.
//
// Everything is deterministic: results are a pure function of (Config,
// apps, duration). The package backs the ext-transient, ext-phase-mig and
// ext-wearout experiments, whose goldens pin its behaviour byte-for-byte
// across worker counts, cluster shards, and cache states.
package dynamic

import (
	"context"

	"vasched/internal/chip"
	"vasched/internal/core"
	"vasched/internal/cpusim"
	"vasched/internal/sched"
	"vasched/internal/workload"
)

// Config assembles one dynamic scenario run.
type Config struct {
	// Chip is the characterised die and CPU the calibrated core model.
	Chip *chip.Chip
	CPU  *cpusim.Model
	// Scheduler re-maps threads every OS interval; temperature-aware
	// policies see the transient temperatures of the previous tick.
	Scheduler sched.Policy
	// DtMS is the integration step (default 1 ms). Smaller steps resolve
	// faster thermal transients at proportional cost; the backward-Euler
	// stepper is unconditionally stable, so large steps lose resolution,
	// not correctness.
	DtMS float64
	// OSIntervalMS is the re-scheduling cadence (default 10 ms).
	OSIntervalMS float64
	// EmergencyC trips the thermal throttle; RecoverC releases it
	// (defaults 85 / EmergencyC-5). See pm.ThrottleGovernor for the
	// hysteresis rationale.
	EmergencyC float64
	RecoverC   float64
	// MigrationPenaltyMS is the stall charged to a thread each time the
	// scheduler moves it to a different core (core.Config).
	MigrationPenaltyMS float64
	// SensorNoise is the relative sigma of profiling measurements.
	SensorNoise float64
	// StartOffsetsMS, when non-nil, gives each thread a head start into
	// its phase cycle (len must equal the thread count). The phase-shift
	// experiments use it to place threads near phase boundaries so a
	// short window still crosses them.
	StartOffsetsMS []float64
	// Seed drives every stochastic choice.
	Seed int64
	// Ctx carries tracing state only; results must not depend on it.
	Ctx context.Context
}

// Result aggregates one dynamic run.
type Result = core.RunStats

// Run executes the scenario for durationMS simulated milliseconds.
func Run(cfg Config, apps []*workload.AppProfile, durationMS float64) (*Result, error) {
	if cfg.EmergencyC == 0 {
		cfg.EmergencyC = 85
	}
	if cfg.RecoverC == 0 {
		cfg.RecoverC = cfg.EmergencyC - 5
	}
	if cfg.OSIntervalMS <= 0 {
		cfg.OSIntervalMS = 10
	}
	sys, err := core.New(core.Config{
		Chip:               cfg.Chip,
		CPU:                cfg.CPU,
		Scheduler:          cfg.Scheduler,
		Mode:               core.ModeNUniFreq,
		OSIntervalMS:       cfg.OSIntervalMS,
		SampleIntervalMS:   cfg.DtMS,
		TransientThermal:   true,
		EmergencyC:         cfg.EmergencyC,
		RecoverC:           cfg.RecoverC,
		MigrationPenaltyMS: cfg.MigrationPenaltyMS,
		StartOffsetsMS:     cfg.StartOffsetsMS,
		SensorNoise:        cfg.SensorNoise,
		Seed:               cfg.Seed,
		Ctx:                cfg.Ctx,
	})
	if err != nil {
		return nil, err
	}
	return sys.Run(apps, durationMS)
}
