package experiments

import (
	"context"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"strings"

	"vasched/internal/dynamic"
	"vasched/internal/sched"
	"vasched/internal/stats"
	"vasched/internal/workload"
)

// The dynamic-scenario experiments drive internal/dynamic through the
// kernel fan-out: each die's time-stepped simulation is a pure function of
// (Scale, Seed, BatchSeed, die), so the die cache, cluster shards,
// adaptive sampling, and trace spans (dynamic.step nests under env.kernel
// with path=local|cluster) all apply unchanged, and the goldens pin every
// rendered digit at any worker count.
const (
	kernelDieTransient = "die-transient"
	kernelDiePhaseMig  = "die-phase-mig"
	kernelDieWearout   = "die-wearout"
)

// extDynThreads is the occupancy the dynamic scenarios schedule (16 of 20
// cores, like ext-cluster).
const extDynThreads = 16

// Emergency thresholds for the transient scenario, calibrated so quick-
// scale runs (30 ms from ambient, peaking in the mid-60s C) genuinely trip
// the governor: the behaviour under test is the clamp/recover cycle, not a
// threshold that never fires.
const (
	extDynEmergencyC = 60.0
	extDynRecoverC   = 57.0
)

// extDynMigPenaltiesMS is the migration-cost sweep of ext-phase-mig.
var extDynMigPenaltiesMS = []float64{0, 2, 5}

// extDynYears are the simulated ages of ext-wearout's horizon.
var extDynYears = []float64{3, 7}

// dynBaseConfig is the shared scenario shape: per-Env knobs only (stock
// Scale fields), so a remote worker rebuilding the Env reproduces it.
func dynBaseConfig(e *Env, seed int64) (dynamic.Config, []*workload.AppProfile) {
	apps := workload.Mix(stats.NewRNG(seed), extDynThreads)
	return dynamic.Config{
		CPU:          e.CPU(),
		Scheduler:    sched.VarFAppIPCPolicy{},
		DtMS:         e.SampleMS,
		OSIntervalMS: 10,
		EmergencyC:   extDynEmergencyC,
		RecoverC:     extDynRecoverC,
		Seed:         seed,
	}, apps
}

// dieTransientBlob is the die-transient kernel's wire shape: trial
// averages of one die's transient scenario.
type dieTransientBlob struct {
	MIPS        float64 `json:"mips"`
	PowerW      float64 `json:"pw"`
	MaxTempC    float64 `json:"maxc"`
	Emergencies float64 `json:"em"`
	ThrottledMS float64 `json:"thr"`
}

// diePhaseMigBlob is the die-phase-mig kernel's wire shape: trial-averaged
// migration/phase dynamics and the throughput at each migration penalty.
type diePhaseMigBlob struct {
	Migrations    float64   `json:"mig"`
	PhaseSwitches float64   `json:"phsw"`
	MIPS          []float64 `json:"mips"` // one per extDynMigPenaltiesMS
}

// dieWearoutBlob is the die-wearout kernel's wire shape: one horizon run
// (fresh die + one epoch per extDynYears).
type dieWearoutBlob struct {
	Years      []float64 `json:"years"`
	DVthMaxMV  []float64 `json:"dvth"`
	MinFmaxGHz []float64 `json:"fmin"`
	MIPS       []float64 `json:"mips"`
	WearoutMax []float64 `json:"wear"`
}

func init() {
	RegisterKernel(kernelDieTransient, func(ctx context.Context, e *Env, die int) ([]byte, error) {
		c, err := e.Chip(die)
		if err != nil {
			return nil, err
		}
		var b dieTransientBlob
		for trial := 0; trial < e.Trials; trial++ {
			seed := e.trialSeed(die, trial)
			cfg, apps := dynBaseConfig(e, seed)
			cfg.Chip = c
			cfg.Ctx = ctx
			res, err := dynamic.Run(cfg, apps, e.SimMS)
			if err != nil {
				return nil, err
			}
			inv := 1 / float64(e.Trials)
			b.MIPS += res.MIPS * inv
			b.PowerW += res.AvgPowerW * inv
			b.MaxTempC += res.MaxTempC * inv
			b.Emergencies += float64(res.Emergencies) * inv
			b.ThrottledMS += res.ThrottledMS * inv
		}
		return json.Marshal(b)
	})
	RegisterKernel(kernelDiePhaseMig, func(ctx context.Context, e *Env, die int) ([]byte, error) {
		c, err := e.Chip(die)
		if err != nil {
			return nil, err
		}
		b := diePhaseMigBlob{MIPS: make([]float64, len(extDynMigPenaltiesMS))}
		for trial := 0; trial < e.Trials; trial++ {
			seed := e.trialSeed(die, trial)
			inv := 1 / float64(e.Trials)
			for pi, pen := range extDynMigPenaltiesMS {
				cfg, apps := dynBaseConfig(e, seed)
				cfg.Chip = c
				cfg.Ctx = ctx
				cfg.MigrationPenaltyMS = pen
				// Start each thread part-way into its phase cycle so a
				// short window still crosses phase boundaries; offsets are
				// a pure function of the seed, identical across penalties.
				offRNG := stats.NewRNG(seed).Derive(7)
				offsets := make([]float64, len(apps))
				for i, a := range apps {
					total := 0.0
					for _, p := range a.Phases {
						total += p.DurationMS
					}
					offsets[i] = offRNG.Float64() * total
				}
				cfg.StartOffsetsMS = offsets
				res, err := dynamic.Run(cfg, apps, e.SimMS)
				if err != nil {
					return nil, err
				}
				b.MIPS[pi] += res.MIPS * inv
				if pi == 0 {
					b.Migrations += float64(res.Migrations) * inv
					b.PhaseSwitches += float64(res.PhaseSwitches) * inv
				}
			}
		}
		return json.Marshal(b)
	})
	RegisterKernel(kernelDieWearout, func(ctx context.Context, e *Env, die int) ([]byte, error) {
		c, err := e.Chip(die)
		if err != nil {
			return nil, err
		}
		cfg, apps := dynBaseConfig(e, e.trialSeed(die, 0))
		cfg.Chip = c
		cfg.Ctx = ctx
		hres, err := dynamic.RunHorizon(dynamic.HorizonConfig{
			Run:        cfg,
			DelayCfg:   e.DelayCfg,
			PowerCfg:   e.Power,
			ThermalCfg: e.ThermalCfg,
			Years:      extDynYears,
		}, apps, e.SimMS)
		if err != nil {
			return nil, err
		}
		var b dieWearoutBlob
		for _, ep := range hres.Epochs {
			b.Years = append(b.Years, ep.Years)
			b.DVthMaxMV = append(b.DVthMaxMV, ep.DVthMaxV*1000)
			b.MinFmaxGHz = append(b.MinFmaxGHz, ep.MinFmaxHz/1e9)
			b.MIPS = append(b.MIPS, ep.Result.MIPS)
			b.WearoutMax = append(b.WearoutMax, ep.Result.WearoutMax)
		}
		return json.Marshal(b)
	})
}

// ExtTransientResult is the time-stepped thermal-transient experiment:
// per-die trial averages of the scenario engine under emergency
// throttling, plus the determinism checksum over every kernel blob.
type ExtTransientResult struct {
	Dies        int
	Trials      int
	Threads     int
	DtMS        float64
	EmergencyC  float64
	MIPS        []float64
	PowerW      []float64
	MaxTempC    []float64
	Emergencies []float64
	ThrottledMS []float64
	Checksum    string
}

// ExtTransient runs the transient scenario over the die batch through the
// distributable kernel path.
func ExtTransient(e *Env) (*ExtTransientResult, error) {
	res := &ExtTransientResult{
		Dies:        e.NumDies,
		Trials:      e.Trials,
		Threads:     extDynThreads,
		DtMS:        e.SampleMS,
		EmergencyC:  extDynEmergencyC,
		MIPS:        make([]float64, e.NumDies),
		PowerW:      make([]float64, e.NumDies),
		MaxTempC:    make([]float64, e.NumDies),
		Emergencies: make([]float64, e.NumDies),
		ThrottledMS: make([]float64, e.NumDies),
	}
	sum := fnv.New64a()
	err := e.ForDiesKernel(kernelDieTransient, e.NumDies, func(die int, blob []byte) error {
		sum.Write(blob)
		var b dieTransientBlob
		if err := json.Unmarshal(blob, &b); err != nil {
			return fmt.Errorf("experiments: die %d transient blob: %w", die, err)
		}
		res.MIPS[die] = b.MIPS
		res.PowerW[die] = b.PowerW
		res.MaxTempC[die] = b.MaxTempC
		res.Emergencies[die] = b.Emergencies
		res.ThrottledMS[die] = b.ThrottledMS
		return nil
	})
	if err != nil {
		return nil, err
	}
	res.Checksum = fmt.Sprintf("%016x", sum.Sum64())
	return res, nil
}

// Render formats the per-die transient statistics.
func (r *ExtTransientResult) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Extension: time-stepped thermal transients (%d dies x %d trials, %d threads, dt %.0f ms)\n",
		r.Dies, r.Trials, r.Threads, r.DtMS)
	fmt.Fprintf(&b, "emergency throttle: trip %.0f C, hysteresis release %.0f C\n", r.EmergencyC, extDynRecoverC)
	fmt.Fprintf(&b, "peak temperature per die: mean %.2f  min %.2f  max %.2f C\n",
		stats.Mean(r.MaxTempC), stats.Min(r.MaxTempC), stats.Max(r.MaxTempC))
	fmt.Fprintf(&b, "throughput per die:       mean %.1f  min %.1f  max %.1f MIPS\n",
		stats.Mean(r.MIPS), stats.Min(r.MIPS), stats.Max(r.MIPS))
	fmt.Fprintf(&b, "chip power per die:       mean %.2f  min %.2f  max %.2f W\n",
		stats.Mean(r.PowerW), stats.Min(r.PowerW), stats.Max(r.PowerW))
	fmt.Fprintf(&b, "emergencies per die:      mean %.2f   throttled time: mean %.1f ms (of %s)\n",
		stats.Mean(r.Emergencies), stats.Mean(r.ThrottledMS), "the run")
	fmt.Fprintf(&b, "task-blob checksum: %s\n", r.Checksum)
	b.WriteString("(byte-identical at any worker/shard count and cache state)\n")
	return b.String()
}

// ExtPhaseMigResult is the phase-shift/migration-cost experiment: how much
// throughput thread migration costs as the per-migration penalty grows,
// under phase-shifting workloads.
type ExtPhaseMigResult struct {
	Dies        int
	Trials      int
	Threads     int
	PenaltiesMS []float64
	// MIPS[p][die] is the trial-averaged throughput at penalty p.
	MIPS          [][]float64
	Migrations    []float64
	PhaseSwitches []float64
	Checksum      string
}

// ExtPhaseMig runs the migration-penalty sweep over the die batch.
func ExtPhaseMig(e *Env) (*ExtPhaseMigResult, error) {
	res := &ExtPhaseMigResult{
		Dies:          e.NumDies,
		Trials:        e.Trials,
		Threads:       extDynThreads,
		PenaltiesMS:   extDynMigPenaltiesMS,
		MIPS:          make([][]float64, len(extDynMigPenaltiesMS)),
		Migrations:    make([]float64, e.NumDies),
		PhaseSwitches: make([]float64, e.NumDies),
	}
	for pi := range res.MIPS {
		res.MIPS[pi] = make([]float64, e.NumDies)
	}
	sum := fnv.New64a()
	err := e.ForDiesKernel(kernelDiePhaseMig, e.NumDies, func(die int, blob []byte) error {
		sum.Write(blob)
		var b diePhaseMigBlob
		if err := json.Unmarshal(blob, &b); err != nil {
			return fmt.Errorf("experiments: die %d phase-mig blob: %w", die, err)
		}
		if len(b.MIPS) != len(res.PenaltiesMS) {
			return fmt.Errorf("experiments: die %d phase-mig blob has %d penalties, want %d",
				die, len(b.MIPS), len(res.PenaltiesMS))
		}
		for pi, v := range b.MIPS {
			res.MIPS[pi][die] = v
		}
		res.Migrations[die] = b.Migrations
		res.PhaseSwitches[die] = b.PhaseSwitches
		return nil
	})
	if err != nil {
		return nil, err
	}
	res.Checksum = fmt.Sprintf("%016x", sum.Sum64())
	return res, nil
}

// Render formats the migration-cost sweep.
func (r *ExtPhaseMigResult) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Extension: phase-shifting workloads under migration cost (%d dies x %d trials, %d threads)\n",
		r.Dies, r.Trials, r.Threads)
	fmt.Fprintf(&b, "per run: %.1f migrations, %.1f phase switches (means over dies)\n",
		stats.Mean(r.Migrations), stats.Mean(r.PhaseSwitches))
	base := stats.Mean(r.MIPS[0])
	fmt.Fprintf(&b, "  %12s %12s %8s\n", "penalty", "throughput", "loss")
	for pi, pen := range r.PenaltiesMS {
		m := stats.Mean(r.MIPS[pi])
		fmt.Fprintf(&b, "  %9.0f ms %7.1f MIPS %7.2f%%\n", pen, m, 100*(base-m)/base)
	}
	fmt.Fprintf(&b, "task-blob checksum: %s\n", r.Checksum)
	b.WriteString("(byte-identical at any worker/shard count and cache state)\n")
	return b.String()
}

// ExtWearoutResult is the wearout-horizon experiment: the scenario re-run
// on Vth-drifted dies at increasing simulated ages, re-scheduled each
// epoch against the die as it actually is at that age.
type ExtWearoutResult struct {
	Dies    int
	Threads int
	Years   []float64
	// Per-epoch means over the horizon dies.
	DVthMaxMV  []float64
	MinFmaxGHz []float64
	MIPS       []float64
	WearoutMax []float64
	Checksum   string
}

// ExtWearout runs the aging horizon over the RunDies subset (each epoch
// pays a full die re-characterisation, so the index space is the timeline
// sweeps' small one, not the 200-die batch).
func ExtWearout(e *Env) (*ExtWearoutResult, error) {
	nEpochs := len(extDynYears) + 1
	res := &ExtWearoutResult{
		Dies:       e.RunDies,
		Threads:    extDynThreads,
		DVthMaxMV:  make([]float64, nEpochs),
		MinFmaxGHz: make([]float64, nEpochs),
		MIPS:       make([]float64, nEpochs),
		WearoutMax: make([]float64, nEpochs),
	}
	sum := fnv.New64a()
	err := e.ForDiesKernel(kernelDieWearout, e.RunDies, func(die int, blob []byte) error {
		sum.Write(blob)
		var b dieWearoutBlob
		if err := json.Unmarshal(blob, &b); err != nil {
			return fmt.Errorf("experiments: die %d wearout blob: %w", die, err)
		}
		if len(b.Years) != nEpochs {
			return fmt.Errorf("experiments: die %d wearout blob has %d epochs, want %d",
				die, len(b.Years), nEpochs)
		}
		res.Years = b.Years
		inv := 1 / float64(e.RunDies)
		for i := 0; i < nEpochs; i++ {
			res.DVthMaxMV[i] += b.DVthMaxMV[i] * inv
			res.MinFmaxGHz[i] += b.MinFmaxGHz[i] * inv
			res.MIPS[i] += b.MIPS[i] * inv
			res.WearoutMax[i] += b.WearoutMax[i] * inv
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	res.Checksum = fmt.Sprintf("%016x", sum.Sum64())
	return res, nil
}

// Render formats the per-epoch aging table.
func (r *ExtWearoutResult) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Extension: wearout-aware scheduling horizon (%d dies, %d threads; NBTI Vth drift, re-scheduled per epoch)\n",
		r.Dies, r.Threads)
	fmt.Fprintf(&b, "  %6s %10s %10s %12s %10s\n", "years", "dVth max", "min Fmax", "throughput", "wear max")
	for i, y := range r.Years {
		fmt.Fprintf(&b, "  %6.0f %7.1f mV %6.3f GHz %7.1f MIPS %10.3f\n",
			y, r.DVthMaxMV[i], r.MinFmaxGHz[i], r.MIPS[i], r.WearoutMax[i])
	}
	base := r.MIPS[0]
	last := r.MIPS[len(r.MIPS)-1]
	fmt.Fprintf(&b, "end-of-life throughput: %.2f%% of fresh-die (aged cores bin slower; the scheduler re-ranks them)\n",
		100*last/base)
	fmt.Fprintf(&b, "task-blob checksum: %s\n", r.Checksum)
	b.WriteString("(byte-identical at any worker/shard count and cache state)\n")
	return b.String()
}
