package core

import (
	"vasched/internal/chip"
	"vasched/internal/cpusim"
	"vasched/internal/pm"
	"vasched/internal/sched"
	"vasched/internal/sensors"
	"vasched/internal/stats"
	"vasched/internal/workload"
)

// FrozenSnapshot returns the pm.Snapshot of one scheduling instant, for
// comparing managers on identical inputs, diagnostics and tests: threads
// are placed with VarF&AppIPC, the tables reflect cold-start conditions
// (no prior evaluation, noise-free sensors), and the TrueIPC table is
// filled for the Oracle.
func FrozenSnapshot(c *chip.Chip, cpu *cpusim.Model, apps []*workload.AppProfile, seed int64) (*pm.Snapshot, error) {
	rng := stats.NewRNG(seed)
	infos := sensors.CoreInfos(c)
	threads, err := sensors.ProfileThreads(c, cpu, apps, nil, sensors.Noise{}, rng)
	if err != nil {
		return nil, err
	}
	assignment, err := (sched.VarFAppIPCPolicy{}).Assign(infos, threads, rng)
	if err != nil {
		return nil, err
	}
	sys := &System{cfg: Config{Chip: c, CPU: cpu}, rng: rng}
	snap := new(pm.Snapshot)
	if err := sys.fillSnapshot(snap, apps, assignment, make([]float64, len(apps)), nil, nil, sensors.Noise{}); err != nil {
		return nil, err
	}
	return snap, nil
}
