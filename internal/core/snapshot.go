package core

import (
	"vasched/internal/chip"
	"vasched/internal/pm"
	"vasched/internal/sched"
	"vasched/internal/sensors"
	"vasched/internal/workload"
)

// fillSnapshot fills snap in place with the chip's Table 3 view at a
// scheduling instant: for each active core, the sensor-measured power of
// its thread-core pair at every ladder level (at the block temperatures
// of the last evaluation — power profiling happens under current thermal
// conditions), the thread's current IPC, and the manufacturer V/f table.
// It also fills the true, frequency-dependent IPC table that only the
// Oracle ablation reads.
//
// Sensor noise is drawn per thread in a fixed order — the power of each
// feasible level, ascending, then the IPC sensor — which the recorded
// timelines depend on.
func (s *System) fillSnapshot(snap *pm.Snapshot, apps []*workload.AppProfile, assignment sched.Assignment, elapsedMS []float64, curLevels []int, lastEval *chip.EvalResult, noise sensors.Noise) error {
	c := s.cfg.Chip
	nl := len(c.Levels)
	snap.Resize(len(apps), nl)
	copy(snap.Volt, c.Levels)

	coreTemp := func(core int) float64 {
		if lastEval == nil {
			return c.Tech.TRefC
		}
		return lastEval.CoreTempC[core]
	}
	// Uncore power: the shared L2 from the last evaluation, or its
	// zero-load leakage estimate before the first one.
	if lastEval != nil {
		snap.Uncore = lastEval.L2PowerW
	} else {
		snap.Uncore = c.Power.L2StaticW(c.Maps, c.FP, c.Tech.TRefC)
	}

	for t, app := range apps {
		coreID := assignment[t]
		ref, err := s.cfg.CPU.SteadyIPC(app, c.Tech.FNominalHz)
		if err != nil {
			return err
		}
		snap.Refs[t] = ref * c.Tech.FNominalHz
		temp := coreTemp(coreID)
		phase := app.PhaseAt(elapsedMS[t])
		freq := snap.Freq[t*nl : (t+1)*nl]
		power := snap.Power[t*nl : (t+1)*nl]
		tipc := snap.TrueIPC[t*nl : (t+1)*nl]
		for li, v := range c.Levels {
			f := c.FmaxAt(coreID, v)
			freq[li], power[li], tipc[li] = f, 0, 0
			if f <= 0 {
				continue
			}
			ipcAt, err := s.cfg.CPU.IPC(app, phase, f)
			if err != nil {
				return err
			}
			tipc[li] = ipcAt
			stat := c.CoreStaticCached(coreID, v, temp)
			dyn := c.Power.DynamicCoreW(app.DynPowerW*phase.PowerScale, app.IPCNom, v, f, ipcAt)
			power[li] = noise.Read(stat + dyn)
		}
		// The IPC sensor reads the thread at its current operating point
		// (the previous decision's level; the top level before the first
		// decision).
		cur := nl - 1
		if curLevels != nil && freq[curLevels[t]] > 0 {
			cur = curLevels[t]
		}
		snap.IPCs[t] = noise.Read(tipc[cur])
	}
	return nil
}
