package dynamic

import (
	"fmt"
	"math"

	"vasched/internal/chip"
	"vasched/internal/delay"
	"vasched/internal/floorplan"
	"vasched/internal/power"
	"vasched/internal/thermal"
	"vasched/internal/varmodel"
	"vasched/internal/workload"
)

// HorizonConfig extends a dynamic run across simulated years: the base run
// measures each core's aging *rate* (wearout index); the horizon
// extrapolates that rate to a sequence of ages, shifts each core's
// threshold voltage by the NBTI power law, rebuilds the chip from the
// drifted variation maps, and re-runs the scenario — so the scheduler
// re-decides against the die it will actually have at that age.
type HorizonConfig struct {
	// Run is the per-epoch scenario; Run.Chip is the fresh (age-0) die.
	Run Config
	// DelayCfg, PowerCfg, ThermalCfg re-characterise the drifted die
	// (chip.Build needs the same calibration the fresh die was built with).
	DelayCfg   delay.Config
	PowerCfg   power.Model
	ThermalCfg thermal.Config
	// Years lists the ages to evaluate after the fresh-die epoch; each
	// must be positive and increasing.
	Years []float64
}

// dVthScaleV and dVthExponent calibrate the NBTI drift power law
//
//	dVth(core) = dVthScaleV * (index(core) * years)^dVthExponent
//
// where index is the core's measured wearout rate (equivalent nominal
// years aged per year of operation): Vth drifts tens of millivolts over a
// ~7-year service life at nominal stress, with the classic fast-then-flat
// t^0.2 shape.
const (
	dVthScaleV   = 0.04
	dVthExponent = 0.2
)

// Epoch is one age's outcome.
type Epoch struct {
	// Years is the simulated age (0 = fresh die).
	Years float64
	// DVthMaxV is the largest per-core threshold shift applied.
	DVthMaxV float64
	// MinFmaxHz is the slowest core's rated frequency on the aged die —
	// the binning consequence of wearout.
	MinFmaxHz float64
	// Result is the scenario outcome on the aged die.
	Result *Result
}

// HorizonResult is the sequence of epochs, fresh die first.
type HorizonResult struct {
	Epochs []Epoch
}

// RunHorizon executes the fresh-die scenario, then one scenario per
// requested age on the correspondingly drifted die. Deterministic: every
// epoch reuses the same Config seed, so epoch-to-epoch differences isolate
// the die drift itself.
func RunHorizon(cfg HorizonConfig, apps []*workload.AppProfile, durationMS float64) (*HorizonResult, error) {
	base := cfg.Run.Chip
	if base == nil {
		return nil, fmt.Errorf("dynamic: horizon requires a base chip")
	}
	prev := 0.0
	for _, y := range cfg.Years {
		if y <= prev {
			return nil, fmt.Errorf("dynamic: horizon years must be positive and increasing, got %v", cfg.Years)
		}
		prev = y
	}

	fresh, err := Run(cfg.Run, apps, durationMS)
	if err != nil {
		return nil, err
	}
	out := &HorizonResult{Epochs: []Epoch{{
		Years:     0,
		MinFmaxHz: minFmax(base),
		Result:    fresh,
	}}}

	dVth := make([]float64, base.NumCores())
	for _, years := range cfg.Years {
		maxShift := 0.0
		for core, rate := range fresh.WearoutIndex {
			if rate <= 0 {
				dVth[core] = 0
				continue
			}
			dVth[core] = dVthScaleV * math.Pow(rate*years, dVthExponent)
			if dVth[core] > maxShift {
				maxShift = dVth[core]
			}
		}
		agedMaps, err := AgeMaps(base.Maps, base.FP, dVth)
		if err != nil {
			return nil, err
		}
		aged, err := chip.Build(agedMaps, base.FP, cfg.DelayCfg, cfg.PowerCfg, cfg.ThermalCfg)
		if err != nil {
			return nil, fmt.Errorf("dynamic: rebuilding %.1f-year die: %w", years, err)
		}
		epochCfg := cfg.Run
		epochCfg.Chip = aged
		res, err := Run(epochCfg, apps, durationMS)
		if err != nil {
			return nil, err
		}
		out.Epochs = append(out.Epochs, Epoch{
			Years:     years,
			DVthMaxV:  maxShift,
			MinFmaxHz: minFmax(aged),
			Result:    res,
		})
	}
	return out, nil
}

// AgeMaps returns a new die-map set with each core's systematic Vth raised
// by its drift (NBTI raises |Vth|: aged cores are slower and leak less).
// The shared L2 region is left undrifted — its cells see far lower duty
// cycles — mirroring how abb.Apply scopes bias to core rectangles. The
// owner of each map cell comes from the floorplan's cell table
// (floorplan.CellCores). The original maps are not modified.
func AgeMaps(maps *varmodel.DieMaps, fp *floorplan.Floorplan, dVth []float64) (*varmodel.DieMaps, error) {
	if len(dVth) != fp.NumCores {
		return nil, fmt.Errorf("dynamic: %d Vth shifts for %d cores", len(dVth), fp.NumCores)
	}
	for core, dv := range dVth {
		if dv < 0 {
			return nil, fmt.Errorf("dynamic: negative Vth drift %v for core %d", dv, core)
		}
	}
	clone := *maps
	field := *maps.VthSys
	field.Data = append([]float64(nil), maps.VthSys.Data...)
	clone.VthSys = &field

	for i, core := range fp.CellCores(field.Rows, field.Cols) {
		if core >= 0 { // L2 does not drift
			field.Data[i] += dVth[core]
		}
	}
	return &clone, nil
}

// minFmax returns the slowest core's rated nominal-supply frequency.
func minFmax(c *chip.Chip) float64 {
	min := c.FmaxNominal(0)
	for core := 1; core < c.NumCores(); core++ {
		if f := c.FmaxNominal(core); f < min {
			min = f
		}
	}
	return min
}
