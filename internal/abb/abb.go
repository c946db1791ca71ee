// Package abb implements per-core Adaptive Body Bias, the variation-
// mitigation technique of Humenay et al. that the paper's related-work
// section calls complementary to variation-aware scheduling: instead of
// exploiting core-to-core differences, ABB *compresses* them by shifting
// each core's threshold voltage post-manufacturing.
//
// Forward body bias lowers Vth — the core speeds up but leaks
// exponentially more; reverse bias does the opposite. The classic policy
// (implemented here) pulls every core toward a common target frequency:
// slow cores get forward bias, fast cores get reverse bias, trading the
// frequency spread for a power spread, exactly the cost Humenay et al.
// report. The ext-abb experiment measures how much of the variation-aware
// schedulers' advantage survives the compression.
package abb

import (
	"fmt"
	"sort"

	"vasched/internal/chip"
	"vasched/internal/delay"
	"vasched/internal/floorplan"
	"vasched/internal/power"
	"vasched/internal/stats"
	"vasched/internal/thermal"
	"vasched/internal/varmodel"
)

// Config describes the bias hardware.
type Config struct {
	// MaxForwardV and MaxReverseV bound the body bias magnitude (volts of
	// bias, both positive numbers; typical designs allow ~0.5 V each way).
	MaxForwardV float64
	MaxReverseV float64
	// StepV is the bias DAC resolution.
	StepV float64
	// VthPerBiasV is the threshold shift per volt of forward bias
	// (body-effect coefficient; ~100 mV Vth per 1 V bias is typical).
	VthPerBiasV float64
}

// DefaultConfig returns a typical ABB design.
func DefaultConfig() Config {
	return Config{
		MaxForwardV: 0.5,
		MaxReverseV: 0.5,
		StepV:       0.1,
		VthPerBiasV: 0.1,
	}
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	if c.MaxForwardV < 0 || c.MaxReverseV < 0 {
		return fmt.Errorf("abb: negative bias bound in %+v", c)
	}
	if c.StepV <= 0 || c.VthPerBiasV <= 0 {
		return fmt.Errorf("abb: non-positive step or coefficient in %+v", c)
	}
	return nil
}

// Assignment is the per-core body bias in volts (positive = forward =
// faster and leakier).
type Assignment []float64

// biasLevels enumerates the DAC's settings from most reverse to most
// forward.
func (c Config) biasLevels() []float64 {
	var out []float64
	for b := -c.MaxReverseV; b <= c.MaxForwardV+c.StepV/2; b += c.StepV {
		out = append(out, b)
	}
	return out
}

// ChooseBias picks each core's bias so its post-bias frequency meets the
// batch's median core frequency where possible: slow cores take the
// smallest forward bias that reaches the target, fast cores the largest
// reverse bias that keeps them at or above it (recovering leakage).
func ChooseBias(base *chip.Chip, dcfg delay.Config, cfg Config) (Assignment, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	n := base.NumCores()
	freqs := make([]float64, n)
	for core := 0; core < n; core++ {
		freqs[core] = base.FmaxNominal(core)
	}
	target := median(freqs)
	levels := cfg.biasLevels()

	out := make(Assignment, n)
	for core := 0; core < n; core++ {
		// The core's frequency response to bias: a Vth shift moves every
		// path; estimate via the path population's worst relative delay.
		fAt := func(bias float64) float64 {
			shift := -cfg.VthPerBiasV * bias
			return base.Paths[core].FmaxWithVthShift(shift, base.Tech.VddNominal, base.Tech.TRatingC)
		}
		if freqs[core] < target {
			// Smallest forward bias reaching the target (or max out).
			chosen := cfg.MaxForwardV
			for _, b := range levels {
				if b <= 0 {
					continue
				}
				if fAt(b) >= target {
					chosen = b
					break
				}
			}
			out[core] = chosen
		} else {
			// Largest reverse bias that keeps the core at the target.
			chosen := 0.0
			for _, b := range levels {
				if b >= 0 {
					break
				}
				if fAt(b) >= target {
					chosen = b
					break
				}
			}
			out[core] = chosen
		}
	}
	return out, nil
}

// Apply returns a new die-map set with each core's systematic Vth shifted
// by its bias (the L2 region is unbiased), ready for chip.Build. The
// original maps are not modified.
func Apply(maps *varmodel.DieMaps, fp *floorplan.Floorplan, bias Assignment, cfg Config) (*varmodel.DieMaps, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if len(bias) != fp.NumCores {
		return nil, fmt.Errorf("abb: %d biases for %d cores", len(bias), fp.NumCores)
	}
	for core, b := range bias {
		if b > cfg.MaxForwardV+1e-9 || b < -cfg.MaxReverseV-1e-9 {
			return nil, fmt.Errorf("abb: core %d bias %v outside [%v, %v]",
				core, b, -cfg.MaxReverseV, cfg.MaxForwardV)
		}
	}

	clone := *maps
	field := *maps.VthSys
	field.Data = append([]float64(nil), maps.VthSys.Data...)
	clone.VthSys = &field

	for i, core := range fp.CellCores(field.Rows, field.Cols) {
		if core >= 0 { // L2 is unbiased
			field.Data[i] -= cfg.VthPerBiasV * bias[core]
		}
	}
	return &clone, nil
}

// Rebuild characterises the biased die: ChooseBias on the base chip,
// Apply to the maps, and a fresh chip.Build.
func Rebuild(base *chip.Chip, dcfg delay.Config, pcfg power.Model, tcfg thermal.Config, cfg Config) (*chip.Chip, Assignment, error) {
	bias, err := ChooseBias(base, dcfg, cfg)
	if err != nil {
		return nil, nil, err
	}
	maps, err := Apply(base.Maps, base.FP, bias, cfg)
	if err != nil {
		return nil, nil, err
	}
	biased, err := chip.Build(maps, base.FP, dcfg, pcfg, tcfg)
	if err != nil {
		return nil, nil, err
	}
	return biased, bias, nil
}

// Spread summarises a chip's core-to-core frequency and static-power
// spread (max/min ratios), the quantities ABB trades against each other.
func Spread(c *chip.Chip) (freqRatio, leakRatio float64) {
	n := c.NumCores()
	top := len(c.Levels) - 1
	fs := make([]float64, n)
	ls := make([]float64, n)
	for core := 0; core < n; core++ {
		fs[core] = c.FmaxNominal(core)
		ls[core] = c.StaticAtLevel[core][top]
	}
	return stats.Max(fs) / stats.Min(fs), stats.Max(ls) / stats.Min(ls)
}

func median(xs []float64) float64 {
	c := append([]float64(nil), xs...)
	sort.Float64s(c)
	n := len(c)
	if n%2 == 1 {
		return c[n/2]
	}
	return 0.5 * (c[n/2-1] + c[n/2])
}
