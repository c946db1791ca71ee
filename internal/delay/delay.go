// Package delay implements the critical-path model that turns a die's
// variation maps into per-core maximum frequencies. Following VARIUS, each
// core owns a population of critical paths spread over its units. A path's
// delay follows the alpha-power law with the local systematic Vth/Leff plus
// a random component averaged over the path's gates; logic paths average
// over more gates than SRAM access paths, so memory structures feel random
// variation more strongly. A core's maximum frequency at a given supply
// voltage and temperature is set by its slowest path.
package delay

import (
	"fmt"
	"math"

	"vasched/internal/floorplan"
	"vasched/internal/stats"
	"vasched/internal/tech"
	"vasched/internal/varmodel"
)

// Config tunes the path population.
type Config struct {
	// PathsPerUnit is the number of candidate critical paths sampled in
	// each core unit.
	PathsPerUnit int
	// LogicGatesPerPath and SRAMGatesPerPath set how many devices a path's
	// random variation is averaged over (a ~12 FO4 pipeline stage vs the
	// few transistors dominating a 6T-cell read).
	LogicGatesPerPath int
	SRAMGatesPerPath  int
	// FStepHz quantises reported frequencies (PLLs lock to a grid).
	FStepHz float64
}

// DefaultConfig returns the model defaults.
func DefaultConfig() Config {
	return Config{
		PathsPerUnit:      20,
		LogicGatesPerPath: 12,
		SRAMGatesPerPath:  4,
		FStepHz:           25e6,
	}
}

// path is one sampled critical path: its effective device parameters after
// averaging the random component over the path's gates.
type path struct {
	vth  float64 // effective threshold in volts
	leff float64 // effective gate length in meters
}

// CorePaths is the frequency model for one core on one die.
type CorePaths struct {
	Core  int
	tech  tech.Params
	cfg   Config
	paths []path
}

// VF is one manufacturer-table entry: the maximum frequency the core
// sustains at a supply voltage.
type VF struct {
	V float64 // supply voltage in volts
	F float64 // maximum frequency in hertz
}

// BuildCore samples the critical-path population for the given core. The
// rng should be derived from the die seed and core index so that die
// characterisation is deterministic.
func BuildCore(maps *varmodel.DieMaps, fp *floorplan.Floorplan, core int, rng *stats.RNG, cfg Config) (*CorePaths, error) {
	if cfg.PathsPerUnit <= 0 || cfg.LogicGatesPerPath <= 0 || cfg.SRAMGatesPerPath <= 0 {
		return nil, fmt.Errorf("delay: invalid config %+v", cfg)
	}
	if core < 0 || core >= fp.NumCores {
		return nil, fmt.Errorf("delay: core %d out of range [0,%d)", core, fp.NumCores)
	}
	cp := &CorePaths{Core: core, tech: maps.Cfg.Tech, cfg: cfg}
	for _, b := range fp.CoreBlocks(core) {
		gates := cfg.LogicGatesPerPath
		if b.Kind.IsSRAM() {
			gates = cfg.SRAMGatesPerPath
		}
		sqrtN := math.Sqrt(float64(gates))
		for i := 0; i < cfg.PathsPerUnit; i++ {
			// Path anchor point inside the unit: systematic component.
			x := b.R.X0 + rng.Float64()*b.R.Width()
			y := b.R.Y0 + rng.Float64()*b.R.Height()
			vth := maps.VthAt(x, y) + rng.Norm()*maps.VthSigmaRan/sqrtN
			leff := maps.LeffAt(x, y) + rng.Norm()*maps.LeffSigmaRan/sqrtN
			if leff < 0.5*maps.Cfg.Tech.LeffNominal {
				leff = 0.5 * maps.Cfg.Tech.LeffNominal
			}
			// Short-channel coupling: the locally shorter devices also
			// have a lower effective threshold.
			vth = maps.Cfg.Tech.EffectiveVth(vth, leff)
			cp.paths = append(cp.paths, path{vth: vth, leff: leff})
		}
	}
	return cp, nil
}

// worstDelay returns the largest relative path delay at supply v and
// temperature tempC with every path's threshold shifted by dVth (1.0
// means "as slow as the nominal device at the nominal operating point").
// It builds the delay law once for all paths.
func (cp *CorePaths) worstDelay(dVth, v, tempC float64) float64 {
	law := cp.tech.DelayAt(tempC)
	worst := 0.0
	for _, p := range cp.paths {
		d := law.Delay(p.vth+dVth, p.leff, v)
		if d > worst {
			worst = d
		}
	}
	return worst
}

// FmaxHz returns the maximum frequency the core sustains at supply v and
// temperature tempC, quantised down to the PLL grid. It returns 0 if no
// path switches at this operating point (supply too close to threshold).
func (cp *CorePaths) FmaxHz(v, tempC float64) float64 {
	return cp.FmaxWithVthShift(0, v, tempC)
}

// FmaxWithVthShift returns the core's maximum frequency with every path's
// threshold shifted by dVth volts — the what-if query body-bias selection
// needs (forward bias makes dVth negative), quantised like FmaxHz.
func (cp *CorePaths) FmaxWithVthShift(dVth, v, tempC float64) float64 {
	worst := cp.worstDelay(dVth, v, tempC)
	if math.IsInf(worst, 1) || worst <= 0 {
		return 0
	}
	f := cp.tech.FNominalHz / worst
	if cp.cfg.FStepHz > 0 {
		f = math.Floor(f/cp.cfg.FStepHz) * cp.cfg.FStepHz
	}
	return f
}

// VFTable returns the manufacturer-provided (voltage, frequency) table for
// the core at the rating temperature: for each ladder voltage, the highest
// frequency the core sustains. Entries with zero frequency (infeasible
// operating points) are omitted.
func (cp *CorePaths) VFTable(levels []float64, tempC float64) []VF {
	var out []VF
	for _, v := range levels {
		f := cp.FmaxHz(v, tempC)
		if f > 0 {
			out = append(out, VF{V: v, F: f})
		}
	}
	return out
}
