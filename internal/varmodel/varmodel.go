// Package varmodel implements the VARIUS within-die process-variation
// model (Sarangi et al., Teodorescu et al.): threshold voltage (Vth) and
// effective gate length (Leff) vary across the die as the sum of a
// spatially correlated systematic component and a per-transistor random
// component. The systematic component is a Gaussian random field with
// spherical correlation of range phi; the random component is white noise
// whose effect on delay and leakage is applied analytically (paths average
// it over their gates, leakage integrates its lognormal uplift).
package varmodel

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"

	"vasched/internal/grf"
	"vasched/internal/stats"
	"vasched/internal/tech"
)

// Config selects the statistical parameters of the variation model.
type Config struct {
	// VthSigmaOverMu is total sigma/mu for Vth (paper default 0.12, range
	// 0.03-0.12 in Figure 5).
	VthSigmaOverMu float64
	// SystematicFraction is the share of total *variance* carried by the
	// systematic component. The paper assumes equal variances (0.5).
	SystematicFraction float64
	// Phi is the spatial-correlation range of the systematic component as
	// a fraction of chip width (paper: 0.5).
	Phi float64
	// LeffSigmaRatio scales Leff's sigma/mu from Vth's (paper: 0.5).
	LeffSigmaRatio float64
	// GridRows/GridCols set the map resolution. The paper generated 1 M
	// points per chip with geoR; 256x256 resolves 20 cores x 6 units with
	// >500 cells per unit, which is where block statistics saturate.
	GridRows, GridCols int
	// Tech supplies nominal parameter values.
	Tech tech.Params
}

// DefaultConfig returns the paper's Table 4 settings.
func DefaultConfig() Config {
	return Config{
		VthSigmaOverMu:     0.12,
		SystematicFraction: 0.5,
		Phi:                0.5,
		LeffSigmaRatio:     0.5,
		GridRows:           256,
		GridCols:           256,
		Tech:               tech.Default(),
	}
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	if c.VthSigmaOverMu < 0 || c.VthSigmaOverMu > 0.5 {
		return fmt.Errorf("varmodel: sigma/mu %v outside [0, 0.5]", c.VthSigmaOverMu)
	}
	if c.SystematicFraction < 0 || c.SystematicFraction > 1 {
		return fmt.Errorf("varmodel: systematic fraction %v outside [0,1]", c.SystematicFraction)
	}
	if c.Phi <= 0 || c.Phi > 2 {
		return fmt.Errorf("varmodel: phi %v outside (0,2]", c.Phi)
	}
	if c.GridRows <= 0 || c.GridCols <= 0 {
		return fmt.Errorf("varmodel: invalid grid %dx%d", c.GridRows, c.GridCols)
	}
	return c.Tech.Validate()
}

// SigmaVth returns the total, systematic, and random standard deviations of
// Vth in volts.
func (c Config) SigmaVth() (total, sys, ran float64) {
	total = c.VthSigmaOverMu * c.Tech.VthNominal
	sys = total * math.Sqrt(c.SystematicFraction)
	ran = total * math.Sqrt(1-c.SystematicFraction)
	return total, sys, ran
}

// SigmaLeff returns the total, systematic, and random standard deviations
// of Leff in meters.
func (c Config) SigmaLeff() (total, sys, ran float64) {
	total = c.VthSigmaOverMu * c.LeffSigmaRatio * c.Tech.LeffNominal
	sys = total * math.Sqrt(c.SystematicFraction)
	ran = total * math.Sqrt(1-c.SystematicFraction)
	return total, sys, ran
}

// DieMaps holds one die's systematic variation maps plus the random-
// component sigmas that downstream models apply analytically.
type DieMaps struct {
	Cfg Config
	// VthSys and LeffSys are the systematic components (zero-mean offsets
	// from nominal, in volts and meters respectively).
	VthSys  *grf.Field
	LeffSys *grf.Field
	// VthSigmaRan and LeffSigmaRan are the random-component standard
	// deviations (per transistor).
	VthSigmaRan  float64
	LeffSigmaRan float64
	// Seed identifies the die within its batch.
	Seed int64
}

// VthAt returns the systematic Vth in volts at normalised point (x, y):
// nominal plus the local systematic offset. Random variation is not
// included; callers sample it per path or apply its analytic uplift.
func (d *DieMaps) VthAt(x, y float64) float64 {
	return d.Cfg.Tech.VthNominal + d.VthSys.AtPoint(x, y)
}

// LeffAt returns the systematic Leff in meters at normalised point (x, y).
func (d *DieMaps) LeffAt(x, y float64) float64 {
	return d.Cfg.Tech.LeffNominal + d.LeffSys.AtPoint(x, y)
}

// VthMeanOverRect returns the mean systematic Vth over a block rectangle.
func (d *DieMaps) VthMeanOverRect(x0, y0, x1, y1 float64) float64 {
	return d.Cfg.Tech.VthNominal + d.VthSys.MeanOverRect(x0, y0, x1, y1)
}

// LeffMeanOverRect returns the mean systematic Leff over a block rectangle.
func (d *DieMaps) LeffMeanOverRect(x0, y0, x1, y1 float64) float64 {
	return d.Cfg.Tech.LeffNominal + d.LeffSys.MeanOverRect(x0, y0, x1, y1)
}

// Generator produces batches of statistically independent dies that share
// one Config. It owns the (expensive) spectral decompositions, so
// generating 200 dies costs 200 FFTs, not 200 factorizations.
//
// A Generator is safe for concurrent use: Die serialises on an
// internal mutex, which protects both the single-entry pair cache and the
// samplers' shared scratch/spare state. Callers that want parallel die
// generation should shard indices across per-worker Generators (die
// identity is a pure function of (batchSeed, index), so the split is
// free) rather than hammering one instance.
type Generator struct {
	cfg         Config
	vthSampler  grf.Sampler
	leffSampler grf.Sampler

	// mu guards pair and the samplers (their FFT scratch buffers and
	// spare-field caches are per-sampler mutable state).
	mu sync.Mutex
	// pair holds the unconsumed halves of the last transform pair, so an
	// in-order batch walk (die 2k, then 2k+1) still costs one FFT per die
	// per parameter even though Die is addressable in any order.
	pair *diePair
	// samples counts underlying sampler invocations (one per map drawn
	// from a transform, i.e. two per computed pair). The die cache's
	// "warm run regenerates nothing" tests assert on its deltas.
	samples atomic.Int64
}

// diePair caches the second fields of the transform pair computed for an
// even die, keyed by the (batchSeed, base) that seeded it.
type diePair struct {
	batchSeed int64
	base      int
	vthB      *grf.Field
	leffB     *grf.Field
}

// NewGenerator validates cfg and prepares the field samplers.
func NewGenerator(cfg Config) (*Generator, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	_, vthSys, _ := cfg.SigmaVth()
	_, leffSys, _ := cfg.SigmaLeff()
	vs, err := grf.NewSampler(grf.Config{
		Rows: cfg.GridRows, Cols: cfg.GridCols, Phi: cfg.Phi, Sigma: vthSys,
	})
	if err != nil {
		return nil, fmt.Errorf("varmodel: Vth sampler: %w", err)
	}
	ls, err := grf.NewSampler(grf.Config{
		Rows: cfg.GridRows, Cols: cfg.GridCols, Phi: cfg.Phi, Sigma: leffSys,
	})
	if err != nil {
		return nil, fmt.Errorf("varmodel: Leff sampler: %w", err)
	}
	return &Generator{cfg: cfg, vthSampler: vs, leffSampler: ls}, nil
}

// Config returns the generator's configuration.
func (g *Generator) Config() Config { return g.cfg }

// SampleCount returns the cumulative number of sampler invocations (maps
// drawn through the underlying field samplers) this generator has
// performed. A cache layer that claims to have avoided regeneration can
// be audited by diffing this counter around the supposedly-warm run.
func (g *Generator) SampleCount() int64 { return g.samples.Load() }

// Die generates the die with the given index. The maps are a pure
// function of (batchSeed, index): die k's fields do not depend on which
// dies were generated before it, in what order, or on which process — the
// property that makes a die batch shardable across cluster workers and a
// parallel local build bit-identical to a serial one.
//
// Circulant sampling yields two independent fields per transform, so the
// canonical sequence pairs dies: die 2k takes the real part and die 2k+1
// the imaginary part of the transform seeded by die 2k. Addressing an odd
// die in isolation recomputes its pair's transform from that seed.
func (g *Generator) Die(batchSeed int64, index int) (*DieMaps, error) {
	g.mu.Lock()
	vth, leff, err := g.fields(batchSeed, index)
	g.mu.Unlock()
	if err != nil {
		return nil, err
	}
	return g.dieMaps(batchSeed, index, vth, leff), nil
}

// dieMaps wraps one die's freshly sampled fields in their DieMaps.
func (g *Generator) dieMaps(batchSeed int64, index int, vth, leff *grf.Field) *DieMaps {
	_, _, vthRan := g.cfg.SigmaVth()
	_, _, leffRan := g.cfg.SigmaLeff()
	return &DieMaps{
		Cfg:          g.cfg,
		VthSys:       vth,
		LeffSys:      leff,
		VthSigmaRan:  vthRan,
		LeffSigmaRan: leffRan,
		Seed:         batchSeed*1_000_003 + int64(index),
	}
}

// fields samples the systematic Vth and Leff maps for one die. Callers
// hold g.mu.
func (g *Generator) fields(batchSeed int64, index int) (*grf.Field, *grf.Field, error) {
	vcs, vok := g.vthSampler.(*grf.CirculantSampler)
	lcs, lok := g.leffSampler.(*grf.CirculantSampler)
	if !vok || !lok {
		// Dense samplers draw one field per call from the die's own
		// stream; they are order-independent as they stand.
		rng := stats.NewRNG(batchSeed*1_000_003 + int64(index))
		g.samples.Add(2)
		vth, err := g.vthSampler.Sample(rng.Derive(1))
		if err != nil {
			return nil, nil, fmt.Errorf("varmodel: sampling Vth map: %w", err)
		}
		leff, err := g.leffSampler.Sample(rng.Derive(2))
		if err != nil {
			return nil, nil, fmt.Errorf("varmodel: sampling Leff map: %w", err)
		}
		return vth, leff, nil
	}
	base := index &^ 1
	if p := g.pair; p != nil && index&1 == 1 && p.batchSeed == batchSeed && p.base == base {
		g.pair = nil
		return p.vthB, p.leffB, nil
	}
	rng := stats.NewRNG(batchSeed*1_000_003 + int64(base))
	g.samples.Add(2)
	vthA, vthB, err := vcs.SamplePair(rng.Derive(1))
	if err != nil {
		return nil, nil, fmt.Errorf("varmodel: sampling Vth map: %w", err)
	}
	leffA, leffB, err := lcs.SamplePair(rng.Derive(2))
	if err != nil {
		return nil, nil, fmt.Errorf("varmodel: sampling Leff map: %w", err)
	}
	if index&1 == 0 {
		g.pair = &diePair{batchSeed: batchSeed, base: base, vthB: vthB, leffB: leffB}
		return vthA, leffA, nil
	}
	g.pair = nil
	return vthB, leffB, nil
}
