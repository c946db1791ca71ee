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
	"slices"
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
// A Generator is safe for concurrent use, and sharing one across workers
// is the intended use: sampling runs outside its lock, and concurrent
// requests for the two dies of one transform pair split the pair's work
// between them (see Die).
type Generator struct {
	cfg Config
	// samplers draws the Vth (index 0) and Leff (index 1) maps; pairs holds
	// the same samplers when they are circulant, and nils otherwise. Both
	// are read-only, so sampling needs no lock.
	samplers [2]grf.Sampler
	pairs    [2]*grf.CirculantSampler

	// mu guards table, which holds the transform pairs being computed or
	// waiting for their second die, oldest first. No sampling runs under
	// mu.
	mu    sync.Mutex
	table []*pairSlot
	// samples counts maps drawn through the field samplers. The die
	// cache's "warm run regenerates nothing" tests assert on its deltas.
	samples atomic.Int64
}

// pairTableSize bounds the pair table. At paper scale a slot waiting for
// its second die holds one 1 MiB half; evicting a slot only costs the
// recomputation of a pair.
const pairTableSize = 16

// mapNames labels the two maps of a die, in claim order.
var mapNames = [2]string{"Vth", "Leff"}

// pairSlot is one transform pair: dies base and base+1 of a batch. Its
// fields are guarded by Generator.mu.
type pairSlot struct {
	batchSeed int64
	base      int
	// rng holds each map's stream until a requester claims the map.
	rng [2]*stats.RNG
	// fields[h][m] is map m of die base+h, nil once handed out.
	fields [2][2]*grf.Field
	// asked marks the halves requested so far, out counts those handed out.
	asked [2]bool
	out   int
	err   error
	// done counts down once per computed map.
	done sync.WaitGroup
}

// newPairSlot derives the pair's two map streams. They are derived here,
// in order, because Derive draws from its parent: the Leff stream exists
// only after Derive(1).
func newPairSlot(batchSeed int64, base int) *pairSlot {
	rng := stats.NewRNG(dieSeed(batchSeed, base))
	s := &pairSlot{batchSeed: batchSeed, base: base}
	s.rng[0] = rng.Derive(1)
	s.rng[1] = rng.Derive(2)
	s.done.Add(len(s.rng))
	return s
}

// NewGenerator validates cfg and prepares the field samplers.
func NewGenerator(cfg Config) (*Generator, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	_, vthSys, _ := cfg.SigmaVth()
	_, leffSys, _ := cfg.SigmaLeff()
	g := &Generator{cfg: cfg}
	for m, sigma := range [2]float64{vthSys, leffSys} {
		s, err := grf.NewSampler(grf.Config{
			Rows: cfg.GridRows, Cols: cfg.GridCols, Phi: cfg.Phi, Sigma: sigma,
		})
		if err != nil {
			return nil, fmt.Errorf("varmodel: %s sampler: %w", mapNames[m], err)
		}
		g.samplers[m] = s
		g.pairs[m], _ = s.(*grf.CirculantSampler)
	}
	return g, nil
}

// Config returns the generator's configuration.
func (g *Generator) Config() Config { return g.cfg }

// SampleCount returns the cumulative number of maps this generator has
// drawn through its field samplers. A cache layer that claims to have
// avoided regeneration can be audited by diffing this counter around the
// supposedly-warm run.
func (g *Generator) SampleCount() int64 { return g.samples.Load() }

// maxDies is the number of dies in a batch: Die accepts indices in
// [0, maxDies). It is also the die-seed multiplier, so within that range
// distinct (batchSeed, index) pairs get distinct die seeds.
const maxDies = 1_000_003

// dieSeed is die index's seed within its batch.
func dieSeed(batchSeed int64, index int) int64 {
	return batchSeed*maxDies + int64(index)
}

// Die generates the die with the given index, which must lie in
// [0, 1_000_003). The maps are a pure function of (batchSeed, index): die
// k's fields do not depend on which dies were generated before it, in
// what order, or on which process — the property that makes a die batch
// shardable across cluster workers and a parallel local build
// bit-identical to a serial one.
//
// Circulant sampling yields two independent fields per transform, so the
// canonical sequence pairs dies: die 2k takes the real part and die 2k+1
// the imaginary part of the transforms seeded by die 2k, one per map.
// The first request for either die opens the pair in a small table; each
// requester then computes the maps nobody has claimed yet, Vth first,
// and waits for both. A lone caller thus computes both maps, two
// concurrent callers of dies 2k and 2k+1 compute one each, and die 2k+1
// asked for after die 2k comes from the table. A die asked for a second
// time while its pair is still open gets a freshly computed pair, so no
// two results share a field.
func (g *Generator) Die(batchSeed int64, index int) (*DieMaps, error) {
	if index < 0 || index >= maxDies {
		return nil, fmt.Errorf("varmodel: die index %d outside [0, %d)", index, maxDies)
	}
	var maps [2]*grf.Field
	var err error
	if g.pairs[0] != nil && g.pairs[1] != nil {
		maps, err = g.pairHalf(batchSeed, index)
	} else {
		maps, err = g.single(batchSeed, index)
	}
	if err != nil {
		return nil, err
	}
	_, _, vthRan := g.cfg.SigmaVth()
	_, _, leffRan := g.cfg.SigmaLeff()
	return &DieMaps{
		Cfg:          g.cfg,
		VthSys:       maps[0],
		LeffSys:      maps[1],
		VthSigmaRan:  vthRan,
		LeffSigmaRan: leffRan,
		Seed:         dieSeed(batchSeed, index),
	}, nil
}

// single samples one die's maps with dense samplers, which draw one field
// per call from the die's own stream.
func (g *Generator) single(batchSeed int64, index int) ([2]*grf.Field, error) {
	var maps [2]*grf.Field
	rng := stats.NewRNG(dieSeed(batchSeed, index))
	for m, s := range g.samplers {
		g.samples.Add(1)
		f, err := s.Sample(rng.Derive(int64(m + 1)))
		if err != nil {
			return maps, fmt.Errorf("varmodel: sampling %s map: %w", mapNames[m], err)
		}
		maps[m] = f
	}
	return maps, nil
}

// pairHalf returns die index's maps from its transform pair's slot,
// opening the slot if needed and computing the maps nobody has claimed.
func (g *Generator) pairHalf(batchSeed int64, index int) ([2]*grf.Field, error) {
	base, h := index&^1, index&1
	g.mu.Lock()
	s := g.find(batchSeed, base)
	switch {
	case s == nil:
		s = newPairSlot(batchSeed, base)
		g.table = append(g.table, s)
		if len(g.table) > pairTableSize {
			g.table = slices.Delete(g.table, 0, 1)
		}
	case s.asked[h]:
		// A second request for this half: a private pair the table never
		// sees, so the two results share no field.
		s = newPairSlot(batchSeed, base)
	}
	s.asked[h] = true
	for m := range s.rng {
		rng := s.rng[m]
		if rng == nil {
			continue
		}
		s.rng[m] = nil
		g.mu.Unlock()
		g.samples.Add(1)
		a, b, err := g.pairs[m].SamplePair(rng)
		g.mu.Lock()
		s.fields[0][m], s.fields[1][m] = a, b
		if err != nil && s.err == nil {
			s.err = fmt.Errorf("varmodel: sampling %s map: %w", mapNames[m], err)
		}
		s.done.Done()
	}
	g.mu.Unlock()
	s.done.Wait()
	g.mu.Lock()
	defer g.mu.Unlock()
	maps := s.fields[h]
	s.fields[h] = [2]*grf.Field{}
	if s.out++; s.out == 2 || s.err != nil {
		g.remove(s)
	}
	return maps, s.err
}

// find returns the open slot of the pair at base, or nil. Callers hold
// g.mu.
func (g *Generator) find(batchSeed int64, base int) *pairSlot {
	for _, s := range g.table {
		if s.batchSeed == batchSeed && s.base == base {
			return s
		}
	}
	return nil
}

// remove drops s from the table if it is still there. Callers hold g.mu.
func (g *Generator) remove(s *pairSlot) {
	if i := slices.Index(g.table, s); i >= 0 {
		g.table = slices.Delete(g.table, i, i+1)
	}
}
