package grf

import (
	"fmt"
	"math"
	"sync"

	"vasched/internal/fft"
	"vasched/internal/stats"
)

// CirculantSampler draws exact samples of a stationary Gaussian field using
// circulant embedding (Dietrich & Newsam). The covariance of the field on a
// doubly-padded torus is diagonalised by the 2-D DFT; sampling is then one
// FFT of suitably scaled complex white noise. Each FFT yields two
// independent realisations (real and imaginary parts); the sampler caches
// the spare one.
type CirculantSampler struct {
	cfg          Config
	prows, pcols int          // padded (embedding) grid dimensions
	sqrtLambda   []float64    // sqrt of DFT eigenvalues; shared across samplers, read-only
	spare        *Field       // second field from the previous FFT, if unused
	scratch      []complex128 // reusable FFT buffer
	// ClippedPower reports the fraction of spectral mass discarded when
	// negative eigenvalues were clipped to zero. Zero means the embedding
	// was exactly non-negative definite.
	ClippedPower float64
}

// spectrum is the spectral decomposition of the base circulant for one
// Config. It is immutable after construction and shared by every sampler
// with that Config, so the O(n log n) eigen-decomposition is paid once per
// process rather than once per die batch.
type spectrum struct {
	prows, pcols int
	sqrtLambda   []float64
	clippedPower float64
}

var (
	spectraMu sync.Mutex
	spectra   = map[Config]*spectrum{} // bounded in practice: one entry per distinct process-variation config
)

// spectrumFor returns the shared decomposition for cfg, building it on
// first use. The build runs outside the lock; a racing duplicate build
// produces bit-identical tables, and the first one stored wins.
func spectrumFor(cfg Config) (*spectrum, error) {
	spectraMu.Lock()
	sp, ok := spectra[cfg]
	spectraMu.Unlock()
	if ok {
		return sp, nil
	}
	sp, err := buildSpectrum(cfg)
	if err != nil {
		return nil, err
	}
	spectraMu.Lock()
	if old, ok := spectra[cfg]; ok {
		sp = old
	} else {
		spectra[cfg] = sp
	}
	spectraMu.Unlock()
	return sp, nil
}

func buildSpectrum(cfg Config) (*spectrum, error) {
	// Pad enough that the correlation range phi (in cells) fits inside the
	// half-torus in both dimensions.
	phiCellsR := int(math.Ceil(cfg.Phi*float64(cfg.Rows))) + 1
	phiCellsC := int(math.Ceil(cfg.Phi*float64(cfg.Cols))) + 1
	prows := fft.NextPow2(2 * (cfg.Rows + phiCellsR))
	pcols := fft.NextPow2(2 * (cfg.Cols + phiCellsC))

	sp := &spectrum{prows: prows, pcols: pcols}
	base := make([]complex128, prows*pcols)
	dx := 1.0 / float64(cfg.Cols)
	dy := 1.0 / float64(cfg.Rows)
	v := cfg.Sigma * cfg.Sigma
	for r := 0; r < prows; r++ {
		wr := r
		if wr > prows/2 {
			wr = prows - wr
		}
		y := float64(wr) * dy
		for c := 0; c < pcols; c++ {
			wc := c
			if wc > pcols/2 {
				wc = pcols - wc
			}
			x := float64(wc) * dx
			base[r*pcols+c] = complex(v*SphericalCorrelation(math.Hypot(x, y), cfg.Phi), 0)
		}
	}
	if err := fft.Forward2D(base, prows, pcols); err != nil {
		return nil, fmt.Errorf("grf: eigenvalue transform: %w", err)
	}
	sp.sqrtLambda = make([]float64, prows*pcols)
	var clipped, total float64
	for i, z := range base {
		lam := real(z)
		total += math.Abs(lam)
		if lam < 0 {
			clipped += -lam
			lam = 0
		}
		sp.sqrtLambda[i] = math.Sqrt(lam)
	}
	if total > 0 {
		sp.clippedPower = clipped / total
	}
	return sp, nil
}

// NewCirculantSampler builds (or reuses) the spectral decomposition for
// cfg. The grid is padded to at least twice its size (rounded to powers of
// two) so the torus wrap-around does not alias correlations back into the
// chip. Only the scratch buffer and the spare-field cache are per-sampler
// state; the decomposition itself is shared and read-only.
func NewCirculantSampler(cfg Config) (*CirculantSampler, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	sp, err := spectrumFor(cfg)
	if err != nil {
		return nil, err
	}
	return &CirculantSampler{
		cfg:          cfg,
		prows:        sp.prows,
		pcols:        sp.pcols,
		sqrtLambda:   sp.sqrtLambda,
		scratch:      make([]complex128, sp.prows*sp.pcols),
		ClippedPower: sp.clippedPower,
	}, nil
}

// Config returns the sampler's configuration.
func (s *CirculantSampler) Config() Config { return s.cfg }

// Sample draws one realisation of the field.
func (s *CirculantSampler) Sample(rng *stats.RNG) (*Field, error) {
	if s.spare != nil {
		f := s.spare
		s.spare = nil
		return f, nil
	}
	a, b, err := s.SamplePair(rng)
	if err != nil {
		return nil, err
	}
	s.spare = b
	return a, nil
}

// SamplePair draws the two independent realisations one transform yields,
// without touching the spare-field cache that sequential Sample callers
// rely on. Callers that need random access into the conceptual sequence
// of fields (e.g. die k of a batch for odd k, regenerated in isolation on
// a cluster worker) use it to rebuild a transform pair from its seed
// alone, in any order.
//
// The noise draws and the butterfly arithmetic are exactly those of the
// original full-transform pipeline; only the column transforms nobody
// reads (the padded torus is 4x the chip in each dimension) are pruned,
// which the region-transform contract guarantees cannot perturb a bit of
// the kept corner.
func (s *CirculantSampler) SamplePair(rng *stats.RNG) (*Field, *Field, error) {
	n := s.prows * s.pcols
	norm := 1.0 / math.Sqrt(float64(n))
	sc, sl := s.scratch, s.sqrtLambda
	if len(sc) != n || len(sl) != n {
		return nil, nil, fmt.Errorf("grf: scratch %d / spectrum %d for %d-point transform", len(sc), len(sl), n)
	}
	for i := range sc {
		// Complex white noise scaled by sqrt(lambda)/sqrt(n): after an
		// unnormalised forward FFT the real and imaginary parts are two
		// independent fields with the target covariance.
		sc[i] = complex(rng.Norm()*sl[i]*norm, rng.Norm()*sl[i]*norm)
	}
	if err := fft.ForwardRegion2D(sc, s.prows, s.pcols, s.cfg.Rows, s.cfg.Cols); err != nil {
		return nil, nil, fmt.Errorf("grf: sampling transform: %w", err)
	}
	a := &Field{Rows: s.cfg.Rows, Cols: s.cfg.Cols, Data: make([]float64, s.cfg.Rows*s.cfg.Cols)}
	b := &Field{Rows: s.cfg.Rows, Cols: s.cfg.Cols, Data: make([]float64, s.cfg.Rows*s.cfg.Cols)}
	for r := 0; r < s.cfg.Rows; r++ {
		row := sc[r*s.pcols : r*s.pcols+s.cfg.Cols]
		ar := a.Data[r*s.cfg.Cols : (r+1)*s.cfg.Cols]
		br := b.Data[r*s.cfg.Cols : (r+1)*s.cfg.Cols]
		for c, z := range row {
			ar[c] = real(z)
			br[c] = imag(z)
		}
	}
	return a, b, nil
}
