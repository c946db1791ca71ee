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
// independent realisations (real and imaginary parts).
//
// SamplePair touches only read-only sampler state and is safe for
// concurrent use. Sample caches the spare realisation of each transform
// for its next call and is not.
type CirculantSampler struct {
	cfg          Config
	prows, pcols int       // padded (embedding) grid dimensions
	sqrtLambda   []float64 // sqrt of DFT eigenvalues; shared across samplers, read-only
	spare        *Field    // second field from the previous FFT, if unused
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
// chip. Only Sample's spare-field cache is per-sampler state; the
// decomposition itself is shared and read-only.
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
		ClippedPower: sp.clippedPower,
	}, nil
}

// Config returns the sampler's configuration.
func (s *CirculantSampler) Config() Config { return s.cfg }

// Sample draws one realisation of the field. Calls alternate between
// running a transform and returning its cached spare, so one sampler's
// Sample calls must not run concurrently.
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
// alone, in any order. It is safe for concurrent use.
//
// The noise draws and the butterfly arithmetic are exactly those of the
// original full-transform pipeline. The noise is drawn one padded row at
// a time, in the original order, and streamed through
// fft.ForwardRegionRows, so only the prows×Cols corner the column stage
// reads is ever stored: a quarter of the padded torus. The column
// transforms nobody reads are pruned, which the region-transform contract
// guarantees cannot perturb a bit of the kept corner.
func (s *CirculantSampler) SamplePair(rng *stats.RNG) (*Field, *Field, error) {
	rows, cols := s.cfg.Rows, s.cfg.Cols
	n := s.prows * s.pcols
	norm := 1.0 / math.Sqrt(float64(n))
	sl := s.sqrtLambda
	if len(sl) != n {
		return nil, nil, fmt.Errorf("grf: spectrum %d for %d-point transform", len(sl), n)
	}
	buf := getBuffer(s.prows*cols + s.pcols)
	defer putBuffer(buf)
	dst, row := buf[:s.prows*cols], buf[s.prows*cols:]
	z := make([]float64, 2*s.pcols)
	err := fft.ForwardRegionRows(dst, row, s.prows, s.pcols, rows, cols, func(r int, row []complex128) {
		// The row's normals in draw order: real then imaginary part of
		// each point.
		rng.NormFill(z)
		scaleRow(row, z, sl[r*s.pcols:(r+1)*s.pcols], norm)
	})
	if err != nil {
		return nil, nil, fmt.Errorf("grf: sampling transform: %w", err)
	}
	a := &Field{Rows: rows, Cols: cols, Data: make([]float64, rows*cols)}
	b := &Field{Rows: rows, Cols: cols, Data: make([]float64, rows*cols)}
	for i, z := range dst[:rows*cols] {
		a.Data[i] = real(z)
		b.Data[i] = imag(z)
	}
	return a, b, nil
}

// scaleRowGo sets row[c] = complex(z[2c]·l[c]·norm, z[2c+1]·l[c]·norm):
// complex white noise scaled by sqrt(lambda)/sqrt(n), so that after an
// unnormalised forward FFT the real and imaginary parts are two
// independent fields with the target covariance. Each part rounds z·l,
// then its product with norm. It is scaleRow's kernel twin and the whole
// of scaleRow where the kernel is not built in.
func scaleRowGo(row []complex128, z, l []float64, norm float64) {
	for c, lc := range l {
		row[c] = complex(z[2*c]*lc*norm, z[2*c+1]*lc*norm)
	}
}

// buffers is the free list of transform buffers that every sampler's
// SamplePair draws from. It never holds more buffers than the most
// SamplePair calls that have run at once. It is not a sync.Pool: a GC
// cycle would empty a pool, and the next die would reallocate megabytes.
var (
	buffersMu sync.Mutex
	buffers   [][]complex128
)

// getBuffer returns a buffer of n elements from the free list, or a new one
// if no free buffer is large enough; in that case it also drops one free
// buffer, so that the list never grows past the peak concurrency.
func getBuffer(n int) []complex128 {
	buffersMu.Lock()
	defer buffersMu.Unlock()
	last := len(buffers) - 1
	for i, b := range buffers {
		if cap(b) >= n {
			buffers[i] = buffers[last]
			buffers[last] = nil
			buffers = buffers[:last]
			return b[:n]
		}
	}
	if last >= 0 {
		buffers[last] = nil
		buffers = buffers[:last]
	}
	return make([]complex128, n)
}

// putBuffer returns a buffer to the free list.
func putBuffer(b []complex128) {
	buffersMu.Lock()
	buffers = append(buffers, b)
	buffersMu.Unlock()
}
