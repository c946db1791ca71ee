package grf

import (
	"errors"
	"fmt"
	"math"
	"sync"

	"vasched/internal/stats"
)

// CholeskySampler draws exact samples by factoring the full dense
// covariance matrix of the grid. It is O(n^3) in the number of grid cells
// and exists as a correctness cross-check for the circulant sampler and as
// the default for tiny grids. It holds only read-only state, so Sample is
// safe for concurrent use.
type CholeskySampler struct {
	cfg Config
	n   int
	low []float64 // lower-triangular Cholesky factor, row-major
}

var (
	cholMu    sync.Mutex
	cholCache = map[Config][]float64{} // bounded in practice: one entry per distinct small-grid config
)

// choleskyFor returns the shared lower-triangular factor for cfg, building
// it on first use. The O(n^3) factorisation runs outside the lock; a racing
// duplicate build is bit-identical, and the first one stored wins.
func choleskyFor(cfg Config, n int) ([]float64, error) {
	cholMu.Lock()
	low, ok := cholCache[cfg]
	cholMu.Unlock()
	if ok {
		return low, nil
	}
	cov := make([]float64, n*n)
	dx := 1.0 / float64(cfg.Cols)
	dy := 1.0 / float64(cfg.Rows)
	v := cfg.Sigma * cfg.Sigma
	for i := 0; i < n; i++ {
		ri, ci := i/cfg.Cols, i%cfg.Cols
		for j := 0; j <= i; j++ {
			rj, cj := j/cfg.Cols, j%cfg.Cols
			r := math.Hypot(float64(ci-cj)*dx, float64(ri-rj)*dy)
			c := v * SphericalCorrelation(r, cfg.Phi)
			cov[i*n+j] = c
			cov[j*n+i] = c
		}
	}
	low, err := choleskyFactor(cov, n)
	if err != nil {
		return nil, err
	}
	cholMu.Lock()
	if old, ok := cholCache[cfg]; ok {
		low = old
	} else {
		cholCache[cfg] = low
	}
	cholMu.Unlock()
	return low, nil
}

// NewCholeskySampler factors (or reuses the cached factor of) the
// covariance matrix for cfg. The factor is shared across samplers and
// read-only.
func NewCholeskySampler(cfg Config) (*CholeskySampler, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	n := cfg.Rows * cfg.Cols
	if n > 5000 {
		return nil, fmt.Errorf("grf: Cholesky sampler limited to 5000 cells, got %d", n)
	}
	low, err := choleskyFor(cfg, n)
	if err != nil {
		return nil, err
	}
	return &CholeskySampler{cfg: cfg, n: n, low: low}, nil
}

// Config returns the sampler's configuration.
func (s *CholeskySampler) Config() Config { return s.cfg }

// Sample draws one realisation of the field. The white-noise vector is
// allocated per call: NewSampler picks this sampler only for grids of
// 32x32 cells or fewer, where it is at most 8 KiB.
func (s *CholeskySampler) Sample(rng *stats.RNG) (*Field, error) {
	work := make([]float64, s.n)
	for i := range work {
		work[i] = rng.Norm()
	}
	f := &Field{Rows: s.cfg.Rows, Cols: s.cfg.Cols, Data: make([]float64, s.n)}
	for i := 0; i < s.n; i++ {
		sum := 0.0
		row := s.low[i*s.n : i*s.n+i+1]
		for j, l := range row {
			sum += l * work[j]
		}
		f.Data[i] = sum
	}
	return f, nil
}

// choleskyFactor returns the lower-triangular factor L with A = L L^T.
// A small diagonal jitter is added if the matrix is borderline positive
// definite (the spherical covariance on a fine grid can be numerically
// semidefinite).
func choleskyFactor(a []float64, n int) ([]float64, error) {
	low := make([]float64, n*n)
	const jitter = 1e-10
	for i := 0; i < n; i++ {
		for j := 0; j <= i; j++ {
			sum := a[i*n+j]
			for k := 0; k < j; k++ {
				sum -= low[i*n+k] * low[j*n+k]
			}
			if i == j {
				if sum <= 0 {
					sum += jitter * a[0]
					if sum <= 0 {
						return nil, errors.New("grf: covariance matrix not positive definite")
					}
				}
				low[i*n+i] = math.Sqrt(sum)
			} else {
				low[i*n+j] = sum / low[j*n+j]
			}
		}
	}
	return low, nil
}
