// Package stats provides the statistical primitives the variation model and
// the evaluation harness are built on: deterministic RNG streams, normal
// distribution sampling and quantiles, descriptive statistics, histograms,
// and ranking utilities.
//
// Everything in this package is deterministic given a seed, which is what
// makes whole-repository experiments replayable bit-for-bit.
package stats

import (
	"errors"
	"math"
	"sort"
)

// Mean returns the arithmetic mean of xs. It returns 0 for an empty slice.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// Variance returns the population variance of xs.
func Variance(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	m := Mean(xs)
	s := 0.0
	for _, x := range xs {
		d := x - m
		s += d * d
	}
	return s / float64(len(xs))
}

// StdDev returns the population standard deviation of xs.
func StdDev(xs []float64) float64 { return math.Sqrt(Variance(xs)) }

// Min returns the smallest element of xs. It panics on an empty slice
// because every caller in this repository has a non-empty input by
// construction.
func Min(xs []float64) float64 {
	m := xs[0]
	for _, x := range xs[1:] {
		if x < m {
			m = x
		}
	}
	return m
}

// Max returns the largest element of xs.
func Max(xs []float64) float64 {
	m := xs[0]
	for _, x := range xs[1:] {
		if x > m {
			m = x
		}
	}
	return m
}

// Sum returns the sum of xs.
func Sum(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s
}

// GeoMean returns the geometric mean of xs. All elements must be positive.
func GeoMean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += math.Log(x)
	}
	return math.Exp(s / float64(len(xs)))
}

// Median returns the median of xs without modifying it.
func Median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	c := append([]float64(nil), xs...)
	sort.Float64s(c)
	n := len(c)
	if n%2 == 1 {
		return c[n/2]
	}
	return 0.5 * (c[n/2-1] + c[n/2])
}

// Quantile returns the q-quantile (0 <= q <= 1) of xs using linear
// interpolation between order statistics, matching R's default (type 7).
func Quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	c := append([]float64(nil), xs...)
	sort.Float64s(c)
	if q <= 0 {
		return c[0]
	}
	if q >= 1 {
		return c[len(c)-1]
	}
	h := q * float64(len(c)-1)
	lo := int(math.Floor(h))
	hi := int(math.Ceil(h))
	if lo == hi {
		return c[lo]
	}
	return c[lo] + (h-float64(lo))*(c[hi]-c[lo])
}

// Correlation returns the Pearson correlation coefficient between xs and
// ys, which must have equal length.
func Correlation(xs, ys []float64) (float64, error) {
	if len(xs) != len(ys) {
		return 0, errors.New("stats: correlation inputs differ in length")
	}
	if len(xs) == 0 {
		return 0, errors.New("stats: correlation of empty input")
	}
	mx, my := Mean(xs), Mean(ys)
	var sxy, sxx, syy float64
	for i := range xs {
		dx, dy := xs[i]-mx, ys[i]-my
		sxy += dx * dy
		sxx += dx * dx
		syy += dy * dy
	}
	if sxx == 0 || syy == 0 {
		return 0, errors.New("stats: correlation undefined for constant input")
	}
	return sxy / math.Sqrt(sxx*syy), nil
}

// NormCDF returns the standard normal cumulative distribution function.
func NormCDF(x float64) float64 {
	return 0.5 * math.Erfc(-x/math.Sqrt2)
}

// NormQuantile returns the standard normal quantile (inverse CDF) using the
// Acklam rational approximation, accurate to about 1e-9 over (0,1).
func NormQuantile(p float64) float64 {
	if p <= 0 {
		return math.Inf(-1)
	}
	if p >= 1 {
		return math.Inf(1)
	}
	// Coefficients for the central and tail regions.
	a := [...]float64{-3.969683028665376e+01, 2.209460984245205e+02,
		-2.759285104469687e+02, 1.383577518672690e+02,
		-3.066479806614716e+01, 2.506628277459239e+00}
	b := [...]float64{-5.447609879822406e+01, 1.615858368580409e+02,
		-1.556989798598866e+02, 6.680131188771972e+01,
		-1.328068155288572e+01}
	c := [...]float64{-7.784894002430293e-03, -3.223964580411365e-01,
		-2.400758277161838e+00, -2.549732539343734e+00,
		4.374664141464968e+00, 2.938163982698783e+00}
	d := [...]float64{7.784695709041462e-03, 3.224671290700398e-01,
		2.445134137142996e+00, 3.754408661907416e+00}

	const plow = 0.02425
	switch {
	case p < plow:
		q := math.Sqrt(-2 * math.Log(p))
		return (((((c[0]*q+c[1])*q+c[2])*q+c[3])*q+c[4])*q + c[5]) /
			((((d[0]*q+d[1])*q+d[2])*q+d[3])*q + 1)
	case p > 1-plow:
		q := math.Sqrt(-2 * math.Log(1-p))
		return -(((((c[0]*q+c[1])*q+c[2])*q+c[3])*q+c[4])*q + c[5]) /
			((((d[0]*q+d[1])*q+d[2])*q+d[3])*q + 1)
	default:
		q := p - 0.5
		r := q * q
		return (((((a[0]*r+a[1])*r+a[2])*r+a[3])*r+a[4])*r + a[5]) * q /
			(((((b[0]*r+b[1])*r+b[2])*r+b[3])*r+b[4])*r + 1)
	}
}

// TCDF returns the cumulative distribution function of Student's t
// distribution with df degrees of freedom, via the regularized incomplete
// beta function. df need not be an integer; df <= 0 returns NaN.
func TCDF(t, df float64) float64 {
	if df <= 0 || math.IsNaN(t) {
		return math.NaN()
	}
	if math.IsInf(t, 1) {
		return 1
	}
	if math.IsInf(t, -1) {
		return 0
	}
	// P(T > |t|) = I_{df/(df+t^2)}(df/2, 1/2) / 2.
	x := df / (df + t*t)
	tail := 0.5 * regIncBeta(df/2, 0.5, x)
	if t >= 0 {
		return 1 - tail
	}
	return tail
}

// TQuantile returns the quantile (inverse CDF) of Student's t distribution
// with df degrees of freedom: the t with TCDF(t, df) == p. It is the
// critical value behind t-based confidence intervals; accuracy is better
// than 1e-9 across the df range the experiment harness uses. p outside
// (0,1) returns the matching infinity and df <= 0 returns NaN.
func TQuantile(p, df float64) float64 {
	switch {
	case df <= 0 || math.IsNaN(p):
		return math.NaN()
	case p <= 0:
		return math.Inf(-1)
	case p >= 1:
		return math.Inf(1)
	case p == 0.5:
		return 0
	case p < 0.5:
		return -TQuantile(1-p, df)
	}
	// Bracket the root above zero, then bisect. TCDF is monotone, so plain
	// bisection is both robust at df=1 (Cauchy-fat tails) and deterministic.
	lo, hi := 0.0, 1.0
	for TCDF(hi, df) < p && hi < 1e300 {
		hi *= 2
	}
	for i := 0; i < 200 && hi-lo > 1e-15*(1+hi); i++ {
		mid := 0.5 * (lo + hi)
		if TCDF(mid, df) < p {
			lo = mid
		} else {
			hi = mid
		}
	}
	return 0.5 * (lo + hi)
}

// regIncBeta returns the regularized incomplete beta function I_x(a, b)
// using the standard continued-fraction expansion (Lentz's method).
func regIncBeta(a, b, x float64) float64 {
	if x <= 0 {
		return 0
	}
	if x >= 1 {
		return 1
	}
	lg1, _ := math.Lgamma(a + b)
	lg2, _ := math.Lgamma(a)
	lg3, _ := math.Lgamma(b)
	front := math.Exp(lg1 - lg2 - lg3 + a*math.Log(x) + b*math.Log(1-x))
	// The continued fraction converges fastest below the mean; use the
	// symmetry I_x(a,b) = 1 - I_{1-x}(b,a) on the other side.
	if x < (a+1)/(a+b+2) {
		return front * betaCF(a, b, x) / a
	}
	return 1 - front*betaCF(b, a, 1-x)/b
}

// betaCF evaluates the continued fraction for the incomplete beta function
// (modified Lentz's method, as in Numerical Recipes).
func betaCF(a, b, x float64) float64 {
	const (
		maxIter = 300
		eps     = 3e-16
		fpmin   = 1e-300
	)
	qab, qap, qam := a+b, a+1, a-1
	c := 1.0
	d := 1 - qab*x/qap
	if math.Abs(d) < fpmin {
		d = fpmin
	}
	d = 1 / d
	h := d
	for m := 1; m <= maxIter; m++ {
		fm, fm2 := float64(m), float64(2*m)
		aa := fm * (b - fm) * x / ((qam + fm2) * (a + fm2))
		d = 1 + aa*d
		if math.Abs(d) < fpmin {
			d = fpmin
		}
		c = 1 + aa/c
		if math.Abs(c) < fpmin {
			c = fpmin
		}
		d = 1 / d
		h *= d * c
		aa = -(a + fm) * (qab + fm) * x / ((a + fm2) * (qap + fm2))
		d = 1 + aa*d
		if math.Abs(d) < fpmin {
			d = fpmin
		}
		c = 1 + aa/c
		if math.Abs(c) < fpmin {
			c = fpmin
		}
		d = 1 / d
		del := d * c
		h *= del
		if math.Abs(del-1) < eps {
			break
		}
	}
	return h
}

// RankDescending returns the indices of xs sorted from largest to smallest
// value. Ties preserve the original order (stable).
func RankDescending(xs []float64) []int {
	idx := make([]int, len(xs))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool { return xs[idx[a]] > xs[idx[b]] })
	return idx
}

// RankAscending returns the indices of xs sorted from smallest to largest
// value. Ties preserve the original order (stable).
func RankAscending(xs []float64) []int {
	idx := make([]int, len(xs))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool { return xs[idx[a]] < xs[idx[b]] })
	return idx
}

// BootstrapCI returns a percentile bootstrap confidence interval for the
// mean of xs at the given confidence level (e.g. 0.95), using resamples
// drawn from rng. The experiment harness uses it to report uncertainty on
// trial means.
func BootstrapCI(xs []float64, confidence float64, resamples int, rng *RNG) (lo, hi float64) {
	if len(xs) == 0 {
		return 0, 0
	}
	if len(xs) == 1 {
		return xs[0], xs[0]
	}
	if resamples <= 0 {
		resamples = 1000
	}
	if confidence <= 0 || confidence >= 1 {
		confidence = 0.95
	}
	means := make([]float64, resamples)
	for r := range means {
		sum := 0.0
		for i := 0; i < len(xs); i++ {
			sum += xs[rng.Intn(len(xs))]
		}
		means[r] = sum / float64(len(xs))
	}
	alpha := (1 - confidence) / 2
	return Quantile(means, alpha), Quantile(means, 1-alpha)
}
