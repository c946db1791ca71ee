package stats

import "math/rand"

// The register of math/rand's additive lagged-Fibonacci generator
// (Mitchell and Reeds): word k is word k-607 plus word k-273, mod 2^64.
const (
	rngLen   = 607
	rngTap   = 273
	rngMask  = 1<<63 - 1
	int32max = 1<<31 - 1
)

// RNG is a deterministic random stream: math/rand's generator, run
// in-package. NewRNG(seed) holds the register that
// rand.NewSource(seed) seeds and steps it by the same recurrence, so
// Float64, Intn, Int63, Norm, Perm and Shuffle return what the same
// methods of rand.New(rand.NewSource(seed)) return (Norm is its
// NormFloat64), value for value and call for call; NormFill(dst)
// returns the next len(dst) Norm values. Go 1 compatibility freezes
// math/rand's stream, which is why this one can equal it.
// TestRNGMatchesMathRand, TestNormStripBoundaries and FuzzRNGStream pin
// the equality.
//
// An RNG is not safe for concurrent use, and its zero value is not a
// stream: use NewRNG.
type RNG struct {
	tap, feed int
	vec       [rngLen]int64
}

// cooked is the table math/rand XORs into every seeded register,
// recovered once per process from math/rand itself (recoverCooked), so
// no seeding constant is copied.
var cooked = recoverCooked()

// NewRNG returns a stream seeded with seed.
func NewRNG(seed int64) *RNG {
	r := new(RNG)
	r.seed(seed, &cooked)
	return r
}

// seed fills the register exactly as math/rand's Seed does: the
// Park–Miller sequence from seed mod 2^31-1 (0 maps to 89482311), 20
// steps discarded, then three words per register slot, XORed with
// cooked.
func (r *RNG) seed(seed int64, cooked *[rngLen]int64) {
	r.tap = 0
	r.feed = rngLen - rngTap
	seed %= int32max
	if seed < 0 {
		seed += int32max
	}
	if seed == 0 {
		seed = 89482311
	}
	x := int32(seed)
	for i := 0; i < 20; i++ {
		x = seedrand(x)
	}
	for i := range r.vec {
		x = seedrand(x)
		u := int64(x) << 40
		x = seedrand(x)
		u ^= int64(x) << 20
		x = seedrand(x)
		u ^= int64(x)
		r.vec[i] = u ^ cooked[i]
	}
}

// seedrand is the Park–Miller "minimal standard" step
// x -> 48271·x mod (2^31-1), for 0 < x < 2^31-1. math/rand computes it by
// Schrage's method; folding the 47-bit product at bit 31, since
// 2^31 = 1 mod 2^31-1, gives the same value with a shorter dependency
// chain, and seeding is 1,841 of these steps in a row.
func seedrand(x int32) int32 {
	p := uint64(x) * 48271
	y := p&int32max + p>>31
	if y >= int32max {
		y -= int32max
	}
	return int32(y)
}

// recoverCooked derives math/rand's seeding table. The first rngLen
// words a freshly seeded source returns each overwrite one register
// slot, so together they are the register rngLen steps on, with the
// indices back where seeding left them. Stepping the recurrence
// backwards from there yields the seeded register, and XORing out the
// Park–Miller words leaves the table.
func recoverCooked() [rngLen]int64 {
	const seed = 1
	src := rand.NewSource(seed).(rand.Source64)
	var r RNG
	r.tap, r.feed = 0, rngLen-rngTap
	for k := 0; k < rngLen; k++ {
		r.tap, r.feed = (r.tap+rngLen-1)%rngLen, (r.feed+rngLen-1)%rngLen
		r.vec[r.feed] = int64(src.Uint64())
	}
	for k := 0; k < rngLen; k++ {
		r.vec[r.feed] -= r.vec[r.tap]
		r.tap, r.feed = (r.tap+1)%rngLen, (r.feed+1)%rngLen
	}
	var words RNG
	words.seed(seed, &[rngLen]int64{})
	for i := range r.vec {
		r.vec[i] ^= words.vec[i]
	}
	return r.vec
}

// uint64 steps the register once and returns the new word.
func (r *RNG) uint64() uint64 {
	r.tap--
	if r.tap < 0 {
		r.tap += rngLen
	}
	r.feed--
	if r.feed < 0 {
		r.feed += rngLen
	}
	x := r.vec[r.feed] + r.vec[r.tap]
	r.vec[r.feed] = x
	return uint64(x)
}

// Derive returns a child stream whose seed is a deterministic function of
// the parent seed and the label. Batches of dies, per-trial workloads, and
// per-core noise all derive their streams this way so that adding one
// consumer does not perturb another.
func (r *RNG) Derive(label int64) *RNG {
	// SplitMix64-style mixing of the label with a draw from the parent.
	z := uint64(r.Int63()) ^ (uint64(label) * 0x9e3779b97f4a7c15)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	z ^= z >> 31
	return NewRNG(int64(z))
}

// Int63 returns a non-negative uniform 63-bit integer.
func (r *RNG) Int63() int64 { return int64(r.uint64() & rngMask) }

func (r *RNG) uint32() uint32 { return uint32(r.Int63() >> 31) }

func (r *RNG) int31() int32 { return int32(r.Int63() >> 32) }

// Float64 returns a uniform sample in [0,1). Like math/rand it divides a
// 63-bit draw by 2^63 and draws again in the rare case that rounds to 1.
func (r *RNG) Float64() float64 {
	for {
		if f := float64(r.Int63()) / (1 << 63); f < 1 {
			return f
		}
	}
}

// Intn returns a uniform sample in [0,n). It panics if n <= 0.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("invalid argument to Intn")
	}
	if n <= int32max {
		return int(r.int31n(int32(n)))
	}
	return int(r.int63n(int64(n)))
}

// int31n is math/rand's Int31n: a mask for powers of two, otherwise
// rejection above the largest multiple of n, then the remainder.
func (r *RNG) int31n(n int32) int32 {
	if n&(n-1) == 0 {
		return r.int31() & (n - 1)
	}
	max := int32((1 << 31) - 1 - (1<<31)%uint32(n))
	v := r.int31()
	for v > max {
		v = r.int31()
	}
	return v % n
}

// int63n is math/rand's Int63n, int31n's 63-bit twin.
func (r *RNG) int63n(n int64) int64 {
	if n&(n-1) == 0 {
		return r.Int63() & (n - 1)
	}
	max := int64((1 << 63) - 1 - (1<<63)%uint64(n))
	v := r.Int63()
	for v > max {
		v = r.Int63()
	}
	return v % n
}

// NormMuSigma returns a normal sample with the given mean and standard
// deviation.
func (r *RNG) NormMuSigma(mu, sigma float64) float64 {
	return mu + sigma*r.Norm()
}

// Perm returns a random permutation of [0,n).
func (r *RNG) Perm(n int) []int {
	m := make([]int, n)
	for i := 0; i < n; i++ {
		j := r.Intn(i + 1)
		m[i] = m[j]
		m[j] = i
	}
	return m
}

// Shuffle permutes the first n indices using swap. It runs math/rand's
// own Shuffle over this stream.
func (r *RNG) Shuffle(n int, swap func(i, j int)) { rand.New(source{r}).Shuffle(n, swap) }

// source serves an RNG's words to math/rand.
type source struct{ r *RNG }

func (s source) Int63() int64 { return s.r.Int63() }

func (s source) Seed(int64) { panic("stats: an RNG is seeded only by NewRNG") }
