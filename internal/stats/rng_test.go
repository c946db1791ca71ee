package stats

import (
	"math"
	"math/rand"
	"testing"
)

// opKind names one RNG method in the scripts that compare an RNG with
// math/rand.
type opKind byte

const (
	opFloat64 opKind = iota
	opIntn
	opInt63
	opNorm
	opNormMuSigma
	opNormFill
	opPerm
	opShuffle
	opDerive
	numOps
)

// streamOp is one call of such a script; n is Intn's bound, NormFill's
// length, Perm's and Shuffle's size or Derive's label.
type streamOp struct {
	kind opKind
	n    int
}

// refDerive is Derive's seed rule applied to a math/rand stream.
func refDerive(ref *rand.Rand, label int64) *rand.Rand {
	z := uint64(ref.Int63()) ^ (uint64(label) * 0x9e3779b97f4a7c15)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	z ^= z >> 31
	return rand.New(rand.NewSource(int64(z)))
}

// checkOp makes op's call on r and on ref, fails unless both return the
// same bits and then the same next Int63, and returns the pair the
// script continues on: the children after a Derive, else r and ref.
func checkOp(t testing.TB, r *RNG, ref *rand.Rand, op streamOp) (*RNG, *rand.Rand) {
	t.Helper()
	same := func(what string, got, want float64) {
		t.Helper()
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("%s (op %+v) = %v, math/rand gives %v", what, op, got, want)
		}
	}
	sameInts := func(what string, got, want []int) {
		t.Helper()
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%s(%d)[%d] = %d, math/rand gives %d", what, op.n, i, got[i], want[i])
			}
		}
	}
	switch op.kind {
	case opFloat64:
		same("Float64", r.Float64(), ref.Float64())
	case opIntn:
		if got, want := r.Intn(op.n), ref.Intn(op.n); got != want {
			t.Fatalf("Intn(%d) = %d, math/rand gives %d", op.n, got, want)
		}
	case opInt63:
		if got, want := r.Int63(), ref.Int63(); got != want {
			t.Fatalf("Int63 = %d, math/rand gives %d", got, want)
		}
	case opNorm:
		same("Norm", r.Norm(), ref.NormFloat64())
	case opNormMuSigma:
		mu, sigma := float64(op.n)/7, 0.5+float64(op.n)/3
		same("NormMuSigma", r.NormMuSigma(mu, sigma), mu+sigma*ref.NormFloat64())
	case opNormFill:
		dst := make([]float64, op.n)
		r.NormFill(dst)
		for _, got := range dst {
			same("NormFill", got, ref.NormFloat64())
		}
	case opPerm:
		sameInts("Perm", r.Perm(op.n), ref.Perm(op.n))
	case opShuffle:
		got, want := make([]int, op.n), make([]int, op.n)
		for i := range got {
			got[i], want[i] = i, i
		}
		r.Shuffle(op.n, func(i, j int) { got[i], got[j] = got[j], got[i] })
		ref.Shuffle(op.n, func(i, j int) { want[i], want[j] = want[j], want[i] })
		sameInts("Shuffle", got, want)
	case opDerive:
		r, ref = r.Derive(int64(op.n)), refDerive(ref, int64(op.n))
	}
	if got, want := r.Int63(), ref.Int63(); got != want {
		t.Fatalf("next Int63 after %+v = %d, math/rand gives %d", op, got, want)
	}
	return r, ref
}

// streamSeeds are the seeds the stream tests start from: zero and its
// substitute 89482311 (math/rand seeds 0 as 89482311), both signs,
// both sides of the 2^31-1 modulus, and the int64 extremes.
var streamSeeds = []int64{0, 1, -1, 2008, 89482311, 1<<31 - 2, 1<<31 - 1, 1 << 31, math.MinInt64, math.MaxInt64}

// streamScript mixes every method: Intn bounds small, powers of two,
// with rejection rates near 1/2 and above 2^31-1; NormFill lengths from
// 0 past several register wraps; Perm, Shuffle and Derive chains.
var streamScript = []streamOp{
	{opFloat64, 0}, {opInt63, 0}, {opNorm, 0},
	{opIntn, 1}, {opIntn, 2}, {opIntn, 3}, {opIntn, 10}, {opIntn, 1000},
	{opIntn, 64}, {opIntn, 1 << 20}, {opIntn, 1 << 30}, {opIntn, 1<<30 + 1},
	{opIntn, 1<<31 - 2}, {opIntn, 1<<31 - 1}, {opIntn, 1 << 31}, {opIntn, 1<<31 + 1},
	{opIntn, 1<<40 + 7}, {opIntn, 1 << 62}, {opIntn, 1<<62 + 1}, {opIntn, math.MaxInt64},
	{opNormFill, 0}, {opNormFill, 1}, {opNormFill, 2}, {opNormFill, 3},
	{opNormMuSigma, 5}, {opNormFill, 17}, {opNormFill, 272}, {opNormFill, 273},
	{opNorm, 0}, {opNormFill, 606}, {opNormFill, 607}, {opNormFill, 608},
	{opPerm, 0}, {opPerm, 1}, {opPerm, 5}, {opPerm, 50},
	{opShuffle, 0}, {opShuffle, 1}, {opShuffle, 10}, {opShuffle, 100},
	{opNormFill, 1000}, {opFloat64, 0}, {opNormFill, 3000},
	{opDerive, 1}, {opNorm, 0}, {opDerive, -3}, {opDerive, 1 << 40}, {opNormFill, 25},
	{opDerive, 0}, {opIntn, 7}, {opNormFill, 2500},
}

// TestRNGMatchesMathRand pins the in-package generator to math/rand: from
// every seed, the script's calls return what rand.New(rand.NewSource(seed))
// returns, bit for bit, and leave both streams at the same word.
func TestRNGMatchesMathRand(t *testing.T) {
	for _, seed := range streamSeeds {
		r, ref := NewRNG(seed), rand.New(rand.NewSource(seed))
		for round := 0; round < 3; round++ {
			for _, op := range streamScript {
				r, ref = checkOp(t, r, ref, op)
			}
		}
	}
}

// wordSource serves a copy of an RNG's register to math/rand as a
// rand.Source, so both sides read the same words.
type wordSource struct{ r RNG }

func (s *wordSource) Int63() int64 { return s.r.Int63() }
func (s *wordSource) Seed(int64)   { panic("wordSource: Seed") }

// script makes the next len(words) words of r equal words: it zeroes the
// tap slots those steps read and puts the words in their feed slots.
// Within rngTap steps no step reads a slot an earlier one wrote, so at
// most rngTap words can be scripted.
func script(t *testing.T, r *RNG, words []uint64) {
	t.Helper()
	if len(words) > rngTap {
		t.Fatalf("%d scripted words, at most %d fit", len(words), rngTap)
	}
	for k, w := range words {
		r.vec[(r.tap-k-1+rngLen)%rngLen] = 0
		r.vec[(r.feed-k-1+rngLen)%rngLen] = int64(w)
	}
}

// jWord is a word whose uint32() is j. The low 31 bits and the top bit,
// which the ziggurat never reads, are set to catch a wrong shift or mask.
func jWord(j int32) uint64 { return uint64(uint32(j))<<31 | 1<<63 | 0x5bd1e995 }

// uWord is a word whose Float64 is u, for u in [0,1).
func uWord(u float64) uint64 { return uint64(u * (1 << 63)) }

// stripJ returns a j in strip i (j&0x7F == i) with sign sign whose
// magnitude is the largest below m (above false) or the smallest at or
// above m (above true); ok is false if there is none.
func stripJ(i int32, m uint32, sign int32, above bool) (j int32, ok bool) {
	strip := func(a uint32) int32 { return sign * int32(a) & 0x7F }
	if above {
		for a := m; a < m+128; a++ {
			if a <= math.MaxInt32 && strip(a) == i {
				return sign * int32(a), true
			}
		}
		return 0, false
	}
	for a := int64(m) - 1; a >= 0 && a > int64(m)-129; a-- {
		if strip(uint32(a)) == i {
			return sign * int32(a), true
		}
	}
	return 0, false
}

// TestNormStripBoundaries scripts the register so that the ziggurat's
// first draw sits at each strip's acceptance bound kn[i]: for all 128
// strips, both signs, the literal draws j = ±kn[i] and ±(kn[i]-1) and the
// draws of strip i closest to kn[i] from below and from above, and
// j = MinInt32. Wedge draws are scripted to accept and to reject, twice
// in a row, with a uniform that fails the fast test itself and with one
// that rounds to 1 and is drawn again; tail draws to loop once and to hit
// Float64's resample of a draw that rounds to 1. Norm, a short NormFill
// and a NormFill on the kernel must return what math/rand's NormFloat64
// returns on the same words, and leave the stream at the same word. The
// kernel's fills put the scripted words after 40 to 43 others, so that
// the case starts at each lane of a group of four.
func TestNormStripBoundaries(t *testing.T) {
	fill := jWord(0) // strip 0, accepted at once: Norm returns 0
	var cases [][]uint64
	add := func(j int32) {
		i := j & 0x7F
		switch {
		case i == 0:
			// Tail: the first pair rejects (x about 4, y about 1e-6), a
			// draw that rounds to 1 is redrawn, the second pair accepts.
			cases = append(cases,
				[]uint64{jWord(j), uWord(0x1p-20), uWord(1 - 0x1p-20), 1<<63 - 1, uWord(0.5), uWord(0.5), fill},
				[]uint64{jWord(j), uWord(0.25), uWord(0.75), fill})
		default:
			// Wedge: U = 0 accepts wherever the curve clears fn[i];
			// U just below 1 rejects, and the next draw is then j = 0.
			cases = append(cases,
				[]uint64{jWord(j), uWord(0), fill},
				[]uint64{jWord(j), uWord(1 - 0x1p-53), fill, fill},
				[]uint64{jWord(j), uWord(0.5), fill, fill},
				[]uint64{jWord(j), uWord(1 - 0x1p-53), jWord(j), uWord(1 - 0x1p-53), fill, fill},
				[]uint64{jWord(j), jWord(j), fill, fill},
				[]uint64{jWord(j), 1<<63 - 1, uWord(0.5), fill, fill})
		}
	}
	for i := int32(0); i < 128; i++ {
		for _, sign := range []int32{1, -1} {
			for _, m := range []uint32{kn[i], kn[i] - 1} {
				if m <= math.MaxInt32 { // kn[1] is 0: kn[1]-1 wraps
					add(sign * int32(m))
				}
			}
			for _, above := range []bool{false, true} {
				if j, ok := stripJ(i, kn[i], sign, above); ok {
					add(j)
				}
			}
		}
	}
	add(math.MinInt32)
	dst := make([]float64, 256)
	for _, words := range cases {
		// -1 draws with Norm, 0 with a 3-draw NormFill, and 40 to 43 put
		// the words that far into a fill on the kernel.
		for _, lead := range []int{-1, 0, 40, 41, 42, 43} {
			r := NewRNG(1)
			led := make([]uint64, max(lead, 0), max(lead, 0)+len(words))
			for k := range led {
				led[k] = fill
			}
			script(t, r, append(led, words...))
			ref := rand.New(&wordSource{r: *r})
			switch lead {
			case -1:
				for k := 0; k < 3; k++ {
					if got, want := r.Norm(), ref.NormFloat64(); math.Float64bits(got) != math.Float64bits(want) {
						t.Fatalf("words %#x: Norm #%d = %v, math/rand gives %v", words, k, got, want)
					}
				}
			default:
				n := 3
				if lead > 0 {
					n = len(dst)
				}
				r.NormFill(dst[:n])
				for k, got := range dst[:n] {
					if want := ref.NormFloat64(); math.Float64bits(got) != math.Float64bits(want) {
						t.Fatalf("words %#x after %d: NormFill[%d] = %v, math/rand gives %v", words, lead, k, got, want)
					}
				}
			}
			if got, want := r.Int63(), ref.Int63(); got != want {
				t.Fatalf("words %#x after %d: next Int63 = %d, math/rand gives %d", words, lead, got, want)
			}
		}
	}
	// The scripted words come out unchanged.
	r := NewRNG(5)
	words := make([]uint64, rngTap)
	for k := range words {
		words[k] = uint64(k)*0x9e3779b97f4a7c15 | 1
	}
	script(t, r, words)
	for k, w := range words {
		if got := r.uint64(); got != w {
			t.Fatalf("scripted word %d = %#x, want %#x", k, got, w)
		}
	}
}

// TestFloat64Resample pins the one Float64 branch the streams almost
// never reach: a 63-bit draw that rounds to 2^63 is drawn again.
func TestFloat64Resample(t *testing.T) {
	r := NewRNG(3)
	script(t, r, []uint64{1<<63 - 1, 1<<63 - 512, uWord(0.125)})
	ref := rand.New(&wordSource{r: *r})
	for k := 0; k < 2; k++ {
		if got, want := r.Float64(), ref.Float64(); got != want || got >= 1 {
			t.Fatalf("Float64 #%d = %v, math/rand gives %v", k, got, want)
		}
	}
}

// TestShuffleSeedPanics: math/rand's Seed must not reach an RNG through
// Shuffle's adapter.
func TestShuffleSeedPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Seed on the adapter did not panic")
		}
	}()
	source{NewRNG(1)}.Seed(2)
}

// FuzzRNGStream decodes a seed and a call script from the fuzz bytes and
// runs it against math/rand: the first eight bytes are the seed, then
// each pair of bytes is one call, the first byte picking the method and
// the second its argument.
func FuzzRNGStream(f *testing.F) {
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0, 0, 5, 200, 1, 7, 3, 0})
	f.Add([]byte{0xff, 0xff, 0xff, 0x7f, 0, 0, 0, 0, 1, 255, 5, 255, 8, 3, 6, 40, 7, 30})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 8 {
			return
		}
		var seed int64
		for _, b := range data[:8] {
			seed = seed<<8 | int64(b)
		}
		r, ref := NewRNG(seed), rand.New(rand.NewSource(seed))
		ops := data[8:]
		if len(ops) > 64 {
			ops = ops[:64]
		}
		for k := 0; k+1 < len(ops); k += 2 {
			op := streamOp{kind: opKind(ops[k] % byte(numOps)), n: int(ops[k+1])}
			switch op.kind {
			case opIntn:
				// Spread the byte over small bounds, powers of two and
				// bounds above 2^31-1.
				op.n = 1 + op.n*op.n*op.n<<(op.n%40)
			case opNormFill:
				op.n *= 13 // up to 3315 draws, every length mod 4
			}
			r, ref = checkOp(t, r, ref, op)
		}
	})
}

// TestSeedrandMatchesSchrage compares seedrand with math/rand's
// Schrage-method step on the ends of its domain, around the multiples of
// Schrage's quotient, and on a million random states.
func TestSeedrandMatchesSchrage(t *testing.T) {
	schrage := func(x int32) int32 {
		const (
			a = 48271
			q = 44488
			r = 3399
		)
		hi := x / q
		lo := x % q
		x = a*lo - r*hi
		if x < 0 {
			x += int32max
		}
		return x
	}
	xs := []int32{1, 2, 3, int32max - 2, int32max - 1, 44487, 44488, 44489, 3399, 48271, 89482311}
	for k := int32(1); k < 48271; k += 997 {
		xs = append(xs, k*44488-1, k*44488, k*44488+1)
	}
	g := rand.New(rand.NewSource(4))
	for k := 0; k < 1000000; k++ {
		xs = append(xs, 1+g.Int31n(int32max-1))
	}
	for _, x := range xs {
		if got, want := seedrand(x), schrage(x); got != want {
			t.Fatalf("seedrand(%d) = %d, Schrage's method gives %d", x, got, want)
		}
	}
}

// TestIntnPanics: like math/rand, Intn rejects a bound below 1.
func TestIntnPanics(t *testing.T) {
	for _, n := range []int{0, -1, math.MinInt} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("Intn(%d) did not panic", n)
				}
			}()
			NewRNG(1).Intn(n)
		}()
	}
}
