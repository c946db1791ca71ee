package vmath

import (
	"encoding/binary"
	"math"
	"math/rand"
	"os"
	"runtime"
	"slices"
	"strings"
	"testing"
)

// TestActiveExpKernel pins which loop each build runs: the kernel on
// amd64 without the race detector when /proc/cpuinfo lists avx2 and fma
// and GODEBUG leaves math.Exp its FMA path, else the math.Exp loop.
func TestActiveExpKernel(t *testing.T) {
	want := false
	if runtime.GOARCH == "amd64" && !raceEnabled {
		flags, ok := linuxFlags()
		if !ok {
			t.Skip("no CPU flags to check the kernel choice against")
		}
		want = slices.Contains(flags, "avx2") && slices.Contains(flags, "fma") && !fmaOffInGODEBUG()
	}
	if useKernel != want {
		t.Fatalf("race=%v GOARCH=%s GODEBUG=%q: kernel in use %v, want %v",
			raceEnabled, runtime.GOARCH, os.Getenv("GODEBUG"), useKernel, want)
	}
}

// fmaOffInGODEBUG reports whether GODEBUG turns off a CPU feature that
// math.Exp's FMA path needs.
func fmaOffInGODEBUG() bool {
	for _, kv := range strings.Split(os.Getenv("GODEBUG"), ",") {
		switch strings.TrimSpace(kv) {
		case "cpu.fma=off", "cpu.avx=off", "cpu.all=off":
			return true
		}
	}
	return false
}

// linuxFlags returns the first CPU's flags in /proc/cpuinfo; ok is false
// where there is no such line.
func linuxFlags() (flags []string, ok bool) {
	if runtime.GOOS != "linux" {
		return nil, false
	}
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return nil, false
	}
	for _, line := range strings.Split(string(b), "\n") {
		if key, list, found := strings.Cut(line, ":"); found && strings.TrimSpace(key) == "flags" {
			return strings.Fields(list), true
		}
	}
	return nil, false
}

// checkExp runs Exp on src into a fresh dst, and again in place, and
// requires math.Exp's bits in every element, NaN payloads included.
// Elements past the slices must stay untouched.
func checkExp(t *testing.T, what string, src []float64) {
	t.Helper()
	const guard = 7.5
	dst := make([]float64, len(src)+1)
	dst[len(src)] = guard
	Exp(dst[:len(src)], src)
	inPlace := append(slices.Clone(src), guard)
	Exp(inPlace[:len(src)], inPlace[:len(src)])
	for i, x := range src {
		want := math.Float64bits(math.Exp(x))
		if got := math.Float64bits(dst[i]); got != want {
			t.Fatalf("%s: element %d of %d: Exp(%v) = %v (%#x), math.Exp %v (%#x)",
				what, i, len(src), x, dst[i], got, math.Exp(x), want)
		}
		if got := math.Float64bits(inPlace[i]); got != want {
			t.Fatalf("%s, in place: element %d of %d: Exp(%v) = %v, math.Exp %v",
				what, i, len(src), x, inPlace[i], math.Exp(x))
		}
	}
	if dst[len(src)] != guard || inPlace[len(src)] != guard {
		t.Fatalf("%s: Exp wrote past %d elements", what, len(src))
	}
}

// twinLengths are the slice lengths the twin test runs: every length to
// two groups and a tail, a group around 64, a transient tick's 200
// leakage exponentials, and a long run.
var twinLengths = []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 63, 64, 65, 200, 4096}

// archExp's thresholds: the overflow limit it tests first, and the
// arguments where k + 1023, k = round(x·log2e), leaves [1, 2046], which
// send it to its overflow and denormal branches; below -1075.5·ln2 it
// returns 0.
var thresholds = []float64{
	700, -700,
	7.09782712893384e+02,
	1023.5 * math.Ln2, -1022.5 * math.Ln2, -1075.5 * math.Ln2,
}

// specialInputs lists arguments at the edges: each side of every
// threshold, multiples of ln2 (where the reduction leaves nothing) and
// the half-way points (j+½)·ln2, where x·log2e rounds to even, with
// their neighbours, plus the non-finite values and the zeros.
func specialInputs() []float64 {
	out := []float64{0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1), math.NaN(),
		math.Float64frombits(0x7ff8000000000123), math.Float64frombits(0xfff4000000000001),
		math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64, 0x1p-1022, math.MaxFloat64, -math.MaxFloat64}
	near := func(x float64) {
		up, down := x, x
		for k := 0; k < 3; k++ {
			out = append(out, up, down)
			up, down = math.Nextafter(up, math.Inf(1)), math.Nextafter(down, math.Inf(-1))
		}
	}
	for _, x := range thresholds {
		near(x)
	}
	for j := -1080; j <= 1030; j += 7 {
		near(float64(j) * math.Ln2)
		near((float64(j) + 0.5) * math.Ln2)
	}
	return out
}

// TestExpMatchesMath compares Exp with math.Exp bit for bit: over the
// twin lengths, with dst and src starting at every offset mod 4 and in
// place, on normal draws, uniform draws over [−750, 750], random bit
// patterns (NaN, infinities, subnormals, zeros) and mixtures of the
// three, and on the special inputs in every group position.
func TestExpMatchesMath(t *testing.T) {
	if !useKernel {
		t.Log("no kernel in this build: Exp is compared with its own loop")
	}
	g := rand.New(rand.NewSource(27))
	draws := []struct {
		name string
		draw func() float64
	}{
		{"normal", func() float64 { return 40 * g.NormFloat64() }},
		{"uniform", func() float64 { return -750 + 1500*g.Float64() }},
		{"bits", func() float64 { return math.Float64frombits(g.Uint64()) }},
		{"mixed", func() float64 {
			switch g.Intn(8) {
			case 0:
				return math.Float64frombits(g.Uint64())
			case 1:
				return -750 + 1500*g.Float64()
			default:
				return g.NormFloat64()
			}
		}},
	}
	buf := make([]float64, 4096+3)
	for _, d := range draws {
		for _, n := range twinLengths {
			for off := 0; off < 4; off++ {
				src := buf[off : off+n]
				for i := range src {
					src[i] = d.draw()
				}
				checkExp(t, d.name, src)
			}
		}
	}
	special := specialInputs()
	for shift := 0; shift < 4; shift++ {
		src := make([]float64, 0, len(special)+shift)
		for i := 0; i < shift; i++ {
			src = append(src, 1)
		}
		checkExp(t, "special", append(src, special...))
	}
	// Each special input alone in a group of in-range arguments, in every
	// lane.
	for _, x := range special {
		for lane := 0; lane < 4; lane++ {
			src := []float64{-3, 0.25, 5, -650, 1, 2, 3, 4}
			src[lane] = x
			checkExp(t, "special in a group", src)
		}
	}
}

// The two paths of math's amd64 archExp, written out in Go: archFMA with
// math.FMA where the assembly fuses, archPlain with every operation
// rounded alone (the conversions keep the compiler from fusing). Both
// hold only for |x| ≤ 700, where neither takes a branch.
const (
	log2e = 1.4426950408889634073599246810018920
	ln2u  = 0.69314718055966295651160180568695068359375
	ln2l  = 0.28235290563031577122588448175013436025525412068e-12
)

var taylor = [...]float64{2.4801587301587301587e-5, 1.9841269841269841270e-4, 1.3888888888888888889e-3,
	8.3333333333333333333e-3, 4.1666666666666666667e-2, 1.6666666666666666667e-1, 0.5, 1.0}

func archFMA(x float64) float64 {
	k := math.RoundToEven(float64(x * log2e))
	r := math.FMA(-k, ln2u, x)
	r = math.FMA(-k, ln2l, r)
	r = float64(r * 0.0625)
	p := taylor[0]
	for _, c := range taylor[1:] {
		p = math.FMA(r, p, c)
	}
	r = float64(r * p)
	for i := 0; i < 3; i++ {
		r = float64(r * float64(r+2))
	}
	r = math.FMA(float64(r+2), r, 1)
	return float64(r * math.Float64frombits(uint64(int64(k)+1023)<<52))
}

func archPlain(x float64) float64 {
	k := math.RoundToEven(float64(x * log2e))
	r := float64(x - float64(k*ln2u))
	r = float64(r - float64(k*ln2l))
	r = float64(r * 0.0625)
	p := taylor[0]
	for _, c := range taylor[1:] {
		p = float64(float64(p*r) + c)
	}
	r = float64(r * p)
	for i := 0; i < 4; i++ {
		r = float64(r * float64(r+2))
	}
	r = float64(r + 1)
	return float64(r * math.Float64frombits(uint64(int64(k)+1023)<<52))
}

// TestProbeSeparatesFMAPaths checks that the probe can tell the two
// paths of math.Exp apart: the written-out paths differ at several of
// its points, so a math.Exp on the plain path fails the probe. Where the
// kernel is in use, math.Exp took the FMA path, and archFMA must then
// match it everywhere in the kernel's range.
func TestProbeSeparatesFMAPaths(t *testing.T) {
	differ := 0
	for _, x := range expProbe() {
		if math.Float64bits(archFMA(x)) != math.Float64bits(archPlain(x)) {
			differ++
		}
	}
	if differ < 4 {
		t.Fatalf("the probe separates the two paths at %d of %d points", differ, expProbeLen)
	}
	if !useKernel {
		return
	}
	g := rand.New(rand.NewSource(64))
	for i := 0; i < 100000; i++ {
		x := -700 + 1400*g.Float64()
		if a, b := archFMA(x), math.Exp(x); math.Float64bits(a) != math.Float64bits(b) {
			t.Fatalf("archFMA(%v) = %v, math.Exp %v", x, a, b)
		}
	}
}

// FuzzExp decodes up to 67 arguments from the fuzz bytes and compares
// Exp with math.Exp. The first byte picks the offset mod 4 of the
// slices; then each argument is nine bytes, a tag and eight bytes of a
// little-endian uint64 u: with the tag's low bit set the argument is u
// mapped into [−750, 750], else the float64 with u's bits.
func FuzzExp(f *testing.F) {
	f.Add(expFuzzInput(0, 1, 2, -700, 700, math.NaN()))
	f.Add(make([]byte, 1+9*9))
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		off := int(data[0] & 3)
		data = data[1:]
		n := min(len(data)/9, 67)
		buf := make([]float64, off+n)
		src := buf[off:]
		for i := range src {
			rec := data[9*i : 9*i+9]
			u := binary.LittleEndian.Uint64(rec[1:])
			if rec[0]&1 != 0 {
				src[i] = -750 + 1500*float64(u>>11)/(1<<53)
			} else {
				src[i] = math.Float64frombits(u)
			}
		}
		checkExp(t, "fuzz", src)
	})
}

// expFuzzInput encodes FuzzExp's input for the offset off and the
// arguments xs, each by its bits.
func expFuzzInput(off byte, xs ...float64) []byte {
	data := []byte{off}
	for _, x := range xs {
		data = binary.LittleEndian.AppendUint64(append(data, 0), math.Float64bits(x))
	}
	return data
}
