package anneal

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"vasched/internal/stats"
)

// refSolve is SolveScratch as it stood when every proposal coordinate
// called Norm and branched on its step, kept verbatim except that it
// draws through math/rand, whose stream stats.RNG reproduces, and owns
// its vectors. It is the reference the solver must match bit for bit.
func refSolve(p *Problem, cfg Config, rng *rand.Rand) (Result, error) {
	n := len(p.Card)
	if n == 0 {
		return Result{}, errors.New("anneal: empty problem")
	}
	if len(p.Init) != n {
		return Result{}, fmt.Errorf("anneal: init has %d coordinates, want %d", len(p.Init), n)
	}
	for i, c := range p.Card {
		if c <= 0 {
			return Result{}, fmt.Errorf("anneal: coordinate %d has cardinality %d", i, c)
		}
		if p.Init[i] < 0 || p.Init[i] >= c {
			return Result{}, fmt.Errorf("anneal: init[%d]=%d outside [0,%d)", i, p.Init[i], c)
		}
	}
	eval := p.Eval
	if eval == nil {
		if p.Feasible == nil || p.Objective == nil {
			return Result{}, errors.New("anneal: problem needs Eval or Feasible+Objective")
		}
		eval = func(x []int) (float64, bool) {
			if !p.Feasible(x) {
				return 0, false
			}
			return p.Objective(x), true
		}
	}
	initVal, ok := eval(p.Init)
	if !ok {
		return Result{}, errors.New("anneal: initial state infeasible")
	}
	if cfg.MaxEvals <= 0 {
		cfg.MaxEvals = 20000
	}
	if cfg.InitialTemp <= 0 {
		cfg.InitialTemp = 1
	}
	if cfg.KernelScale <= 0 {
		cfg.KernelScale = 3
	}

	cur, cand, best := make([]int, n), make([]int, n), make([]int, n)
	copy(cur, p.Init)
	curVal := initVal
	copy(best, cur)
	bestVal := curVal
	evals := 1

	for evals < cfg.MaxEvals {
		// Logarithmic cooling: T_k = T0 / ln(e + k).
		temp := cfg.InitialTemp / math.Log(math.E+float64(evals))

		// Gaussian Markov kernel scaled by the current temperature.
		scale := cfg.KernelScale * temp / cfg.InitialTemp
		if scale < 0.6 {
			scale = 0.6
		}
		copy(cand, cur)
		moved := false
		for i := 0; i < n; i++ {
			step := int(math.Round(rng.NormFloat64() * scale))
			if step == 0 {
				continue
			}
			v := cand[i] + step
			if v < 0 {
				v = 0
			}
			if v >= p.Card[i] {
				v = p.Card[i] - 1
			}
			if v != cand[i] {
				cand[i] = v
				moved = true
			}
		}
		if !moved {
			// Force a single-coordinate move so the chain cannot stall.
			i := rng.Intn(n)
			if cand[i]+1 < p.Card[i] && (cand[i] == 0 || rng.Float64() < 0.5) {
				cand[i]++
			} else if cand[i] > 0 {
				cand[i]--
			}
		}
		v, ok := eval(cand)
		evals++
		if !ok {
			continue
		}
		if refAccept(v-curVal, temp, rng) {
			copy(cur, cand)
			curVal = v
			if v > bestVal {
				bestVal = v
				copy(best, cur)
			}
		}
	}
	return Result{X: best, Value: bestVal, Evals: evals}, nil
}

// refAccept is accept as refSolve calls it.
func refAccept(delta, temp float64, rng *rand.Rand) bool {
	if delta >= 0 {
		return true
	}
	if temp <= 0 {
		return false
	}
	return rng.Float64() < math.Exp(delta/temp)
}

// sameResult fails unless got equals the reference want in X, in the bits
// of Value and in Evals, and the two streams then give the same next
// word.
func sameResult(t testing.TB, what string, got, want Result, r *stats.RNG, ref *rand.Rand) {
	t.Helper()
	if math.Float64bits(got.Value) != math.Float64bits(want.Value) || got.Evals != want.Evals {
		t.Fatalf("%s: value %v after %d evals, reference %v after %d", what, got.Value, got.Evals, want.Value, want.Evals)
	}
	for i := range want.X {
		if got.X[i] != want.X[i] {
			t.Fatalf("%s: X = %v, reference %v", what, got.X, want.X)
		}
	}
	if g, w := r.Int63(), ref.Int63(); g != w {
		t.Fatalf("%s: next draw %d, reference %d", what, g, w)
	}
}

// drawProblem draws one problem for the reference comparison: n in
// [1, 24] coordinates with cardinalities from 1 (every fifth coordinate)
// to 16, a weighted objective with one pairwise term so the landscape is
// not separable, and a knapsack constraint that the start satisfies. Odd
// draws use the combined Eval, even ones Feasible plus Objective.
func drawProblem(g *rand.Rand, k int) *Problem {
	n := 1 + g.Intn(24)
	card, init := make([]int, n), make([]int, n)
	w, cost := make([]float64, n), make([]int, n)
	used := 0
	for i := range card {
		card[i] = 1 + g.Intn(16)
		if g.Intn(5) == 0 {
			card[i] = 1
		}
		init[i] = g.Intn(card[i])
		w[i] = g.NormFloat64()
		cost[i] = g.Intn(4)
		used += cost[i] * init[i]
	}
	limit := used + g.Intn(30)
	value := func(x []int) (float64, bool) {
		v, c := 0.0, 0
		for i, xi := range x {
			v += w[i] * float64(xi)
			c += cost[i] * xi
		}
		v -= 0.1 * float64(x[0]*x[len(x)-1])
		return v, c <= limit
	}
	if k%2 == 1 {
		return &Problem{Card: card, Eval: value, Init: init}
	}
	return &Problem{
		Card:      card,
		Objective: func(x []int) float64 { v, _ := value(x); return v },
		Feasible:  func(x []int) bool { _, ok := value(x); return ok },
		Init:      init,
	}
}

// TestSolveMatchesReference draws 240 problems and configurations and
// requires SolveScratch, through one Scratch reused across every shape,
// to reproduce refSolve exactly. The configurations cover budgets from 1
// to 3000 evaluations (and the default), zero and negative temperatures
// and kernel scales (the defaults apply), tiny and huge scales, and a
// kernel scale so large that the scaled draws overflow to ±Inf.
func TestSolveMatchesReference(t *testing.T) {
	g := rand.New(rand.NewSource(2008))
	temps := []float64{0, -1, 1e-300, 1e-9, 0.5, 1, 2.5, 7, 1e12, 1e300}
	scales := []float64{0, -2, 1e-300, 1e-6, 0.3, 3, 40, 1e6, 1e300, math.MaxFloat64}
	var scr Scratch
	for k := 0; k < 240; k++ {
		p := drawProblem(g, k)
		cfg := Config{
			MaxEvals:    1 + g.Intn(3000),
			InitialTemp: temps[g.Intn(len(temps))],
			KernelScale: scales[g.Intn(len(scales))],
		}
		switch k {
		case 0:
			cfg.MaxEvals = 1
		case 1:
			cfg.MaxEvals = 0
		case 2:
			cfg.MaxEvals = -5
		}
		seed := g.Int63()
		r, ref := stats.NewRNG(seed), rand.New(rand.NewSource(seed))
		got, err := SolveScratch(p, cfg, r, &scr)
		if err != nil {
			t.Fatal(err)
		}
		want, err := refSolve(p, cfg, ref)
		if err != nil {
			t.Fatal(err)
		}
		sameResult(t, fmt.Sprintf("problem %d (n=%d, %+v)", k, len(p.Card), cfg), got, want, r, ref)
	}
}

func TestRoundInt(t *testing.T) {
	for _, x := range []float64{
		0, math.Copysign(0, -1), 0.5, -0.5, 1.5, -1.5, 2.5, -2.5,
		0.49999999999999994, -0.49999999999999994, math.Nextafter(0.5, 1), 1 - 0x1p-53,
		0x1p52 - 0.5, 0x1p52 + 1, 0x1p53, 0x1p62 + 0x1p10, 0x1p63, -0x1p63, 0x1p64, 1e300, -1e300,
		math.Inf(1), math.Inf(-1), math.NaN(), 5e-324, -5e-324,
	} {
		if got, want := roundInt(x), int(math.Round(x)); got != want {
			t.Errorf("roundInt(%v) = %d, int(math.Round) gives %d", x, got, want)
		}
	}
	g := rand.New(rand.NewSource(1))
	for k := 0; k < 100000; k++ {
		x := g.NormFloat64() * math.Pow(2, float64(g.Intn(70)-10))
		if got, want := roundInt(x), int(math.Round(x)); got != want {
			t.Fatalf("roundInt(%v) = %d, int(math.Round) gives %d", x, got, want)
		}
	}
}
