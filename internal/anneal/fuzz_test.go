package anneal

import (
	"math/rand"
	"testing"

	"vasched/internal/stats"
)

// fuzzProblem decodes a small budget-constrained maximisation from fuzz
// bytes, mirroring the lp package's fuzz idiom: data[0] picks the
// coordinate count (1..4), data[1] the evaluation budget, data[2] the RNG
// seed, then each coordinate consumes two bytes (cardinality 1..16 and a
// starting point inside it), and a final byte sets the slack of the
// knapsack constraint above the starting point — so the initial state is
// always feasible and every decoded problem must solve.
func fuzzProblem(data []byte) (*Problem, Config, int64, int) {
	if len(data) < 4 {
		return nil, Config{}, 0, 0
	}
	n := 1 + int(data[0])%4
	need := 4 + 2*n
	if len(data) < need {
		return nil, Config{}, 0, 0
	}
	maxEvals := 50 + int(data[1])*8
	seed := int64(data[2])

	card := make([]int, n)
	init := make([]int, n)
	sum := 0
	for i := 0; i < n; i++ {
		card[i] = 1 + int(data[3+2*i])%16
		init[i] = int(data[4+2*i]) % card[i]
		sum += init[i]
	}
	cap := sum + int(data[3+2*n])%20

	p := &Problem{
		Card: card,
		Objective: func(x []int) float64 {
			v := 0
			for i, xi := range x {
				v += (i + 1) * xi
			}
			return float64(v)
		},
		Feasible: func(x []int) bool {
			s := 0
			for _, xi := range x {
				s += xi
			}
			return s <= cap
		},
		Init: init,
	}
	cfg := DefaultConfig(n)
	cfg.MaxEvals = maxEvals
	return p, cfg, seed, cap
}

// FuzzSolve checks the annealer's contract on arbitrary decoded problems:
// it must terminate without error inside the evaluation budget, return an
// in-bounds feasible state at least as good as the feasible starting
// point, reproduce the reference solver (refSolve) bit for bit, and the
// combined-Eval path must reproduce the split Feasible+Objective path
// exactly (same RNG stream consumption).
func FuzzSolve(f *testing.F) {
	f.Add([]byte{0, 0, 1, 4, 0, 7})                         // 1 coordinate, tiny budget
	f.Add([]byte{1, 10, 2, 8, 3, 8, 3, 5})                  // 2 coordinates, slack 5
	f.Add([]byte{3, 40, 9, 15, 0, 15, 0, 15, 0, 15, 0, 19}) // 4 wide coordinates, max slack
	f.Add([]byte{2, 0, 0, 1, 0, 1, 0, 1, 0, 0})             // all-singleton ladders, zero slack
	f.Add([]byte{3, 255, 77, 12, 11, 9, 8, 6, 5, 3, 2, 10}) // big budget, mixed start

	f.Fuzz(func(t *testing.T, data []byte) {
		p, cfg, seed, cap := fuzzProblem(data)
		if p == nil {
			return
		}
		r := stats.NewRNG(seed)
		res, err := Solve(p, cfg, r)
		if err != nil {
			t.Fatalf("Solve: %v", err)
		}
		ref := rand.New(rand.NewSource(seed))
		want, err := refSolve(p, cfg, ref)
		if err != nil {
			t.Fatalf("refSolve: %v", err)
		}
		sameResult(t, "Solve", *res, want, r, ref)
		if len(res.X) != len(p.Card) {
			t.Fatalf("X has %d coordinates, want %d", len(res.X), len(p.Card))
		}
		sum := 0
		for i, xi := range res.X {
			if xi < 0 || xi >= p.Card[i] {
				t.Fatalf("X[%d] = %d outside [0,%d)", i, xi, p.Card[i])
			}
			sum += xi
		}
		if sum > cap {
			t.Fatalf("infeasible result: sum %d > cap %d", sum, cap)
		}
		if res.Evals > cfg.MaxEvals {
			t.Fatalf("Evals %d exceeds budget %d", res.Evals, cfg.MaxEvals)
		}
		if initVal := p.Objective(p.Init); res.Value < initVal {
			t.Fatalf("Value %v below starting value %v", res.Value, initVal)
		}
		if res.Value != p.Objective(res.X) {
			t.Fatalf("Value %v inconsistent with Objective(X) = %v", res.Value, p.Objective(res.X))
		}

		// The combined evaluator must be a pure refactoring: same seed,
		// same decisions, same result.
		fused := &Problem{
			Card: p.Card,
			Eval: func(x []int) (float64, bool) {
				s, v := 0, 0
				for i, xi := range x {
					s += xi
					v += (i + 1) * xi
				}
				return float64(v), s <= cap
			},
			Init: p.Init,
		}
		res2, err := SolveScratch(fused, cfg, stats.NewRNG(seed), &Scratch{})
		if err != nil {
			t.Fatalf("SolveScratch: %v", err)
		}
		if res2.Value != res.Value || res2.Evals != res.Evals {
			t.Fatalf("fused Eval path (value %v, evals %d) != split path (value %v, evals %d)",
				res2.Value, res2.Evals, res.Value, res.Evals)
		}
		for i := range res.X {
			if res2.X[i] != res.X[i] {
				t.Fatalf("fused Eval path X = %v, split path X = %v", res2.X, res.X)
			}
		}
	})
}
