// Package anneal implements simulated annealing over integer-vector
// states, matching the configuration the paper uses for its SAnn baseline
// (Section 6.5): a Gaussian Markov proposal kernel whose scale is
// proportional to the current annealing temperature, a logarithmic cooling
// schedule, and a fixed budget of objective evaluations.
package anneal

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sync"

	"vasched/internal/farm"
	"vasched/internal/stats"
)

// Config tunes the annealer.
type Config struct {
	// MaxEvals is the objective-evaluation budget. The paper used 1e6;
	// the experiments here default to a smaller budget (see pm package)
	// because SAnn is invoked thousands of times across the sweeps.
	MaxEvals int
	// InitialTemp sets the starting annealing temperature. The paper
	// scales it with problem size; callers do the same.
	InitialTemp float64
	// Kernel scale is InitialTemp-proportional: at temperature T, each
	// coordinate moves by a Gaussian step of KernelScale*T/InitialTemp
	// positions (minimum 1).
	KernelScale float64
}

// defaultMaxEvals is the default evaluation budget.
const defaultMaxEvals = 20000

// coolingLogs returns ln(e+k), the cooling schedule's divisor at
// evaluation k, for every k below the default budget: one table for the
// process, built on first use and read-only after, in place of a
// math.Log per evaluation. Solves with a larger budget compute the
// logarithm past its end.
var coolingLogs = sync.OnceValue(func() []float64 {
	logs := make([]float64, defaultMaxEvals)
	for k := range logs {
		logs[k] = math.Log(math.E + float64(k))
	}
	return logs
})

// DefaultConfig returns a budget suitable for repeated on-line invocation.
func DefaultConfig(numVars int) Config {
	return Config{
		MaxEvals:    defaultMaxEvals,
		InitialTemp: 1 + float64(numVars)/4, // more randomness for larger problems
		KernelScale: 3,
	}
}

// Problem is a bounded integer-vector minimisation... maximisation:
// states are vectors x with 0 <= x[i] < Card[i]; Objective returns the
// value to maximize, and Feasible filters states (infeasible states are
// never accepted).
type Problem struct {
	// Card is the per-coordinate cardinality (number of discrete levels).
	Card []int
	// Objective returns the value to maximize for a feasible state.
	Objective func(x []int) float64
	// Feasible reports whether the state satisfies the hard constraints.
	Feasible func(x []int) bool
	// Eval, when non-nil, replaces the Objective/Feasible pair with one
	// combined call returning (value, feasible). It lets hot callers share
	// the per-candidate decoding work (e.g. pm.SAnn builds the ladder-level
	// vector once per candidate instead of once per closure) without
	// changing the solver's evaluation or RNG-consumption order: the solver
	// draws exactly the same random numbers whether it calls Eval once or
	// Feasible then Objective.
	Eval func(x []int) (float64, bool)
	// Init is the starting state; it must be feasible.
	Init []int
}

// Result is the best state found.
type Result struct {
	X     []int
	Value float64
	Evals int
	// Chain is the index of the chain that produced X when solving via
	// SolveParallel (0 for single-chain solves).
	Chain int
}

// Scratch holds the solver's working vectors so repeated solves (one per
// DVFS interval, thousands per experiment) allocate nothing. The zero
// value is ready to use; vectors grow on demand and are reused across
// calls.
type Scratch struct {
	cur, cand, best []int
	steps           []float64 // one proposal's normal draws
}

// grow resizes the scratch vectors to n coordinates, reusing capacity.
func (s *Scratch) grow(n int) {
	if cap(s.cur) < n {
		s.cur = make([]int, n)
		s.cand = make([]int, n)
		s.best = make([]int, n)
		s.steps = make([]float64, n)
	}
	s.cur = s.cur[:n]
	s.cand = s.cand[:n]
	s.best = s.best[:n]
	s.steps = s.steps[:n]
}

// Solve runs simulated annealing on p. It is a convenience wrapper around
// SolveScratch with fresh scratch, so the returned Result.X is owned by
// the caller.
func Solve(p *Problem, cfg Config, rng *stats.RNG) (*Result, error) {
	res, err := SolveScratch(p, cfg, rng, &Scratch{})
	if err != nil {
		return nil, err
	}
	return &res, nil
}

// SolveScratch runs simulated annealing on p using caller-provided
// scratch. With a reused Scratch and a Problem whose Eval avoids
// allocation, the whole anneal is allocation-free. The returned Result.X
// aliases scr's storage and is only valid until the next solve with the
// same scratch.
func SolveScratch(p *Problem, cfg Config, rng *stats.RNG, scr *Scratch) (Result, error) {
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
		cfg.MaxEvals = defaultMaxEvals
	}
	if cfg.InitialTemp <= 0 {
		cfg.InitialTemp = 1
	}
	if cfg.KernelScale <= 0 {
		cfg.KernelScale = 3
	}

	scr.grow(n)
	cur, cand, best, steps := scr.cur, scr.cand, scr.best, scr.steps
	card := p.Card[:n]
	copy(cur, p.Init)
	curVal := initVal
	copy(best, cur)
	bestVal := curVal
	evals := 1

	logs := coolingLogs()
	for evals < cfg.MaxEvals {
		// Logarithmic cooling: T_k = T0 / ln(e + k).
		var lnk float64
		if evals < len(logs) {
			lnk = logs[evals]
		} else {
			lnk = math.Log(math.E + float64(evals))
		}
		temp := cfg.InitialTemp / lnk

		// Gaussian Markov kernel scaled by the current temperature.
		scale := cfg.KernelScale * temp / cfg.InitialTemp
		if scale < 0.6 {
			scale = 0.6
		}
		// One draw per coordinate, in coordinate order, then a step with
		// no branch on the drawn values: they are random, so a branch on
		// them is mispredicted often. A zero step, or a clamp back onto
		// the coordinate, leaves it unchanged; moved collects the changed
		// bits.
		rng.NormFill(steps)
		moved := 0
		for i, z := range steps {
			c := cur[i]
			v := min(max(c+roundInt(z*scale), 0), card[i]-1)
			cand[i] = v
			moved |= v ^ c
		}
		if moved == 0 {
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
		if accept(v-curVal, temp, rng) {
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

// SolveParallel runs chains independent annealing chains and returns the
// best result. Each chain k solves prob(k) — a factory so every chain can
// own private scratch/closure state over shared read-only data — with an
// RNG stream derived deterministically from the parent as Derive(k+1).
// All streams are derived serially before the fan-out and the reduction
// walks chain results in chain order (strictly-greater wins, so ties go
// to the lowest chain index), making the outcome a function of (problems,
// cfg, rng seed, chains) alone: any workers value, including 1, produces
// byte-identical results. The returned Evals is the total across chains.
func SolveParallel(prob func(chain int) *Problem, cfg Config, rng *stats.RNG, chains, workers int) (Result, error) {
	if chains <= 0 {
		return Result{}, errors.New("anneal: SolveParallel needs at least one chain")
	}
	rngs := make([]*stats.RNG, chains)
	for k := range rngs {
		rngs[k] = rng.Derive(int64(k + 1))
	}
	results, err := farm.Collect(context.Background(), workers, chains, func(_ context.Context, k int) (Result, error) {
		r, err := SolveScratch(prob(k), cfg, rngs[k], &Scratch{})
		r.Chain = k
		return r, err
	})
	if err != nil {
		return Result{}, err
	}
	best := results[0]
	evals := results[0].Evals
	for _, r := range results[1:] {
		evals += r.Evals
		if r.Value > best.Value {
			best = r
		}
	}
	best.Evals = evals
	return best, nil
}

// roundInt returns int(math.Round(x)) for every x, NaN and ±Inf
// included, with no branch on x: Trunc is one instruction, x - t is
// exact (NaN for NaN and ±Inf, so those keep int(t)), and rounding half
// away from zero moves the truncation by one when |x - t| >= 0.5.
func roundInt(x float64) int {
	t := math.Trunc(x)
	d := x - t
	r := int(t)
	if d >= 0.5 {
		r++
	}
	if d <= -0.5 {
		r--
	}
	return r
}

// accept implements the Metropolis criterion for maximisation.
func accept(delta, temp float64, rng *stats.RNG) bool {
	if delta >= 0 {
		return true
	}
	if temp <= 0 {
		return false
	}
	return rng.Float64() < math.Exp(delta/temp)
}
