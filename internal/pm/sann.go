package pm

import (
	"context"
	"fmt"

	"vasched/internal/anneal"
	"vasched/internal/stats"
	"vasched/internal/trace"
)

// SAnn is the paper's simulated-annealing power manager (Section 4.3.2).
// Unlike LinOpt it evaluates power exactly at each candidate level (no
// linear approximation), so it can find slightly better points — at a
// computation cost orders of magnitude higher. The paper ran it with 1e6
// objective evaluations; the default budget here is smaller because the
// sweeps invoke it thousands of times (EXPERIMENTS.md documents the
// scaling).
//
// Every annealing candidate is scored straight from the snapshot's flat
// tables with zero allocation, in the same index order as the frozen
// interface-based closures in the tests, so decisions stay byte-identical
// to them.
type SAnn struct {
	// MaxEvals overrides the annealing budget; 0 uses the default.
	MaxEvals int
	// Objective selects raw-MIPS or weighted-throughput maximisation.
	Objective Objective
	// Chains selects parallel multi-chain annealing: when > 1, Decide
	// runs that many independent chains with deterministically derived
	// RNG streams (anneal.SolveParallel) and keeps the best result. The
	// default (0 or 1) is the single-chain path, which consumes the
	// caller's RNG stream directly and reproduces the historical
	// decisions exactly.
	Chains int
	// Workers bounds the chain fan-out (<= 0 means GOMAXPROCS). The
	// decision is identical for every Workers value.
	Workers int
}

// NewSAnn returns the manager with the default evaluation budget.
func NewSAnn() SAnn { return SAnn{} }

// Name implements Manager.
func (SAnn) Name() string { return NameSAnn }

// Decide implements Manager.
func (m SAnn) Decide(ctx context.Context, snap *Snapshot, b Budget, rng *stats.RNG) ([]int, error) {
	var k sannKernel
	return m.decide(ctx, snap, b, rng, &k)
}

// NewSession implements SessionManager: the returned manager decides
// identically but reuses the annealing scratch across the consecutive
// intervals of one run, so steady-state Decide calls do not allocate in
// the annealing loop.
func (m SAnn) NewSession() Manager { return &sannSession{m: m} }

type sannSession struct {
	m SAnn
	k sannKernel
}

func (s *sannSession) Name() string { return s.m.Name() }

func (s *sannSession) Decide(ctx context.Context, snap *Snapshot, b Budget, rng *stats.RNG) ([]int, error) {
	return s.m.decide(ctx, snap, b, rng, &s.k)
}

// sannKernel is the reusable per-session state: the objective
// coefficients and the term table built from them, each core's lowest
// feasible level, the x<->level translation buffers, and the annealer's
// scratch vectors.
type sannKernel struct {
	coef     []float64
	terms    []float64
	initCoef []float64
	card     []int
	mins     []int
	initX    []int
	levels   []int
	scr      anneal.Scratch
}

func (m SAnn) decide(ctx context.Context, snap *Snapshot, b Budget, rng *stats.RNG, k *sannKernel) ([]int, error) {
	mins, err := floorLevels(snap, k.mins)
	if err != nil {
		return nil, err
	}
	k.mins = mins
	_, sp := startDecide(ctx, NameSAnn, snap)
	defer sp.End()
	n := snap.Cores
	k.coef = snap.ObjCoef(m.Objective, k.coef)
	k.terms = sannTerms(snap, k.coef, k.terms)
	k.card = growInts(k.card, n)
	k.initX = growInts(k.initX, n)
	k.levels = growInts(k.levels, n)
	for c := 0; c < n; c++ {
		k.card[c] = snap.Levels - mins[c]
	}

	// One combined evaluation per candidate: decode x into ladder levels
	// once (the historical closures decoded twice, once in feasible and
	// again in objective), then check the budget and score from the
	// snapshot tables.
	eval := sannEval(snap, b, mins, k.levels, m.Objective, k.terms)

	// The greedy start ranks upgrades with Objective.weight semantics
	// (min-speed keeps weight 1 there), while the evaluator's ObjCoef
	// applies the min-speed normalisation — matching the historical
	// closures exactly.
	initCoef := k.coef
	if m.Objective == ObjMinSpeed {
		k.initCoef = growFloats(k.initCoef, n)
		for c := range k.initCoef {
			k.initCoef[c] = snap.objWeight(m.Objective, c) * snap.IPCs[c]
		}
		initCoef = k.initCoef
	}
	init := greedyInit(snap, b, initCoef, mins, k.levels)
	initX := k.initX
	for c := range initX {
		initX[c] = init[c] - mins[c]
	}
	if _, ok := eval(initX); !ok {
		// Budget below the floor: hold the minimum point, like the other
		// managers.
		out := make([]int, n)
		copy(out, mins)
		return out, nil
	}

	cfg := anneal.DefaultConfig(n)
	// The paper scales the initial annealing temperature with problem
	// size: "for a large number of threads, more randomness is needed".
	cfg.InitialTemp = 1 + float64(n)/4
	if m.MaxEvals > 0 {
		cfg.MaxEvals = m.MaxEvals
	}

	var res anneal.Result
	if m.Chains > 1 {
		res, err = anneal.SolveParallel(func(int) *anneal.Problem {
			// Each chain owns a private decode buffer; the snapshot,
			// coefficients, bounds, and init are shared read-only.
			return &anneal.Problem{
				Card: k.card,
				Eval: sannEval(snap, b, mins, make([]int, n), m.Objective, k.terms),
				Init: initX,
			}
		}, cfg, rng, m.Chains, m.Workers)
	} else {
		res, err = anneal.SolveScratch(&anneal.Problem{
			Card: k.card,
			Eval: eval,
			Init: initX,
		}, cfg, rng, &k.scr)
	}
	if err != nil {
		return nil, fmt.Errorf("pm: SAnn: %w", err)
	}
	sp.AddAttr(trace.Int("evals", res.Evals))
	if m.Chains > 1 {
		sp.AddAttr(trace.Int("chains", m.Chains), trace.Int("chain", res.Chain))
	}
	out := make([]int, n)
	for c, x := range res.X {
		out[c] = mins[c] + x
	}
	return out, nil
}

// sannTerms returns the decision's term table, terms[c*Levels+l] =
// coef[c]*Freq[c*Levels+l]/1e6: core c's objective term at level l. It
// is the expression the evaluator computed per candidate, evaluated once
// per decision, so every term has the same bits. dst is reused when
// large enough.
func sannTerms(snap *Snapshot, coef, dst []float64) []float64 {
	nl := snap.Levels
	dst = growFloats(dst, snap.Cores*nl)
	for c := 0; c < snap.Cores; c++ {
		for l := 0; l < nl; l++ {
			dst[c*nl+l] = coef[c] * snap.Freq[c*nl+l] / 1e6
		}
	}
	return dst
}

// sannEval returns the fused candidate evaluator: decode x into levels,
// accumulate chip power with inline per-core cap checks, then score from
// the term table (sannTerms). The power sum runs uncore-first over
// ascending cores and the objective sum over ascending cores, exactly
// like the separate totalPower and objectiveValue loops, so values are
// bit-identical; the cap check moving before the budget comparison only
// changes which constraint reports an infeasibility that would have been
// reported either way.
func sannEval(snap *Snapshot, b Budget, mins, levels []int, obj Objective, terms []float64) func(x []int) (float64, bool) {
	nl := snap.Levels
	minSpeed := obj == ObjMinSpeed
	return func(x []int) (float64, bool) {
		sum := snap.Uncore
		for c, xc := range x {
			l := mins[c] + xc
			levels[c] = l
			pw := snap.Power[c*nl+l]
			if pw > b.PCoreMaxW {
				return 0, false
			}
			sum += pw
		}
		if sum > b.PTargetW {
			return 0, false
		}
		if minSpeed {
			min := 0.0
			for c, l := range levels {
				v := terms[c*nl+l]
				if c == 0 || v < min {
					min = v
				}
			}
			return min, true
		}
		val := 0.0
		for c, l := range levels {
			val += terms[c*nl+l]
		}
		return val, true
	}
}

// greedyInit builds SAnn's starting point: from the all-minimum
// assignment, repeatedly raise by one level the core with the best
// throughput-gain-per-watt, while the budget holds. Upgrades that cost no
// power (dp <= 0, possible on non-monotonic synthetic power curves) rank
// above every paying upgrade — free throughput beats any finite
// gain-per-watt ratio — and compete among themselves on raw throughput
// gain. On monotonic power curves (all real platforms) no free upgrade
// exists and the selection reduces to the pure ratio comparison.
//
// coef carries the per-core objective weights from Snapshot.ObjCoef and
// mins each core's lowest feasible level; the result is written into out
// (len >= cores), which is also returned.
func greedyInit(s *Snapshot, b Budget, coef []float64, mins, out []int) []int {
	n, nl := s.Cores, s.Levels
	levels := out[:n]
	copy(levels, mins)
	top := nl - 1
	for {
		bestCore := -1
		bestRatio := 0.0
		bestFree := false
		curPower := s.TotalPower(levels)
		for c := 0; c < n; c++ {
			if levels[c] >= top {
				continue
			}
			row := s.Power[c*nl:]
			dp := row[levels[c]+1] - row[levels[c]]
			if row[levels[c]+1] > b.PCoreMaxW {
				continue
			}
			if curPower+dp > b.PTargetW {
				continue
			}
			dtp := coef[c] * (s.Freq[c*nl+levels[c]+1] - s.Freq[c*nl+levels[c]]) / 1e6
			free := dp <= 0
			ratio := dtp
			if !free {
				ratio = dtp / dp
			}
			better := false
			switch {
			case bestCore < 0:
				better = true
			case free != bestFree:
				better = free
			default:
				better = ratio > bestRatio
			}
			if better {
				bestCore, bestRatio, bestFree = c, ratio, free
			}
		}
		if bestCore < 0 {
			return levels
		}
		levels[bestCore]++
	}
}
