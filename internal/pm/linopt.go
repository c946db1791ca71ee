package pm

import (
	"context"
	"errors"
	"fmt"

	"vasched/internal/lp"
	"vasched/internal/stats"
	"vasched/internal/trace"
)

// LinOpt is the paper's linear-programming power manager (Section 4.3.1).
// For each active core it:
//
//  1. measures the thread-core pair's total power at FitPoints voltage
//     levels and least-squares fits p_i(v) = b_i*v + c_i (Figure 1);
//
//  2. fits the manufacturer V/f table as f_i(v) = g_i*v + h_i, so the
//     throughput objective becomes sum of ipc_i*g_i*v_i (the constant
//     term does not affect the argmax);
//
//  3. solves, with the Simplex method:
//
//     maximize   sum a_i v_i
//     subject to sum b_i v_i <= Ptarget - Puncore - sum c_i
//     b_i v_i + c_i <= Pcoremax            (per core)
//     Vmin_i <= v_i <= Vmax                (per core)
//
//  4. quantises each optimal v_i down to the ladder.
//
// If the budget is below the chip's floor power the LP is infeasible and
// LinOpt parks every core at its minimum level, as Foxton* would.
type LinOpt struct {
	// FitPoints is how many voltage levels the power fit samples (the
	// paper uses 3, or at the very least 2 — Table 3).
	FitPoints int
	// Objective selects raw-MIPS or weighted-throughput maximisation.
	Objective Objective
}

// NewLinOpt returns the manager with the paper's 3-point power fit.
func NewLinOpt() LinOpt { return LinOpt{FitPoints: 3} }

// Name implements Manager.
func (LinOpt) Name() string { return NameLinOpt }

// Decide implements Manager. Each call solves the LP from scratch; use
// NewSession when running many consecutive intervals so the simplex can
// warm-start from the previous optimum.
func (m LinOpt) Decide(ctx context.Context, p Platform, b Budget, rng *stats.RNG) ([]int, error) {
	var snap Snapshot
	return m.decide(ctx, p, b, nil, &snap)
}

// NewSession implements SessionManager: the returned manager decides
// identically but reuses one lp.Solver across intervals, warm-starting
// each interval's simplex from the previous optimal basis.
//
// Only the throughput LP warm-starts. The ObjMinSpeed epigraph LP
// maximises the single variable z with zero weight on every voltage, so
// its optimal face is fat — many (v, z) vertices share the optimal z —
// and a warm path may legitimately stop at a different vertex than the
// cold path, changing the quantised levels. To keep sessions decision-
// identical to the stateless manager, that LP always solves cold.
func (m LinOpt) NewSession() Manager {
	if m.Objective == ObjMinSpeed {
		return &linOptSession{m: m}
	}
	return &linOptSession{m: m, solver: lp.NewSolver()}
}

// linOptSession is a per-run LinOpt with simplex warm-start state and a
// reused platform snapshot. Not safe for concurrent use; each run gets
// its own.
type linOptSession struct {
	m      LinOpt
	solver *lp.Solver
	snap   Snapshot
}

func (s *linOptSession) Name() string { return s.m.Name() }

func (s *linOptSession) Decide(ctx context.Context, p Platform, b Budget, _ *stats.RNG) ([]int, error) {
	return s.m.decide(ctx, p, b, s.solver, &s.snap)
}

// solveWith dispatches to the session solver when one is present.
func solveWith(s *lp.Solver, prob *lp.Problem) (*lp.Solution, error) {
	if s == nil {
		return lp.Solve(prob)
	}
	return s.Solve(prob)
}

func (m LinOpt) decide(ctx context.Context, p Platform, b Budget, solver *lp.Solver, snap *Snapshot) ([]int, error) {
	if err := validatePlatform(p); err != nil {
		return nil, err
	}
	_, sp := startDecide(ctx, NameLinOpt, p)
	defer sp.End()
	attempts0, hits0 := 0, 0
	if solver != nil {
		attempts0, hits0 = solver.WarmAttempts, solver.WarmHits
	}
	defer func() {
		// Attribute the simplex warm-start outcome: cold for stateless
		// solves (and the always-cold ObjMinSpeed LP), hit when the
		// previous optimal basis skipped phase 1, miss when the warm
		// attempt had to restart cold.
		switch {
		case solver == nil || solver.WarmAttempts == attempts0:
			sp.AddAttr(trace.String("warm", "cold"))
		case solver.WarmHits > hits0:
			sp.AddAttr(trace.String("warm", "hit"))
		default:
			sp.AddAttr(trace.String("warm", "miss"))
		}
	}()
	snap.Capture(p)
	fitPoints := m.FitPoints
	if fitPoints < 2 {
		fitPoints = 3
	}
	l, err := newLinOptLP(snap, b, fitPoints, m.Objective)
	if err != nil {
		return nil, err
	}
	n, aCoef, minLev := snap.Cores, l.aCoef, l.minLev

	if m.Objective == ObjMinSpeed {
		// Epigraph reformulation: variables (v_1..v_n, z), maximize z
		// subject to a_i*v_i - z >= 0 plus the same power and bound
		// constraints. The per-core speed weight replaces the (unit)
		// summed-objective weight in a_i.
		for c := 0; c < n; c++ {
			aCoef[c] *= snap.minSpeedWeight(c)
		}
		return m.decideMinSpeed(snap, b, aCoef, l.bCoef, l.cCoef, l.vmin, minLev, l.vmax, solver)
	}

	sol, err := solveWith(solver, l.prob)
	if errors.Is(err, lp.ErrInfeasible) {
		// Budget below the chip's floor: park at the minimum point.
		return append([]int(nil), minLev...), nil
	}
	if err != nil {
		return nil, fmt.Errorf("pm: LinOpt simplex: %w", err)
	}

	levels := make([]int, n)
	for c := 0; c < n; c++ {
		levels[c] = quantizeDown(snap, sol.X[c], minLev[c])
	}
	trim(snap, b, levels, minLev, aCoef)
	refine(snap, b, levels, minLev, snap.ObjCoef(m.Objective, nil))
	return levels, nil
}

// linOptLP is LinOpt's linear program over one snapshot (steps 1-3 of the
// LinOpt doc): the fitted per-core coefficients and the throughput LP
// over them, whose row 0 is the chip budget.
type linOptLP struct {
	prob                      *lp.Problem
	aCoef, bCoef, cCoef, vmin []float64
	vmax                      float64
	minLev                    []int
}

// newLinOptLP fits each core's power and frequency lines at fitPoints
// levels spread evenly across its feasible range and assembles the LP.
func newLinOptLP(snap *Snapshot, b Budget, fitPoints int, obj Objective) (*linOptLP, error) {
	n := snap.Cores
	nl := snap.Levels
	top := nl - 1
	vmax := snap.Volt[top]

	aCoef := make([]float64, n) // throughput per volt
	bCoef := make([]float64, n) // watts per volt
	cCoef := make([]float64, n) // watts offset
	vmin := make([]float64, n)  // per-core minimum feasible voltage
	minLev := make([]int, n)

	for c := 0; c < n; c++ {
		minLev[c] = snap.MinLev[c]
		vmin[c] = snap.Volt[minLev[c]]

		// Sample levels spread evenly across the core's feasible range.
		lo, hi := minLev[c], top
		span := hi - lo
		pts := fitPoints
		if span+1 < pts {
			pts = span + 1
		}
		vs := make([]float64, 0, pts)
		ps := make([]float64, 0, pts)
		fs := make([]float64, 0, pts)
		for k := 0; k < pts; k++ {
			l := lo
			if pts > 1 {
				l = lo + k*span/(pts-1)
			}
			vs = append(vs, snap.Volt[l])
			ps = append(ps, snap.Power[c*nl+l])
			fs = append(fs, snap.Freq[c*nl+l])
		}
		bi, ci, err := fitLine(vs, ps)
		if err != nil {
			return nil, fmt.Errorf("pm: power fit for core %d: %w", c, err)
		}
		gi, _, err := fitLine(vs, fs)
		if err != nil {
			return nil, fmt.Errorf("pm: frequency fit for core %d: %w", c, err)
		}
		bCoef[c], cCoef[c] = bi, ci
		aCoef[c] = snap.objWeight(obj, c) * snap.IPCs[c] * gi / 1e6 // objective per volt
		if aCoef[c] <= 0 {
			// A degenerate fit (flat frequency) still deserves a positive
			// objective weight so the LP prefers higher voltage.
			aCoef[c] = 1e-9
		}
	}

	prob := &lp.Problem{Objective: aCoef}
	// Chip budget: sum b_i v_i <= Ptarget - uncore - sum c_i.
	rhs := b.PTargetW - snap.Uncore
	for c := 0; c < n; c++ {
		rhs -= cCoef[c]
	}
	prob.Constraints = append(prob.Constraints, lp.Constraint{
		Coeffs: append([]float64(nil), bCoef...), Rel: lp.LE, RHS: rhs,
	})
	for c := 0; c < n; c++ {
		row := make([]float64, n)
		row[c] = bCoef[c]
		prob.Constraints = append(prob.Constraints, lp.Constraint{
			Coeffs: row, Rel: lp.LE, RHS: b.PCoreMaxW - cCoef[c],
		})
		lowRow := make([]float64, n)
		lowRow[c] = 1
		prob.Constraints = append(prob.Constraints, lp.Constraint{
			Coeffs: lowRow, Rel: lp.GE, RHS: vmin[c],
		})
		hiRow := make([]float64, n)
		hiRow[c] = 1
		prob.Constraints = append(prob.Constraints, lp.Constraint{
			Coeffs: hiRow, Rel: lp.LE, RHS: vmax,
		})
	}
	return &linOptLP{prob: prob, aCoef: aCoef, bCoef: bCoef, cCoef: cCoef, vmin: vmin, vmax: vmax, minLev: minLev}, nil
}

// refine polishes the quantised LP point against the *measured* per-level
// powers: the LP's linear power model drives voltages to their bounds
// (with one coupling constraint, at most one variable is interior), but
// the true power curves are convex, so the real optimum grades voltages by
// marginal throughput per watt. Single up-steps and paired up/down moves
// that raise modelled throughput within the budget are applied greedily.
// Each candidate move is O(1) on the sensor tables, so the polish costs
// microseconds — it is the same class of feedback loop Foxton* runs, just
// seeded from the LP point.
func refine(s *Snapshot, b Budget, levels, minLev []int, coef []float64) {
	n := s.Cores
	nl := s.Levels
	top := nl - 1
	gain := func(c int) float64 {
		return coef[c] * (s.Freq[c*nl+levels[c]+1] - s.Freq[c*nl+levels[c]]) / 1e6
	}
	loss := func(c int) float64 {
		return coef[c] * (s.Freq[c*nl+levels[c]] - s.Freq[c*nl+levels[c]-1]) / 1e6
	}
	for iter := 0; iter < 4*n*nl; iter++ {
		cur := s.TotalPower(levels)
		// First try free up-steps (headroom without trading).
		bestUp, bestGain := -1, 0.0
		for c := 0; c < n; c++ {
			if levels[c] >= top {
				continue
			}
			dp := s.Power[c*nl+levels[c]+1] - s.Power[c*nl+levels[c]]
			if cur+dp > b.PTargetW || s.Power[c*nl+levels[c]+1] > b.PCoreMaxW {
				continue
			}
			if g := gain(c); g > bestGain {
				bestUp, bestGain = c, g
			}
		}
		if bestUp >= 0 {
			levels[bestUp]++
			continue
		}
		// Then paired moves: step one core up, another down, if the swap
		// nets throughput and stays within budget.
		type move struct {
			up, down int
			net      float64
		}
		best := move{up: -1}
		for up := 0; up < n; up++ {
			if levels[up] >= top {
				continue
			}
			dpUp := s.Power[up*nl+levels[up]+1] - s.Power[up*nl+levels[up]]
			if s.Power[up*nl+levels[up]+1] > b.PCoreMaxW {
				continue
			}
			g := gain(up)
			for down := 0; down < n; down++ {
				if down == up || levels[down] <= minLev[down] {
					continue
				}
				dpDown := s.Power[down*nl+levels[down]] - s.Power[down*nl+levels[down]-1]
				if cur+dpUp-dpDown > b.PTargetW {
					continue
				}
				if net := g - loss(down); net > best.net+1e-9 {
					best = move{up: up, down: down, net: net}
				}
			}
		}
		if best.up < 0 {
			return
		}
		levels[best.up]++
		levels[best.down]--
	}
}

// trim enforces the budget against the *measured* powers after the linear
// approximation and quantisation: the always-on power monitor of the
// paper's Section 5.2. While a constraint is violated, it lowers the level
// of the core whose next step down costs the least throughput per watt
// saved.
func trim(s *Snapshot, b Budget, levels, minLev []int, aCoef []float64) {
	nl := s.Levels
	overCap := func() int {
		for c, l := range levels {
			if s.Power[c*nl+l] > b.PCoreMaxW && l > minLev[c] {
				return c
			}
		}
		return -1
	}
	for {
		if c := overCap(); c >= 0 {
			levels[c]--
			continue
		}
		if s.TotalPower(levels) <= b.PTargetW {
			return
		}
		best, bestCost := -1, 0.0
		for c, l := range levels {
			if l <= minLev[c] {
				continue
			}
			dp := s.Power[c*nl+l] - s.Power[c*nl+l-1]
			dtp := aCoef[c] * (s.Volt[l] - s.Volt[l-1])
			cost := dtp
			if dp > 0 {
				cost = dtp / dp
			}
			if best < 0 || cost < bestCost {
				best, bestCost = c, cost
			}
		}
		if best < 0 {
			return // everything at the floor; budget unattainable
		}
		levels[best]--
	}
}

// decideMinSpeed solves the max-min LP: maximize z subject to
// z <= a_i*v_i, the chip and per-core power constraints, and the voltage
// bounds. aCoef here carries the min-speed weights.
func (m LinOpt) decideMinSpeed(snap *Snapshot, b Budget, aCoef, bCoef, cCoef, vmin []float64, minLev []int, vmax float64, solver *lp.Solver) ([]int, error) {
	n := snap.Cores
	nv := n + 1 // v_1..v_n, z
	obj := make([]float64, nv)
	obj[n] = 1 // maximize z
	prob := &lp.Problem{Objective: obj}

	// z <= a_i v_i  ->  a_i v_i - z >= 0.
	for c := 0; c < n; c++ {
		row := make([]float64, nv)
		row[c] = aCoef[c]
		row[n] = -1
		prob.Constraints = append(prob.Constraints, lp.Constraint{Coeffs: row, Rel: lp.GE, RHS: 0})
	}
	rhs := b.PTargetW - snap.Uncore
	budgetRow := make([]float64, nv)
	for c := 0; c < n; c++ {
		budgetRow[c] = bCoef[c]
		rhs -= cCoef[c]
	}
	prob.Constraints = append(prob.Constraints, lp.Constraint{Coeffs: budgetRow, Rel: lp.LE, RHS: rhs})
	for c := 0; c < n; c++ {
		capRow := make([]float64, nv)
		capRow[c] = bCoef[c]
		prob.Constraints = append(prob.Constraints, lp.Constraint{Coeffs: capRow, Rel: lp.LE, RHS: b.PCoreMaxW - cCoef[c]})
		loRow := make([]float64, nv)
		loRow[c] = 1
		prob.Constraints = append(prob.Constraints, lp.Constraint{Coeffs: loRow, Rel: lp.GE, RHS: vmin[c]})
		hiRow := make([]float64, nv)
		hiRow[c] = 1
		prob.Constraints = append(prob.Constraints, lp.Constraint{Coeffs: hiRow, Rel: lp.LE, RHS: vmax})
	}

	sol, err := solveWith(solver, prob)
	if errors.Is(err, lp.ErrInfeasible) {
		return append([]int(nil), minLev...), nil
	}
	if err != nil {
		return nil, fmt.Errorf("pm: LinOpt max-min simplex: %w", err)
	}
	levels := make([]int, n)
	for c := 0; c < n; c++ {
		levels[c] = quantizeDown(snap, sol.X[c], minLev[c])
	}
	trim(snap, b, levels, minLev, aCoef)
	refineMinSpeed(snap, b, levels, minLev)
	return levels, nil
}

// refineMinSpeed greedily raises the slowest thread while the budget
// allows, compensating by lowering the thread with the most slack if
// necessary.
func refineMinSpeed(s *Snapshot, b Budget, levels, minLev []int) {
	n := s.Cores
	nl := s.Levels
	coef := s.ObjCoef(ObjMinSpeed, nil)
	speed := func(c int) float64 {
		return coef[c] * s.Freq[c*nl+levels[c]] / 1e6
	}
	top := nl - 1
	for iter := 0; iter < 4*n*nl; iter++ {
		slow, fast := 0, 0
		for c := 1; c < n; c++ {
			if speed(c) < speed(slow) {
				slow = c
			}
			if speed(c) > speed(fast) {
				fast = c
			}
		}
		if levels[slow] >= top {
			return
		}
		if s.Power[slow*nl+levels[slow]+1] > b.PCoreMaxW {
			return
		}
		cur := s.TotalPower(levels)
		dp := s.Power[slow*nl+levels[slow]+1] - s.Power[slow*nl+levels[slow]]
		if cur+dp <= b.PTargetW {
			levels[slow]++
			continue
		}
		// Fund the slow thread from the fastest one's slack.
		if fast == slow || levels[fast] <= minLev[fast] {
			return
		}
		dpDown := s.Power[fast*nl+levels[fast]] - s.Power[fast*nl+levels[fast]-1]
		if cur+dp-dpDown > b.PTargetW {
			return
		}
		// Only worth it if the donor stays faster than the recipient.
		was := speed(slow)
		levels[slow]++
		levels[fast]--
		if speed(fast) < was {
			levels[slow]--
			levels[fast]++
			return
		}
	}
}

// fitLine least-squares fits y = b*x + c.
func fitLine(xs, ys []float64) (bCoef, cCoef float64, err error) {
	if len(xs) != len(ys) || len(xs) == 0 {
		return 0, 0, errors.New("pm: empty or mismatched fit input")
	}
	if len(xs) == 1 {
		return 0, ys[0], nil
	}
	mx, my := statsMean(xs), statsMean(ys)
	var sxx, sxy float64
	for i := range xs {
		dx := xs[i] - mx
		sxx += dx * dx
		sxy += dx * (ys[i] - my)
	}
	if sxx == 0 {
		return 0, 0, errors.New("pm: degenerate fit abscissae")
	}
	bCoef = sxy / sxx
	cCoef = my - bCoef*mx
	return bCoef, cCoef, nil
}

func statsMean(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// quantizeDown returns the highest ladder level whose voltage does not
// exceed v, clamped to the core's feasible range.
func quantizeDown(s *Snapshot, v float64, min int) int {
	best := min
	for l := min; l < s.Levels; l++ {
		if s.Volt[l] <= v+1e-9 {
			best = l
		}
	}
	return best
}
