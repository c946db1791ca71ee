package pm

import (
	"errors"
	"fmt"

	"vasched/internal/anneal"
	"vasched/internal/lp"
	"vasched/internal/stats"
)

// This file preserves, verbatim, the interface-dispatching manager
// implementations that predate pm.Snapshot, together with the Platform
// interface they dispatch through and its helpers. They are the oracle
// for the property tests in snapshot_test.go: the dense snapshot kernels
// must return decision-identical levels on every platform (same floats,
// same RNG stream, same tie-breaks). Do not "improve" these copies — their
// whole value is that they stay frozen.

// Platform exposes the Table 3 observables for the currently active cores.
// Core indices here are *active-core* indices (0..NumCores-1), not die
// positions; the runtime maintains the mapping.
type Platform interface {
	// NumCores returns the number of active cores (threads).
	NumCores() int
	// NumLevels returns the ladder size shared by all cores.
	NumLevels() int
	// VoltageAt returns the supply voltage of a ladder level.
	VoltageAt(level int) float64
	// FreqAt returns the rated frequency of the core at a ladder level,
	// or 0 if the core cannot operate there.
	FreqAt(core, level int) float64
	// PowerAt returns the measured total power (dynamic + static) of the
	// thread-core pair at a ladder level.
	PowerAt(core, level int) float64
	// IPC returns the thread's measured IPC on its core.
	IPC(core int) float64
	// UncorePowerW returns the power of the shared structures (L2) that
	// count against Ptarget but are not per-core scalable.
	UncorePowerW() float64
	// RefIPS returns the thread's reference instructions-per-second (its
	// IPS at reference conditions), the normalisation the weighted-
	// throughput objective divides by (paper Section 6.6 / Figure 13).
	RefIPS(core int) float64
}

// weight returns the per-core objective weight: 1 for MIPS, 1/refIPS for
// weighted throughput (scaled by 1e9 to keep LP coefficients well
// conditioned).
func (o Objective) weight(p Platform, core int) float64 {
	if o == ObjWeighted {
		if ref := p.RefIPS(core); ref > 0 {
			return 1e9 / ref
		}
	}
	return 1
}

// minLevel returns the lowest feasible ladder level for the core.
func minLevel(p Platform, core int) int {
	for l := 0; l < p.NumLevels(); l++ {
		if p.FreqAt(core, l) > 0 {
			return l
		}
	}
	return p.NumLevels() - 1
}

// totalPower returns chip power for a level assignment.
func totalPower(p Platform, levels []int) float64 {
	sum := p.UncorePowerW()
	for c, l := range levels {
		sum += p.PowerAt(c, l)
	}
	return sum
}

// throughput returns the MIPS objective for a level assignment using the
// sensor IPCs (the frequency-independence approximation all the paper's
// managers share).
func throughput(p Platform, levels []int) float64 {
	return objectiveValue(p, levels, ObjMIPS)
}

// objectiveValue evaluates the chosen objective for a level assignment.
func objectiveValue(p Platform, levels []int, obj Objective) float64 {
	if obj == ObjMinSpeed {
		min := 0.0
		for c, l := range levels {
			v := minSpeedWeight(p, c) * p.IPC(c) * p.FreqAt(c, l) / 1e6
			if c == 0 || v < min {
				min = v
			}
		}
		return min
	}
	sum := 0.0
	for c, l := range levels {
		sum += obj.weight(p, c) * p.IPC(c) * p.FreqAt(c, l) / 1e6
	}
	return sum
}

// minSpeedWeight normalises per-thread speed by the thread's reference IPS
// so "slowest" compares progress, not raw instruction rate.
func minSpeedWeight(p Platform, core int) float64 {
	if ref := p.RefIPS(core); ref > 0 {
		return 1e9 / ref
	}
	return 1
}

// tablePlatform serves a hand-built Snapshot's tables through Platform, so
// the frozen functions can run on crafted tables.
type tablePlatform struct{ s *Snapshot }

func (p tablePlatform) NumCores() int            { return p.s.Cores }
func (p tablePlatform) NumLevels() int           { return p.s.Levels }
func (p tablePlatform) VoltageAt(l int) float64  { return p.s.Volt[l] }
func (p tablePlatform) FreqAt(c, l int) float64  { return p.s.Freq[c*p.s.Levels+l] }
func (p tablePlatform) PowerAt(c, l int) float64 { return p.s.Power[c*p.s.Levels+l] }
func (p tablePlatform) IPC(c int) float64        { return p.s.IPCs[c] }
func (p tablePlatform) UncorePowerW() float64    { return p.s.Uncore }
func (p tablePlatform) RefIPS(c int) float64     { return p.s.Refs[c] }

// validatePlatform rejects degenerate platforms early with a clear error.
func validatePlatform(p Platform) error {
	if p.NumCores() <= 0 {
		return errors.New("pm: no active cores")
	}
	if p.NumLevels() <= 0 {
		return errors.New("pm: empty voltage ladder")
	}
	for c := 0; c < p.NumCores(); c++ {
		if p.FreqAt(c, p.NumLevels()-1) <= 0 {
			return fmt.Errorf("pm: active core %d infeasible even at the top level", c)
		}
	}
	return nil
}

func legacySAnnDecide(m SAnn, p Platform, b Budget, rng *stats.RNG) ([]int, error) {
	if err := validatePlatform(p); err != nil {
		return nil, err
	}
	n := p.NumCores()
	mins := make([]int, n)
	card := make([]int, n)
	for c := 0; c < n; c++ {
		mins[c] = minLevel(p, c)
		card[c] = p.NumLevels() - mins[c]
	}

	toLevels := func(x []int) []int {
		levels := make([]int, n)
		for c := range x {
			levels[c] = mins[c] + x[c]
		}
		return levels
	}
	feasible := func(x []int) bool {
		levels := toLevels(x)
		if totalPower(p, levels) > b.PTargetW {
			return false
		}
		for c, l := range levels {
			if p.PowerAt(c, l) > b.PCoreMaxW {
				return false
			}
		}
		return true
	}
	objective := func(x []int) float64 {
		return objectiveValue(p, toLevels(x), m.Objective)
	}

	init := legacyGreedyInit(p, b, mins, m.Objective)
	initX := make([]int, n)
	for c := range initX {
		initX[c] = init[c] - mins[c]
	}
	if !feasible(initX) {
		return toLevels(make([]int, n)), nil
	}

	cfg := anneal.DefaultConfig(n)
	cfg.InitialTemp = 1 + float64(n)/4
	if m.MaxEvals > 0 {
		cfg.MaxEvals = m.MaxEvals
	}
	res, err := anneal.Solve(&anneal.Problem{
		Card:      card,
		Objective: objective,
		Feasible:  feasible,
		Init:      initX,
	}, cfg, rng)
	if err != nil {
		return nil, fmt.Errorf("pm: SAnn: %w", err)
	}
	return toLevels(res.X), nil
}

// legacyGreedyInit keeps the historical dp<=0 quirk (a free upgrade's raw
// throughput compared against gain-per-watt ratios); on monotonic power
// curves it is decision-identical to the fixed greedyInit.
func legacyGreedyInit(p Platform, b Budget, mins []int, obj Objective) []int {
	n := p.NumCores()
	levels := append([]int(nil), mins...)
	top := p.NumLevels() - 1
	for {
		bestCore := -1
		bestRatio := 0.0
		curPower := totalPower(p, levels)
		for c := 0; c < n; c++ {
			if levels[c] >= top {
				continue
			}
			dp := p.PowerAt(c, levels[c]+1) - p.PowerAt(c, levels[c])
			if p.PowerAt(c, levels[c]+1) > b.PCoreMaxW {
				continue
			}
			if curPower+dp > b.PTargetW {
				continue
			}
			dtp := obj.weight(p, c) * p.IPC(c) * (p.FreqAt(c, levels[c]+1) - p.FreqAt(c, levels[c])) / 1e6
			ratio := dtp
			if dp > 0 {
				ratio = dtp / dp
			}
			if bestCore < 0 || ratio > bestRatio {
				bestCore, bestRatio = c, ratio
			}
		}
		if bestCore < 0 {
			return levels
		}
		levels[bestCore]++
	}
}

func legacyFoxtonDecide(p Platform, b Budget) ([]int, error) {
	if err := validatePlatform(p); err != nil {
		return nil, err
	}
	n := p.NumCores()
	top := p.NumLevels() - 1
	levels := make([]int, n)
	mins := make([]int, n)
	for c := 0; c < n; c++ {
		levels[c] = top
		mins[c] = minLevel(p, c)
	}

	satisfied := func() bool {
		if totalPower(p, levels) > b.PTargetW {
			return false
		}
		for c, l := range levels {
			if p.PowerAt(c, l) > b.PCoreMaxW {
				return false
			}
		}
		return true
	}

	cursor := 0
	for steps := 0; !satisfied(); steps++ {
		moved := false
		for probe := 0; probe < n; probe++ {
			c := (cursor + probe) % n
			if levels[c] > mins[c] {
				levels[c]--
				cursor = (c + 1) % n
				moved = true
				break
			}
		}
		if !moved {
			break
		}
	}
	return levels, nil
}

func legacyLinOptDecide(m LinOpt, p Platform, b Budget, solver *lp.Solver) ([]int, error) {
	if err := validatePlatform(p); err != nil {
		return nil, err
	}
	fitPoints := m.FitPoints
	if fitPoints < 2 {
		fitPoints = 3
	}
	n := p.NumCores()
	top := p.NumLevels() - 1
	vmax := p.VoltageAt(top)

	aCoef := make([]float64, n)
	bCoef := make([]float64, n)
	cCoef := make([]float64, n)
	vmin := make([]float64, n)
	minLev := make([]int, n)

	for c := 0; c < n; c++ {
		minLev[c] = minLevel(p, c)
		vmin[c] = p.VoltageAt(minLev[c])

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
			vs = append(vs, p.VoltageAt(l))
			ps = append(ps, p.PowerAt(c, l))
			fs = append(fs, p.FreqAt(c, l))
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
		aCoef[c] = m.Objective.weight(p, c) * p.IPC(c) * gi / 1e6
		if aCoef[c] <= 0 {
			aCoef[c] = 1e-9
		}
	}

	prob := &lp.Problem{Objective: aCoef}
	rhs := b.PTargetW - p.UncorePowerW()
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

	if m.Objective == ObjMinSpeed {
		for c := 0; c < n; c++ {
			aCoef[c] *= minSpeedWeight(p, c)
		}
		return legacyDecideMinSpeed(m, p, b, aCoef, bCoef, cCoef, vmin, minLev, vmax, solver)
	}

	sol, err := solveWith(solver, prob)
	if errors.Is(err, lp.ErrInfeasible) {
		return append([]int(nil), minLev...), nil
	}
	if err != nil {
		return nil, fmt.Errorf("pm: LinOpt simplex: %w", err)
	}

	levels := make([]int, n)
	for c := 0; c < n; c++ {
		levels[c] = legacyQuantizeDown(p, sol.X[c], minLev[c])
	}
	legacyTrim(p, b, levels, minLev, aCoef)
	legacyRefine(p, b, levels, minLev, m.Objective)
	return levels, nil
}

func legacyRefine(p Platform, b Budget, levels, minLev []int, obj Objective) {
	n := p.NumCores()
	top := p.NumLevels() - 1
	gain := func(c int) float64 {
		return obj.weight(p, c) * p.IPC(c) * (p.FreqAt(c, levels[c]+1) - p.FreqAt(c, levels[c])) / 1e6
	}
	loss := func(c int) float64 {
		return obj.weight(p, c) * p.IPC(c) * (p.FreqAt(c, levels[c]) - p.FreqAt(c, levels[c]-1)) / 1e6
	}
	for iter := 0; iter < 4*n*p.NumLevels(); iter++ {
		cur := totalPower(p, levels)
		bestUp, bestGain := -1, 0.0
		for c := 0; c < n; c++ {
			if levels[c] >= top {
				continue
			}
			dp := p.PowerAt(c, levels[c]+1) - p.PowerAt(c, levels[c])
			if cur+dp > b.PTargetW || p.PowerAt(c, levels[c]+1) > b.PCoreMaxW {
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
		type move struct {
			up, down int
			net      float64
		}
		best := move{up: -1}
		for up := 0; up < n; up++ {
			if levels[up] >= top {
				continue
			}
			dpUp := p.PowerAt(up, levels[up]+1) - p.PowerAt(up, levels[up])
			if p.PowerAt(up, levels[up]+1) > b.PCoreMaxW {
				continue
			}
			g := gain(up)
			for down := 0; down < n; down++ {
				if down == up || levels[down] <= minLev[down] {
					continue
				}
				dpDown := p.PowerAt(down, levels[down]) - p.PowerAt(down, levels[down]-1)
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

func legacyTrim(p Platform, b Budget, levels, minLev []int, aCoef []float64) {
	overCap := func() int {
		for c, l := range levels {
			if p.PowerAt(c, l) > b.PCoreMaxW && l > minLev[c] {
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
		if totalPower(p, levels) <= b.PTargetW {
			return
		}
		best, bestCost := -1, 0.0
		for c, l := range levels {
			if l <= minLev[c] {
				continue
			}
			dp := p.PowerAt(c, l) - p.PowerAt(c, l-1)
			dtp := aCoef[c] * (p.VoltageAt(l) - p.VoltageAt(l-1))
			cost := dtp
			if dp > 0 {
				cost = dtp / dp
			}
			if best < 0 || cost < bestCost {
				best, bestCost = c, cost
			}
		}
		if best < 0 {
			return
		}
		levels[best]--
	}
}

func legacyDecideMinSpeed(m LinOpt, p Platform, b Budget, aCoef, bCoef, cCoef, vmin []float64, minLev []int, vmax float64, solver *lp.Solver) ([]int, error) {
	n := p.NumCores()
	nv := n + 1
	obj := make([]float64, nv)
	obj[n] = 1
	prob := &lp.Problem{Objective: obj}

	for c := 0; c < n; c++ {
		row := make([]float64, nv)
		row[c] = aCoef[c]
		row[n] = -1
		prob.Constraints = append(prob.Constraints, lp.Constraint{Coeffs: row, Rel: lp.GE, RHS: 0})
	}
	rhs := b.PTargetW - p.UncorePowerW()
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
		levels[c] = legacyQuantizeDown(p, sol.X[c], minLev[c])
	}
	legacyTrim(p, b, levels, minLev, aCoef)
	legacyRefineMinSpeed(p, b, levels, minLev)
	return levels, nil
}

func legacyRefineMinSpeed(p Platform, b Budget, levels, minLev []int) {
	speed := func(c int) float64 {
		return minSpeedWeight(p, c) * p.IPC(c) * p.FreqAt(c, levels[c]) / 1e6
	}
	top := p.NumLevels() - 1
	for iter := 0; iter < 4*p.NumCores()*p.NumLevels(); iter++ {
		slow, fast := 0, 0
		for c := 1; c < p.NumCores(); c++ {
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
		if p.PowerAt(slow, levels[slow]+1) > b.PCoreMaxW {
			return
		}
		cur := totalPower(p, levels)
		dp := p.PowerAt(slow, levels[slow]+1) - p.PowerAt(slow, levels[slow])
		if cur+dp <= b.PTargetW {
			levels[slow]++
			continue
		}
		if fast == slow || levels[fast] <= minLev[fast] {
			return
		}
		dpDown := p.PowerAt(fast, levels[fast]) - p.PowerAt(fast, levels[fast]-1)
		if cur+dp-dpDown > b.PTargetW {
			return
		}
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

func legacyQuantizeDown(p Platform, v float64, min int) int {
	best := min
	for l := min; l < p.NumLevels(); l++ {
		if p.VoltageAt(l) <= v+1e-9 {
			best = l
		}
	}
	return best
}
