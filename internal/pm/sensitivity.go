package pm

import (
	"errors"

	"vasched/internal/lp"
)

// BudgetSensitivity reports the shadow price of the chip power budget at
// the LinOpt optimum: the marginal objective gain (MIPS for ObjMIPS) per
// additional watt of Ptarget. Operators use it to answer "what would one
// more watt of cooling buy?" — zero means the budget is not the binding
// constraint (the chip already runs flat out).
func BudgetSensitivity(snap *Snapshot, b Budget, obj Objective) (float64, error) {
	minLev, err := floorLevels(snap, nil)
	if err != nil {
		return 0, err
	}
	if obj == ObjMinSpeed {
		return 0, errors.New("pm: sensitivity for the max-min objective is not supported")
	}
	// The same fits and LP rows LinOpt solves (3 points across each
	// core's feasible range).
	l, err := newLinOptLP(snap, b, 3, obj, minLev)
	if err != nil {
		return 0, err
	}
	sol, err := lp.Solve(l.prob)
	if errors.Is(err, lp.ErrInfeasible) {
		return 0, nil
	}
	if err != nil {
		return 0, err
	}
	// The budget constraint is row 0.
	return sol.Duals[0], nil
}
