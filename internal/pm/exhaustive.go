package pm

import (
	"context"
	"errors"
	"fmt"

	"vasched/internal/stats"
)

// maxExhaustiveStates bounds the enumeration; beyond this the search is
// rejected (the paper could only run it for up to 4 threads either).
const maxExhaustiveStates = 50_000_000

// Exhaustive enumerates every per-core level combination and returns the
// feasible one with the highest throughput. It exists to validate SAnn and
// LinOpt on small configurations (paper Section 6.5) and as the Oracle's
// search engine; it does not scale (M^N states).
type Exhaustive struct {
	// UseTrueIPC makes the search optimise the snapshot's
	// frequency-dependent TrueIPC table instead of the sensor IPC,
	// turning the manager into the Oracle of DESIGN.md ablation 2.
	UseTrueIPC bool
	// Objective selects raw-MIPS or weighted-throughput maximisation.
	Objective Objective
}

// NewExhaustive returns the enumerator.
func NewExhaustive() Exhaustive { return Exhaustive{} }

// NewOracle returns an exhaustive search over true (frequency-dependent)
// IPC: the objective reads the snapshot's TrueIPC table, and Decide
// returns an error when the snapshot does not carry one.
func NewOracle() Exhaustive { return Exhaustive{UseTrueIPC: true} }

// Name implements Manager.
func (m Exhaustive) Name() string {
	if m.UseTrueIPC {
		return NameOracle
	}
	return NameExhaustive
}

// Decide implements Manager.
func (m Exhaustive) Decide(ctx context.Context, snap *Snapshot, b Budget, _ *stats.RNG) ([]int, error) {
	mins, err := floorLevels(snap, nil)
	if err != nil {
		return nil, err
	}
	n, nl := snap.Cores, snap.Levels
	if m.UseTrueIPC && len(snap.TrueIPC) != n*nl {
		return nil, errors.New("pm: the Oracle needs the snapshot's TrueIPC table")
	}
	_, sp := startDecide(ctx, m.Name(), snap)
	defer sp.End()
	total := 1
	for c := 0; c < n; c++ {
		span := nl - mins[c]
		if total > maxExhaustiveStates/span {
			return nil, fmt.Errorf("pm: exhaustive search space exceeds %d states", maxExhaustiveStates)
		}
		total *= span
	}

	coef := snap.ObjCoef(m.Objective, nil)
	objective := func(levels []int) float64 {
		if m.UseTrueIPC {
			sum := 0.0
			for c, l := range levels {
				sum += snap.objWeight(m.Objective, c) * snap.TrueIPC[c*nl+l] * snap.Freq[c*nl+l] / 1e6
			}
			return sum
		}
		return snap.ObjectiveValue(levels, m.Objective, coef)
	}

	levels := append([]int(nil), mins...)
	best := append([]int(nil), mins...)
	bestVal := -1.0
	for {
		if snap.TotalPower(levels) <= b.PTargetW {
			ok := true
			for c, l := range levels {
				if snap.Power[c*nl+l] > b.PCoreMaxW {
					ok = false
					break
				}
			}
			if ok {
				if v := objective(levels); v > bestVal {
					bestVal = v
					copy(best, levels)
				}
			}
		}
		// Odometer increment.
		c := 0
		for ; c < n; c++ {
			levels[c]++
			if levels[c] < nl {
				break
			}
			levels[c] = mins[c]
		}
		if c == n {
			break
		}
	}
	return best, nil
}
