package pm

import (
	"context"

	"vasched/internal/stats"
)

// Foxton is the paper's baseline power manager: a small extension of the
// Itanium II Foxton controller to per-core (V, f) pairs. Starting from
// every core at its maximum level, it walks the active cores round-robin,
// stepping each visited core's level down by one, until both the chip-wide
// Ptarget and the per-core Pcoremax constraints hold (or every core sits
// at its minimum level).
//
// The budget walk re-evaluates chip power after every step, reading the
// snapshot's power table directly.
type Foxton struct{}

// NewFoxton returns the baseline manager.
func NewFoxton() Foxton { return Foxton{} }

// Name implements Manager.
func (Foxton) Name() string { return NameFoxton }

// Decide implements Manager.
func (Foxton) Decide(ctx context.Context, snap *Snapshot, b Budget, _ *stats.RNG) ([]int, error) {
	mins, err := floorLevels(snap, nil)
	if err != nil {
		return nil, err
	}
	_, sp := startDecide(ctx, NameFoxton, snap)
	defer sp.End()
	n, nl := snap.Cores, snap.Levels
	top := nl - 1
	levels := make([]int, n)
	for c := range levels {
		levels[c] = top
	}

	satisfied := func() bool {
		if snap.TotalPower(levels) > b.PTargetW {
			return false
		}
		for c, l := range levels {
			if snap.Power[c*nl+l] > b.PCoreMaxW {
				return false
			}
		}
		return true
	}

	cursor := 0
	for !satisfied() {
		// Find the next core that can still step down.
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
			// Everything is at the floor; the budget is simply
			// unattainable and the controller holds the lowest point.
			break
		}
	}
	return levels, nil
}
