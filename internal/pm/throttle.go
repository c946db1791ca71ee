package pm

import "fmt"

// ThrottleGovernor is the thermal-emergency DVFS state machine the timeline
// engine (core.System.Run) drives every tick of a governed run: when the
// hottest block exceeds TripC the governor deepens the chip-wide clamp by
// one ladder level, and only once the die has cooled below RecoverC does
// it release levels again. The gap between the two thresholds is the
// hysteresis band that prevents the clamp from chattering around a single
// threshold — HotSpot-style thermal time constants are tens of
// milliseconds, so a trip/release pair per tick would throttle on noise,
// not on heat.
//
// The governor is chip-wide (every thread is clamped by the same depth),
// matching the hardware reality that thermal emergencies are handled by a
// global DVFS actuator, not per-core negotiation.
type ThrottleGovernor struct {
	// TripC deepens the clamp when MaxTemp exceeds it; RecoverC releases
	// one level when MaxTemp falls below it. TripC must be >= RecoverC.
	TripC    float64
	RecoverC float64

	depth       int
	emergencies int
}

// NewThrottleGovernor validates the thresholds.
func NewThrottleGovernor(tripC, recoverC float64) (*ThrottleGovernor, error) {
	if recoverC > tripC {
		return nil, fmt.Errorf("pm: throttle recover threshold %.1fC above trip %.1fC", recoverC, tripC)
	}
	return &ThrottleGovernor{TripC: tripC, RecoverC: recoverC}, nil
}

// Observe feeds one tick's maximum die temperature. maxDepth bounds the
// clamp (normally len(levels)-1). It returns the clamp depth to apply for
// the next tick and whether this observation deepened it (a counted,
// traceable emergency).
func (g *ThrottleGovernor) Observe(maxTempC float64, maxDepth int) (depth int, tripped bool) {
	switch {
	case maxTempC > g.TripC && g.depth < maxDepth:
		g.depth++
		g.emergencies++
		tripped = true
	case maxTempC < g.RecoverC && g.depth > 0:
		g.depth--
	}
	return g.depth, tripped
}

// Depth returns the current clamp depth in ladder levels.
func (g *ThrottleGovernor) Depth() int { return g.depth }

// Emergencies returns how many times the governor deepened the clamp.
func (g *ThrottleGovernor) Emergencies() int { return g.emergencies }
