// Package pm implements the paper's power-management algorithms for the
// NUniFreq+DVFS configuration (Section 4.3): given a set of active cores
// with threads already placed by the scheduler, choose a per-core
// (voltage, frequency) operating point that maximises throughput subject
// to a chip-wide power budget (Ptarget) and a per-core cap (Pcoremax).
//
// Four algorithms are provided:
//
//   - Foxton*:    round-robin single-step (V,f) reduction until the budget
//     is met — a small extension of the Itanium II controller
//     (the paper's baseline).
//   - LinOpt:     the paper's contribution — linearise throughput and
//     power in voltage and solve with the Simplex method.
//   - SAnn:       simulated annealing over the exact (per-level) powers;
//     near-optimal but orders of magnitude slower.
//   - Exhaustive: full enumeration, feasible only for few threads; used to
//     validate SAnn as in the paper's Section 6.5.
//
// All algorithms see the platform only through the observables the paper's
// Table 3 grants them (manufacturer V/f tables, power sensors, IPC
// counters), gathered in one plain Snapshot.
package pm

import (
	"context"

	"vasched/internal/stats"
	"vasched/internal/trace"
)

// Objective selects what the optimising managers maximise: raw MIPS
// (Figure 11) or weighted throughput (Figure 13, where the paper re-runs
// the same experiments "with weighted throughput as the optimization
// goal").
type Objective int

// Supported objectives.
const (
	ObjMIPS Objective = iota
	ObjWeighted
	// ObjMinSpeed maximises the *slowest* thread's normalised speed — the
	// right goal for barrier-synchronised parallel applications, where
	// every section ends when the last thread arrives (the paper's third
	// future-work extension). LinOpt handles it with an epigraph variable
	// (maximize z subject to z <= a_i*v_i), which stays a pure LP.
	ObjMinSpeed
)

// Budget is the power envelope.
type Budget struct {
	// PTargetW is the chip-wide power target.
	PTargetW float64
	// PCoreMaxW is the per-core cap.
	PCoreMaxW float64
}

// Manager chooses per-core ladder levels.
type Manager interface {
	// Name returns the paper's name for the algorithm.
	Name() string
	// Decide returns one ladder level per active core of s. It only
	// reads s, so concurrent Decide calls may share one snapshot. The
	// context is used only for observability (tracing spans); decisions
	// must not depend on it.
	Decide(ctx context.Context, s *Snapshot, b Budget, rng *stats.RNG) ([]int, error)
}

// startDecide opens the per-decision tracing span shared by every
// manager. The attributes (manager name, active-core count, plus
// whatever the caller appends before End) are deterministic functions of
// the workload, so trace trees golden-test cleanly.
func startDecide(ctx context.Context, name string, s *Snapshot) (context.Context, *trace.ActiveSpan) {
	return trace.Start(ctx, "pm.decide",
		trace.String("manager", name), trace.Int("cores", s.Cores))
}

// SessionManager is implemented by managers that can carry mutable state
// (solver warm starts, annealing scratch) across the consecutive Decide
// calls of one simulation run. NewSession returns a fresh Manager holding
// that state, so a single configured manager value can be shared by
// concurrent runs (the die farm fans one Config out across workers) while
// each run's session stays single-threaded. The state is the manager's
// own; the snapshot stays read-only. Sessions must decide identically to
// the stateless manager.
type SessionManager interface {
	Manager
	// NewSession returns a Manager private to one run.
	NewSession() Manager
}

// Algorithm names used across the experiment harness.
const (
	NameFoxton     = "Foxton*"
	NameLinOpt     = "LinOpt"
	NameSAnn       = "SAnn"
	NameExhaustive = "Exhaustive"
	NameOracle     = "Oracle"
)
