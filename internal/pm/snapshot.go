package pm

import (
	"errors"
	"fmt"
)

// Snapshot is the Table 3 view of the active cores that every manager
// decides on: flat cores×levels tables of rated frequency and sensed power
// plus the per-core IPC and reference-IPS observables. Core indices are
// *active-core* indices (0..Cores-1), not die positions; the producer
// keeps that mapping.
//
// A producer fills the tables (the runtime once per DVFS interval, in
// place) and managers only read them, so one Snapshot may be shared by
// concurrent Decide calls — SAnn's parallel chains do exactly that. Each
// manager keeps its per-decision data, such as every core's lowest
// feasible level, in its own scratch.
//
// The helpers below consume the tables in a fixed index order (uncore
// first, then cores ascending, levels ascending): the order of the frozen
// interface-based managers the tests compare against, which keeps every
// accept/reject decision and float accumulation byte-identical to them.
type Snapshot struct {
	Cores  int
	Levels int
	// Volt[l] is the ladder voltage, shared by all cores.
	Volt []float64
	// Freq and Power are row-major cores×levels: entry [c*Levels+l]. A
	// zero frequency marks a level the core cannot operate at.
	Freq  []float64
	Power []float64
	// TrueIPC is the thread's actual, frequency-dependent IPC, also
	// cores×levels. No paper algorithm reads it; the Oracle does, to
	// quantify what LinOpt's frequency-independent-IPC approximation
	// costs (DESIGN.md ablation 2). A producer that cannot measure it
	// leaves it empty.
	TrueIPC []float64
	// IPCs[c] and Refs[c] are the per-core sensor IPC and reference IPS
	// (the thread's IPS at reference conditions, which the weighted
	// objectives divide by; paper Section 6.6).
	IPCs []float64
	Refs []float64
	// Uncore is the power of the shared structures (L2) that counts
	// against Ptarget but is not per-core scalable.
	Uncore float64
}

// Resize shapes the snapshot for cores×levels, reusing the tables'
// capacity, so a producer that refills one Snapshot every interval
// allocates only when the shape grows. Table contents are left for the
// producer to overwrite.
func (s *Snapshot) Resize(cores, levels int) {
	s.Cores, s.Levels = cores, levels
	s.Volt = growFloats(s.Volt, levels)
	s.Freq = growFloats(s.Freq, cores*levels)
	s.Power = growFloats(s.Power, cores*levels)
	s.TrueIPC = growFloats(s.TrueIPC, cores*levels)
	s.IPCs = growFloats(s.IPCs, cores)
	s.Refs = growFloats(s.Refs, cores)
}

// floorLevels rejects degenerate snapshots with a clear error and returns
// each core's lowest feasible ladder level (its first level with non-zero
// frequency) in dst, grown as needed.
func floorLevels(s *Snapshot, dst []int) ([]int, error) {
	if s.Cores <= 0 {
		return nil, errors.New("pm: no active cores")
	}
	if s.Levels <= 0 {
		return nil, errors.New("pm: empty voltage ladder")
	}
	nl := s.Levels
	for c := 0; c < s.Cores; c++ {
		if s.Freq[c*nl+nl-1] <= 0 {
			return nil, fmt.Errorf("pm: active core %d infeasible even at the top level", c)
		}
	}
	dst = growInts(dst, s.Cores)
	for c := range dst {
		l := 0
		for s.Freq[c*nl+l] <= 0 {
			l++
		}
		dst[c] = l
	}
	return dst, nil
}

// TotalPower returns chip power for a level assignment: uncore first,
// then cores ascending.
func (s *Snapshot) TotalPower(levels []int) float64 {
	sum := s.Uncore
	for c, l := range levels {
		sum += s.Power[c*s.Levels+l]
	}
	return sum
}

// ObjCoef fills dst (grown as needed) with the per-core objective
// coefficient weight(c)*IPC(c), the level-independent factor of every
// objective term: ObjMIPS uses weight 1, ObjWeighted and ObjMinSpeed
// 1e9/RefIPS. Multiplying by 1 is exact in IEEE 754, so hoisting the
// product out of the per-candidate loop leaves every objective value
// bit-identical to the unhoisted expression.
func (s *Snapshot) ObjCoef(obj Objective, dst []float64) []float64 {
	dst = growFloats(dst, s.Cores)
	for c := range dst {
		w := 1.0
		if obj != ObjMIPS {
			if ref := s.Refs[c]; ref > 0 {
				w = 1e9 / ref
			}
		}
		dst[c] = w * s.IPCs[c]
	}
	return dst
}

// objWeight is the per-core weight of the summed objectives: 1 for MIPS,
// 1/RefIPS for weighted throughput (scaled by 1e9 to keep LP coefficients
// well conditioned). Unlike ObjCoef it leaves ObjMinSpeed at weight 1,
// which LinOpt's fit and SAnn's greedy start rely on.
func (s *Snapshot) objWeight(obj Objective, core int) float64 {
	if obj == ObjWeighted {
		if ref := s.Refs[core]; ref > 0 {
			return 1e9 / ref
		}
	}
	return 1
}

// minSpeedWeight normalises per-thread speed by the thread's reference
// IPS so "slowest" compares progress, not raw instruction rate.
func (s *Snapshot) minSpeedWeight(core int) float64 {
	if ref := s.Refs[core]; ref > 0 {
		return 1e9 / ref
	}
	return 1
}

// ObjectiveValue evaluates obj for a level assignment using coefficients
// from ObjCoef: the sum of the per-core terms, or their minimum for
// ObjMinSpeed. With ObjMIPS it is the modelled MIPS, sensor IPC times
// rated frequency.
func (s *Snapshot) ObjectiveValue(levels []int, obj Objective, coef []float64) float64 {
	nl := s.Levels
	if obj == ObjMinSpeed {
		min := 0.0
		for c, l := range levels {
			v := coef[c] * s.Freq[c*nl+l] / 1e6
			if c == 0 || v < min {
				min = v
			}
		}
		return min
	}
	sum := 0.0
	for c, l := range levels {
		sum += coef[c] * s.Freq[c*nl+l] / 1e6
	}
	return sum
}

// growFloats resizes a float64 scratch slice to n, reusing capacity.
func growFloats(s []float64, n int) []float64 {
	if cap(s) < n {
		return make([]float64, n)
	}
	return s[:n]
}

// growInts resizes an int scratch slice to n, reusing capacity.
func growInts(s []int, n int) []int {
	if cap(s) < n {
		return make([]int, n)
	}
	return s[:n]
}
