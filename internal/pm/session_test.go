package pm

import (
	"context"
	"testing"

	"vasched/internal/stats"
)

// TestLinOptSessionMatchesCold locks the warm-started session to the
// stateless manager: across 100 random intervals (drifting IPC and
// budget — the inputs that move between DVFS re-solves), the session must
// return bit-for-bit the same ladder levels as a cold Decide. The simplex
// may take a different pivot path when warm, but it lands on the same
// vertex, so quantisation, trim, and refine see identical inputs.
//
// The platform draws distinct per-core parameters: cores with *exactly*
// equal LP columns (possible on the coarse newFake grades, never on a
// variation-affected chip) make the optimum a symmetric pair of vertices,
// and warm and cold pivots may legitimately pick different members of the
// tie with identical objective value.
func TestLinOptSessionMatchesCold(t *testing.T) {
	for _, obj := range []Objective{ObjMIPS, ObjWeighted, ObjMinSpeed} {
		m := LinOpt{FitPoints: 3, Objective: obj}
		sess := m.NewSession()
		rng := stats.NewRNG(42)
		f := &fakePlatform{levels: ladder(), uncore: 2}
		for c := 0; c < 12; c++ {
			f.speed = append(f.speed, 0.85+0.25*rng.Float64())
			f.leak = append(f.leak, 0.7+0.8*rng.Float64())
			f.ipc = append(f.ipc, 0.3+0.8*rng.Float64())
		}
		baseIPC := append([]float64(nil), f.ipc...)
		for interval := 0; interval < 100; interval++ {
			for c := range f.ipc {
				f.ipc[c] = baseIPC[c] * (0.8 + 0.4*rng.Float64())
			}
			b := Budget{
				PTargetW:  35 + 30*rng.Float64(),
				PCoreMaxW: 4 + 3*rng.Float64(),
			}
			s := f.snapshot()
			want, err := m.Decide(context.Background(), s, b, nil)
			if err != nil {
				t.Fatalf("%v interval %d: cold: %v", obj, interval, err)
			}
			got, err := sess.Decide(context.Background(), s, b, nil)
			if err != nil {
				t.Fatalf("%v interval %d: warm: %v", obj, interval, err)
			}
			for c := range want {
				if got[c] != want[c] {
					t.Fatalf("%v interval %d core %d: warm level %d != cold level %d\nwarm %v\ncold %v",
						obj, interval, c, got[c], want[c], got, want)
				}
			}
		}
	}
}

// TestLinOptSessionInfeasibleRecovers checks the session survives an
// infeasible interval (budget below the floor) and keeps matching cold
// decisions afterwards.
func TestLinOptSessionInfeasibleRecovers(t *testing.T) {
	m := NewLinOpt()
	sess := m.NewSession()
	f := newFake(8)
	budgets := []Budget{
		{PTargetW: 50, PCoreMaxW: 6},
		{PTargetW: 0.1, PCoreMaxW: 6}, // below the floor: parks at minimum
		{PTargetW: 45, PCoreMaxW: 5},
		{PTargetW: 60, PCoreMaxW: 7},
	}
	s := f.snapshot()
	for i, b := range budgets {
		want, err := m.Decide(context.Background(), s, b, nil)
		if err != nil {
			t.Fatalf("interval %d: cold: %v", i, err)
		}
		got, err := sess.Decide(context.Background(), s, b, nil)
		if err != nil {
			t.Fatalf("interval %d: warm: %v", i, err)
		}
		for c := range want {
			if got[c] != want[c] {
				t.Fatalf("interval %d core %d: warm %v != cold %v", i, c, got, want)
			}
		}
	}
}
