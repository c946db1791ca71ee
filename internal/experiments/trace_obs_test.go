package experiments

import (
	"context"
	"os"
	"path/filepath"
	"testing"

	"vasched/internal/trace"
)

// tracedQuickEnv builds a fresh quick Env with a tracer installed.
func tracedQuickEnv(t *testing.T, workers int) (*Env, *trace.Tracer) {
	t.Helper()
	e, err := QuickEnv()
	if err != nil {
		t.Fatal(err)
	}
	e.Workers = workers
	tr := trace.New(trace.DefaultCapacity)
	e.SetContext(trace.WithTracer(context.Background(), tr))
	return e, tr
}

// TestTracingPreservesOutputs is the observation-only guarantee: attaching
// a tracer must not change a single rendered byte of any experiment.
// Tracing reads no RNG state and injects nothing into the simulation — the
// context threads through purely as an observability channel.
func TestTracingPreservesOutputs(t *testing.T) {
	if testing.Short() {
		t.Skip("runs full experiments; skipped in -short")
	}
	if raceEnabled {
		t.Skip("determinism coverage, not race coverage; skipped under -race to stay inside the package timeout")
	}
	for _, id := range []string{"fig4", "ext-cluster"} {
		id := id
		t.Run(id, func(t *testing.T) {
			plain, err := QuickEnv()
			if err != nil {
				t.Fatal(err)
			}
			plain.Workers = 2
			r1, err := Run(id, plain)
			if err != nil {
				t.Fatal(err)
			}
			traced, tr := tracedQuickEnv(t, 2)
			r2, err := Run(id, traced)
			if err != nil {
				t.Fatal(err)
			}
			if r1.Render() != r2.Render() {
				t.Errorf("tracing changed the %s report:\n--- untraced ---\n%s\n--- traced ---\n%s",
					id, r1.Render(), r2.Render())
			}
			if tr.Len() == 0 {
				t.Error("tracer captured no spans")
			}
		})
	}
}

// TestTraceTreeGolden pins the span structure of serial quick runs. Under
// Workers=1 the tree — names, nesting, and attributes, with timestamps
// deliberately excluded — is a pure function of the workload and seed, so
// any unintentional change to what the hot paths do (extra decides,
// reordered fan-out, lost attributes) diffs here. The process-wide die
// cache is warmed by an untraced serial run first: the goldens hold no
// diecache.fill spans, and a cold cache would add them or not depending
// on which tests ran before. Regenerate intentionally with -update.
func TestTraceTreeGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("runs full experiments; skipped in -short")
	}
	if raceEnabled {
		t.Skip("determinism coverage, not race coverage; skipped under -race to stay inside the package timeout")
	}
	for _, id := range []string{"fig4", "ext-sann-par"} {
		id := id
		t.Run(id, func(t *testing.T) {
			warm, err := QuickEnv()
			if err != nil {
				t.Fatal(err)
			}
			warm.Workers = 1
			if _, err := Run(id, warm); err != nil {
				t.Fatal(err)
			}
			e, tr := tracedQuickEnv(t, 1)
			if _, err := Run(id, e); err != nil {
				t.Fatal(err)
			}
			if tr.Dropped() != 0 {
				t.Fatalf("ring evicted %d spans; grow the capacity for golden runs", tr.Dropped())
			}
			got := trace.Tree(tr.Snapshot())
			path := filepath.Join("testdata", "golden", "trace-"+id+".txt")
			if *update {
				if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("missing golden (run with -update to create): %v", err)
			}
			if got != string(want) {
				t.Errorf("span tree differs from %s\n--- got ---\n%s\n--- want ---\n%s", path, got, string(want))
			}
		})
	}
}
