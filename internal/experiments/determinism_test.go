package experiments

import (
	"context"
	"errors"
	"reflect"
	"testing"

	"vasched/internal/metrics"
)

// TestParallelMatchesSerial is the determinism regression for the farm
// engine: running with 8 workers must produce byte-identical reports and
// deeply equal typed results to the historical serial path (Workers=1).
// Seeds derive from the die/trial index, workers fill index-addressed
// slots, and callers reduce serially in loop order, so float accumulation
// order — and therefore every digit of output — is independent of the
// worker count.
func TestParallelMatchesSerial(t *testing.T) {
	for _, id := range []string{"fig4", "fig7", "ext-sann-par", "ext-adapt"} {
		serialEnv, err := QuickEnv()
		if err != nil {
			t.Fatal(err)
		}
		serialEnv.Workers = 1
		parEnv, err := QuickEnv()
		if err != nil {
			t.Fatal(err)
		}
		parEnv.Workers = 8

		serial, err := Run(id, serialEnv)
		if err != nil {
			t.Fatalf("%s serial: %v", id, err)
		}
		par, err := Run(id, parEnv)
		if err != nil {
			t.Fatalf("%s parallel: %v", id, err)
		}
		if s, p := serial.Render(), par.Render(); s != p {
			t.Errorf("%s: parallel render differs from serial\n--- serial ---\n%s\n--- parallel ---\n%s", id, s, p)
		}
		if !reflect.DeepEqual(serial, par) {
			t.Errorf("%s: typed results differ:\nserial:   %#v\nparallel: %#v", id, serial, par)
		}
	}
}

// TestTimelineExperimentsStopOnCancel: the timeline experiments fan out
// through the farm engine, which checks the Env context before every
// task, so a cancelled Env runs no timeline at all. The die cache is
// warmed first: a cache hit under a cancelled context may return the
// chip instead of the error, so only the fan-out can make the outcome
// certain. Each case repeats to catch that coin flip.
func TestTimelineExperimentsStopOnCancel(t *testing.T) {
	e, err := QuickEnv()
	if err != nil {
		t.Fatal(err)
	}
	for die := 0; die < e.RunDies; die++ {
		if _, err := e.Chip(die); err != nil {
			t.Fatal(err)
		}
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	e.SetContext(ctx)
	e.DecideHist = metrics.NewLatencyHist()
	for _, id := range []string{"fig14", "ext-sched", "ext-abb"} {
		for i := 0; i < 10; i++ {
			if _, err := Run(id, e); !errors.Is(err, context.Canceled) {
				t.Fatalf("%s run %d under a cancelled context: err = %v, want context.Canceled", id, i, err)
			}
		}
		if n := e.DecideHist.Count(); n != 0 {
			t.Fatalf("%s: %d power-manager decisions ran after cancellation", id, n)
		}
	}
}
