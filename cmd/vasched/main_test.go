package main

import (
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestListExperiments pins the -list output: every registered experiment
// id appears, so operators can discover ext-cluster and friends.
func TestListExperiments(t *testing.T) {
	var buf strings.Builder
	if err := run([]string{"-list"}, &buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, id := range []string{"fig4", "fig11", "table5", "ext-cluster"} {
		if !strings.Contains(out, "\n  "+id+"\n") {
			t.Errorf("-list output missing %q:\n%s", id, out)
		}
	}
}

// TestNoActionPrintsUsage: bare invocation is a usage error, not a run.
func TestNoActionPrintsUsage(t *testing.T) {
	var buf strings.Builder
	if err := run(nil, &buf); err != flag.ErrHelp {
		t.Fatalf("err = %v, want flag.ErrHelp", err)
	}
	if buf.Len() != 0 {
		t.Fatalf("usage path wrote to stdout: %q", buf.String())
	}
}

func TestBadFlagRejected(t *testing.T) {
	var buf strings.Builder
	if err := run([]string{"-no-such-flag"}, &buf); err == nil {
		t.Fatal("unknown flag accepted")
	}
}

// TestUnknownExperiment: the error names the bad id and nothing is printed.
func TestUnknownExperiment(t *testing.T) {
	var buf strings.Builder
	err := run([]string{"-experiment", "fig99"}, &buf)
	if err == nil || !strings.Contains(err.Error(), "fig99") {
		t.Fatalf("err = %v, want mention of fig99", err)
	}
}

// TestUnknownScale: scale validation happens before any die work.
func TestUnknownScale(t *testing.T) {
	var buf strings.Builder
	err := run([]string{"-experiment", "fig4", "-scale", "huge"}, &buf)
	if err == nil || !strings.Contains(err.Error(), "huge") {
		t.Fatalf("err = %v, want mention of scale huge", err)
	}
}

// TestRunExperimentQuick runs one real quick-scale experiment through the
// CLI core and checks the report framing.
func TestRunExperimentQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a full quick-scale experiment")
	}
	var buf strings.Builder
	if err := run([]string{"-experiment", "table5", "-scale", "quick"}, &buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "==== table5 (") || !strings.Contains(out, "Table 5") {
		t.Fatalf("report framing missing:\n%s", out)
	}
}

// TestRunExperimentJSON: -json emits a parseable envelope with the id.
func TestRunExperimentJSON(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a full quick-scale experiment")
	}
	var buf strings.Builder
	if err := run([]string{"-experiment", "table5", "-scale", "quick", "-json"}, &buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, `"id": "table5"`) || !strings.Contains(out, `"result"`) {
		t.Fatalf("JSON envelope missing fields:\n%s", out)
	}
}

// TestTracedClusteredRun is the single-binary acceptance path: a clustered
// ext-cluster run with fault injection and -trace writes a Chrome
// trace_event file whose span set covers the kernel fan-out and every
// shard dispatch — while the report matches an untraced local run of the
// same experiment byte for byte.
func TestTracedClusteredRun(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a full quick-scale experiment")
	}
	tracePath := filepath.Join(t.TempDir(), "out.json")
	var clustered strings.Builder
	err := run([]string{"-experiment", "ext-cluster", "-scale", "quick",
		"-cluster", "2", "-fault-rate", "0.3", "-fault-seed", "7",
		"-trace", tracePath}, &clustered)
	if err != nil {
		t.Fatal(err)
	}
	var local strings.Builder
	if err := run([]string{"-experiment", "ext-cluster", "-scale", "quick"}, &local); err != nil {
		t.Fatal(err)
	}
	trim := func(s string) string {
		var keep []string
		for _, l := range strings.Split(s, "\n") {
			// Wall-clock in the banner and the trace summary differ by design.
			if strings.HasPrefix(l, "==== ") || strings.HasPrefix(l, "trace: ") {
				continue
			}
			keep = append(keep, l)
		}
		return strings.Join(keep, "\n")
	}
	if trim(clustered.String()) != trim(local.String()) {
		t.Errorf("clustered+faulted run diverges from local:\n--- clustered ---\n%s\n--- local ---\n%s",
			clustered.String(), local.String())
	}

	raw, err := os.ReadFile(tracePath)
	if err != nil {
		t.Fatal(err)
	}
	var chrome struct {
		TraceEvents []struct {
			Name string `json:"name"`
			Ph   string `json:"ph"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(raw, &chrome); err != nil {
		t.Fatalf("trace file is not valid JSON: %v", err)
	}
	names := map[string]int{}
	for _, ev := range chrome.TraceEvents {
		names[ev.Name]++
	}
	for _, want := range []string{"env.kernel", "cluster.run", "cluster.shard", "cluster.dispatch"} {
		if names[want] == 0 {
			t.Errorf("trace missing %q spans (got %v)", want, names)
		}
	}
}

// TestRunScenario drives the -run path on a short simulation and checks
// the report carries the headline statistics.
func TestRunScenario(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a platform simulation")
	}
	var buf strings.Builder
	err := run([]string{"-run", "-threads", "4", "-duration", "20", "-budget", "30"}, &buf)
	if err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"throughput", "power", "deviation", "frequency"} {
		if !strings.Contains(out, want) {
			t.Errorf("scenario report missing %q:\n%s", want, out)
		}
	}
}

// TestRunDynamicMode drives the -dynamic path with a horizon sweep and
// checks the epoch table renders.
func TestRunDynamicMode(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the scenario engine plus an aged-die rebuild")
	}
	var buf strings.Builder
	err := run([]string{"-dynamic", "-threads", "4", "-duration", "10", "-dt-ms", "2",
		"-mig-penalty", "2", "-horizon", "4"}, &buf)
	if err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"dynamic scenario", "years", "dVth(mV)", "fmax(GHz)", "migrations"} {
		if !strings.Contains(out, want) {
			t.Errorf("dynamic report missing %q:\n%s", want, out)
		}
	}
	// One row per epoch: fresh + 4-year.
	if n := strings.Count(out, "\n"); n < 5 {
		t.Fatalf("expected epoch rows, got:\n%s", out)
	}
}

// TestRunDynamicBadHorizon pins the flag-parse error path.
func TestRunDynamicBadHorizon(t *testing.T) {
	var buf strings.Builder
	if err := run([]string{"-dynamic", "-horizon", "3,x"}, &buf); err == nil {
		t.Fatal("malformed -horizon accepted")
	}
	// Years that parse but are not finite fail before the fresh epoch
	// runs, with an error that names the year.
	for _, h := range []string{"NaN", "Inf", "3,Inf"} {
		buf.Reset()
		err := run([]string{"-dynamic", "-threads", "4", "-duration", "20", "-horizon", h}, &buf)
		if err == nil || !strings.Contains(err.Error(), "not finite") {
			t.Errorf("-horizon %s: error %v, want one naming the year that is not finite", h, err)
		}
	}
}

// TestRunDynamicNonFiniteDuration pins that a NaN or infinite -duration is
// an error, not an all-zero report or a run that never ends.
func TestRunDynamicNonFiniteDuration(t *testing.T) {
	for _, d := range []string{"NaN", "+Inf"} {
		var buf strings.Builder
		err := run([]string{"-dynamic", "-threads", "2", "-duration", d}, &buf)
		if err == nil || !strings.Contains(err.Error(), "duration") {
			t.Errorf("-duration %s: error %v, output %q", d, err, buf.String())
		}
	}
}
