package main

import (
	"bytes"
	"strings"
	"testing"
)

// TestLoadEndToEnd is the harness acceptance test on the real binary:
// a spawned coordinator plus one cluster worker take a mixed-tenant,
// mixed-lane, mixed-experiment run with mid-flight cancels, a quota
// burst sized to guarantee 429s (quota 4 against a 12-job
// single-tenant burst), and an injected SIGKILL-restart at 30% of
// completions — and the run must still pass its SLOs with zero lost
// jobs.
func TestLoadEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and drives real vaschedd processes")
	}
	var buf bytes.Buffer
	res, err := run([]string{
		"-jobs", "120", "-tenants", "3", "-clients", "16",
		"-seed", "11", "-cancel-frac", "0.08", "-burst-frac", "0.1",
		"-kill-at", "0.3", "-cluster-workers", "1",
		"-max-jobs", "2", "-tenant-quota", "4", "-lane-cap", "64",
		"-timeout", "8m",
		"-slo-client-p99", "60", "-slo-job-p99", "30", "-slo-decide-p99", "5",
	}, &buf)
	t.Logf("run output:\n%s", buf.String())
	if err != nil {
		t.Fatalf("run: %v", err)
	}

	c := res.Counts
	if c.Submitted != 120 {
		t.Fatalf("submitted = %d, want 120", c.Submitted)
	}
	if c.Lost != 0 {
		t.Fatalf("lost = %d, want 0", c.Lost)
	}
	if c.Failed != 0 {
		t.Fatalf("failed = %d, want 0", c.Failed)
	}
	if c.Restarts != 1 {
		t.Fatalf("restarts = %d, want exactly 1 injected crash", c.Restarts)
	}
	if c.Rejected429 == 0 {
		t.Fatal("burst provoked no 429s (quota 4, 12-job single-tenant burst)")
	}
	if c.Cancelled == 0 {
		t.Fatal("no job ended cancelled")
	}
	if c.Done+c.Cancelled != 120 {
		t.Fatalf("terminal = %d done + %d cancelled, want 120", c.Done, c.Cancelled)
	}
	if len(res.Violations) != 0 || res.JobsPerSec <= 0 {
		t.Fatalf("SLO pass not recorded: violations=%q rate=%g", res.Violations, res.JobsPerSec)
	}
	// The smooth-WRR lanes all won dequeues, and the service histograms
	// actually populated (the quantile estimates are not NaN-backed).
	for _, lane := range []string{"control", "interactive", "batch"} {
		if res.LaneDequeues[lane] == 0 {
			t.Fatalf("lane %s won no dequeues: %v", lane, res.LaneDequeues)
		}
	}
	for _, src := range []string{"client", "job", "decide"} {
		if q := res.Latency[src]; !(q.P99 > 0) {
			t.Fatalf("%s p99 = %g, want positive", src, q.P99)
		}
	}
	if !strings.Contains(buf.String(), "1 restart(s)") {
		t.Fatalf("report does not mention the injected restart:\n%s", buf.String())
	}
}
