package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

const sampleBenchOutput = `goos: linux
goarch: amd64
pkg: vasched/internal/lp
cpu: some cpu
BenchmarkSolve-8         	    1000	   1052341 ns/op	  524288 B/op	      12 allocs/op
BenchmarkSolveWarm-8     	    5000	    201234 ns/op	       0 B/op	       0 allocs/op
BenchmarkAnneal-8        	     200	   7000000 ns/op	       1.25 swaps/op
PASS
ok  	vasched/internal/lp	2.042s
`

func TestParseBenchOutput(t *testing.T) {
	bs, err := parseBenchOutput(sampleBenchOutput)
	if err != nil {
		t.Fatal(err)
	}
	if len(bs) != 3 {
		t.Fatalf("parsed %d benchmarks, want 3", len(bs))
	}
	b := bs[0]
	if b.Package != "vasched/internal/lp" || b.Name != "BenchmarkSolve" ||
		b.Iterations != 1000 || b.NsPerOp != 1052341 || b.BytesPerOp != 524288 || b.AllocsPerOp != 12 {
		t.Fatalf("first benchmark = %+v", b)
	}
	if bs[2].Metrics["swaps/op"] != 1.25 {
		t.Fatalf("custom metric not captured: %+v", bs[2])
	}
}

func TestParseBenchOutputBadValue(t *testing.T) {
	if _, err := parseBenchOutput("BenchmarkX-4 100 oops ns/op\n"); err == nil {
		t.Fatal("bad value accepted")
	}
}

func TestTrimProcSuffix(t *testing.T) {
	for in, want := range map[string]string{
		"BenchmarkSolve-8":      "BenchmarkSolve",
		"BenchmarkSolve-128":    "BenchmarkSolve",
		"BenchmarkSolve":        "BenchmarkSolve",
		"BenchmarkSolve-warm":   "BenchmarkSolve-warm",
		"BenchmarkSolve-warm-2": "BenchmarkSolve-warm",
	} {
		if got := trimProcSuffix(in); got != want {
			t.Errorf("trimProcSuffix(%q) = %q, want %q", in, got, want)
		}
	}
}

func TestLatestSnapshot(t *testing.T) {
	dir := t.TempDir()
	if got := latestSnapshot(dir); got != "" {
		t.Fatalf("empty dir returned %q", got)
	}
	for _, name := range []string{"BENCH_2026-01-05.json", "BENCH_2026-03-01.json", "BENCH_2025-12-31.json", "other.json"} {
		if err := os.WriteFile(filepath.Join(dir, name), []byte("{}"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if got := latestSnapshot(dir); filepath.Base(got) != "BENCH_2026-03-01.json" {
		t.Fatalf("latestSnapshot = %q, want newest date", got)
	}
}

// TestCompareThresholdMath pins the regression arithmetic: delta is
// percent over the OLD time, strictly-greater-than the threshold counts,
// missing baselines print as new without counting, and baseline entries
// the run no longer has print as gone without counting — but only in
// packages the run benchmarked.
func TestCompareThresholdMath(t *testing.T) {
	prev := &Snapshot{Benchmarks: []Benchmark{
		{Package: "p", Name: "BenchmarkA", NsPerOp: 100},
		{Package: "p", Name: "BenchmarkB", NsPerOp: 100},
		{Package: "p", Name: "BenchmarkC", NsPerOp: 100},
		{Package: "p", Name: "BenchmarkZero", NsPerOp: 0},
		{Package: "p", Name: "BenchmarkDeleted", NsPerOp: 300},
		{Package: "q", Name: "BenchmarkNotRun", NsPerOp: 100},
	}}
	cur := &Snapshot{Benchmarks: []Benchmark{
		{Package: "p", Name: "BenchmarkA", NsPerOp: 120}, // exactly +20%: not a regression at threshold 20
		{Package: "p", Name: "BenchmarkB", NsPerOp: 121}, // +21%: regression
		{Package: "p", Name: "BenchmarkC", NsPerOp: 80},  // improvement
		{Package: "p", Name: "BenchmarkZero", NsPerOp: 5},
		{Package: "p", Name: "BenchmarkNew", NsPerOp: 50},
	}}
	var buf strings.Builder
	got := compare(&buf, prev, cur, "base.json", 20)
	if got != 1 {
		t.Fatalf("regressions = %d, want 1\n%s", got, buf.String())
	}
	out := buf.String()
	if !strings.Contains(out, "comparison vs base.json") {
		t.Fatalf("missing header:\n%s", out)
	}
	lines := strings.Split(out, "\n")
	markers := 0
	for _, l := range lines {
		if strings.Contains(l, "<< REGRESSION") {
			if !strings.Contains(l, "BenchmarkB") {
				t.Errorf("regression marker on wrong line: %q", l)
			}
			markers++
		}
		if strings.Contains(l, "BenchmarkNew") && !strings.Contains(l, "new") {
			t.Errorf("new benchmark not marked: %q", l)
		}
		if strings.Contains(l, "BenchmarkDeleted") && !strings.HasSuffix(l, "gone") {
			t.Errorf("vanished benchmark not marked gone: %q", l)
		}
	}
	if markers != 1 {
		t.Fatalf("marker count = %d, want 1\n%s", markers, out)
	}
	if strings.Count(out, "BenchmarkDeleted") != 1 {
		t.Fatalf("vanished benchmark not listed once:\n%s", out)
	}
	if strings.Contains(out, "BenchmarkNotRun") {
		t.Fatalf("benchmark of a package the run skipped listed:\n%s", out)
	}
}

// TestFingerprintWarning: comparing snapshots from different hosts prints
// the loud mismatch banner (including both fingerprints), same-host
// comparisons stay quiet, and a legacy snapshot without num_cpu renders
// as cpu? so the mismatch still surfaces.
func TestFingerprintWarning(t *testing.T) {
	ref := &Snapshot{GOOS: "linux", GOARCH: "amd64", NumCPU: 1}
	other := &Snapshot{GOOS: "linux", GOARCH: "amd64", NumCPU: 16}
	var buf strings.Builder
	compare(&buf, ref, other, "base.json", 20)
	out := buf.String()
	if !strings.Contains(out, "HOST FINGERPRINT MISMATCH") ||
		!strings.Contains(out, "linux/amd64/cpu1") || !strings.Contains(out, "linux/amd64/cpu16") {
		t.Fatalf("mismatch banner missing or incomplete:\n%s", out)
	}

	buf.Reset()
	compare(&buf, ref, ref, "base.json", 20)
	if strings.Contains(buf.String(), "MISMATCH") {
		t.Fatalf("same-host comparison warned:\n%s", buf.String())
	}

	legacy := &Snapshot{GOOS: "linux", GOARCH: "amd64"}
	buf.Reset()
	compare(&buf, legacy, other, "base.json", 20)
	if !strings.Contains(buf.String(), "linux/amd64/cpu?") {
		t.Fatalf("legacy snapshot fingerprint not rendered as cpu?:\n%s", buf.String())
	}
}

func TestReadSnapshotErrors(t *testing.T) {
	if _, err := readSnapshot(filepath.Join(t.TempDir(), "nope.json")); err == nil {
		t.Fatal("missing file accepted")
	}
	bad := filepath.Join(t.TempDir(), "bad.json")
	if err := os.WriteFile(bad, []byte("not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := readSnapshot(bad); err == nil {
		t.Fatal("malformed snapshot accepted")
	}
}

func TestRunRejectsBadFlags(t *testing.T) {
	var buf strings.Builder
	if err := run([]string{"-no-such-flag"}, &buf); err == nil {
		t.Fatal("unknown flag accepted")
	}
}
