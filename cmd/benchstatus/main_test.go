package main

import (
	"context"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

const sampleBenchOutput = `goos: linux
goarch: amd64
pkg: vasched/internal/lp
cpu: some cpu
BenchmarkSolve-8         	    1000	   1052341 ns/op	  524288 B/op	      12 allocs/op
BenchmarkSolveWarm       	    5000	    201234 ns/op
BenchmarkAnneal/chains-4-2	     200	   7000000 ns/op	       1.25 swaps/op
PASS
ok  	vasched/internal/lp	2.042s
`

func TestParseBenchOutput(t *testing.T) {
	got, err := parseBenchOutput(sampleBenchOutput)
	if err != nil {
		t.Fatal(err)
	}
	want := []result{
		{"BenchmarkSolve", 1052341},
		{"BenchmarkSolveWarm", 201234},
		{"BenchmarkAnneal/chains-4", 7000000},
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("parsed %+v, want %+v", got, want)
	}
}

func TestParseBenchOutputBadValue(t *testing.T) {
	if _, err := parseBenchOutput("BenchmarkX-4 100 1.2.3 ns/op\n"); err == nil {
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

func TestRunRejectsBadFlags(t *testing.T) {
	var buf strings.Builder
	for _, args := range [][]string{nil, {"-no-such-flag"}, {"HEAD", "-threshold", "20"}} {
		if err := run(context.Background(), ".", args, &buf, gate{}); err == nil {
			t.Errorf("run(%q) accepted", args)
		}
	}
}

// paired is the series of rounds with one run pair each.
func paired(parent, change []float64) *series {
	n := min(len(parent), len(change))
	s := &series{ns: [2][]float64{parent, change}}
	for i := 0; i < n; i++ {
		s.ratios = append(s.ratios, change[i]/parent[i])
	}
	for range parent {
		s.parentDev = append(s.parentDev, 1)
	}
	return s
}

// scaled returns base times each factor.
func scaled(base float64, factors ...float64) []float64 {
	out := make([]float64, len(factors))
	for i, f := range factors {
		out[i] = base * f
	}
	return out
}

// TestCompareThresholdMath pins the paired rule a benchmark is judged
// by: nine of ten rounds with ties counting for neither, a median ratio
// beyond the parent's within-round quartile spread, and beyond
// minEffect.
func TestCompareThresholdMath(t *testing.T) {
	parent := scaled(100, 1, 1.01, 0.99, 1, 1.02, 0.98, 1, 1.01, 0.99, 1)
	for _, tc := range []struct {
		name           string
		parent, change []float64
		want           string
		faster, slower int
	}{
		{"identical runs tie every round", parent, parent, "same", 0, 0},
		{"20% slower in 10 of 10", parent, scaled(120, 1, 1.01, 0.99, 1, 1.02, 0.98, 1, 1.01, 0.99, 1), "worse", 0, 10},
		{"20% slower in 9 of 10, one tie", parent, append(scaled(120, 1, 1.01, 0.99, 1, 1.02, 0.98, 1, 1.01, 0.99), 100), "worse", 0, 9},
		{"20% slower in 9 of 10, one faster", parent, append(scaled(120, 1, 1.01, 0.99, 1, 1.02, 0.98, 1, 1.01, 0.99), 90), "worse", 1, 9},
		{"20% slower in 8 of 10", parent, append(scaled(120, 1, 1.01, 0.99, 1, 1.02, 0.98, 1, 1.01), 90, 90), "same", 2, 8},
		{"slower every round but below the minimum effect", parent, scaled(100*(1+minEffect/2), 1, 1.01, 0.99, 1, 1.02, 0.98, 1, 1.01, 0.99, 1), "same", 0, 10},
		{"20% faster in 10 of 10", parent, scaled(80, 1, 1.01, 0.99, 1, 1.02, 0.98, 1, 1.01, 0.99, 1), "better", 10, 0},
		{"unpaired tail is ignored", parent, append(append([]float64(nil), parent...), 1e9), "same", 0, 0},
	} {
		v, _, faster, slower := verdict(paired(tc.parent, tc.change))
		if v != tc.want || faster != tc.faster || slower != tc.slower {
			t.Errorf("%s: verdict %s (faster %d, slower %d), want %s (%d, %d)",
				tc.name, v, faster, slower, tc.want, tc.faster, tc.slower)
		}
	}

	// Slower by 20% every round, but the parent's runs spread by more
	// than that within their rounds.
	s := paired(parent, scaled(120, 1, 1.01, 0.99, 1, 1.02, 0.98, 1, 1.01, 0.99, 1))
	s.parentDev = []float64{0.7, 1, 1.3, 0.75, 1, 1.25, 0.8, 1, 1.2, 0.7, 1, 1.3}
	if v, _, _, slower := verdict(s); v != "same" || slower != 10 {
		t.Errorf("slower inside the parent's spread: verdict %s, slower %d; want same, 10", v, slower)
	}
	// The same series with a tight parent reads worse: drift between
	// rounds, which the pairing cancels, is not spread.
	s.parentDev = []float64{0.99, 1, 1.01, 0.98, 1, 1.02}
	s.ns[0] = scaled(100, 0.6, 1.6, 0.7, 1.5, 0.8, 1.4, 0.9, 1.3, 1, 1.2)
	if v, _, _, _ := verdict(s); v != "worse" {
		t.Errorf("slower beyond the within-round spread, drifting rounds: verdict %s, want worse", v)
	}
}

// TestReport checks that a worse line names its package and benchmark,
// and that benchmarks only one side ran read new or gone.
func TestReport(t *testing.T) {
	base := scaled(100, 1, 1.01, 0.99, 1, 1.02, 0.98, 1, 1.01, 0.99, 1)
	slow := scaled(125, 1, 1.01, 0.99, 1, 1.02, 0.98, 1, 1.01, 0.99, 1)
	got := samples{
		"internal/thermal BenchmarkSolveScratch": paired(base, slow),
		"internal/thermal BenchmarkFixedPoint":   paired(base, base),
		"internal/lp BenchmarkAdded":             paired(nil, base),
		"internal/lp BenchmarkDropped":           paired(base, nil),
	}
	var buf strings.Builder
	worse := report(&buf, got)
	if !reflect.DeepEqual(worse, []string{"internal/thermal BenchmarkSolveScratch"}) {
		t.Fatalf("worse = %q\n%s", worse, buf.String())
	}
	for name, want := range map[string]string{
		"BenchmarkSolveScratch": "worse", "BenchmarkFixedPoint": "same",
		"BenchmarkAdded": "new", "BenchmarkDropped": "gone",
	} {
		found := false
		for _, line := range strings.Split(buf.String(), "\n") {
			if f := strings.Fields(line); len(f) > 2 && f[1] == name {
				found = true
				if f[len(f)-1] != want {
					t.Errorf("%s reads %q, want %s", name, line, want)
				}
			}
		}
		if !found {
			t.Errorf("%s missing from the report:\n%s", name, buf.String())
		}
	}
}

func TestWorseRows(t *testing.T) {
	table := `workload         metric            runs     parent p50     change p50   change  verdict
service-light    setup_s          10/10        1.40721        1.39102    -1.2%  same
service-light    work_per_s       10/10        11.8125        11.8021    -0.1%  same
service-light    unit_ms_p50      10/10        1.17541        1.71212   +45.7%  worse
service-light    unit_ms_tail     10/10        522.913        601.811   +15.1%  unresolved
service-light    max_rss_mb       10/10        77.1094        71.0000    -7.9%  better
service-light    2 run(s) flagged noisy: rerun them`
	if got := worseRows(table); !reflect.DeepEqual(got, []string{"service-light unit_ms_p50"}) {
		t.Fatalf("worseRows = %q", got)
	}
	if got := worseRows(strings.ReplaceAll(table, "worse", "same")); got != nil {
		t.Fatalf("worseRows of a table without worse = %q", got)
	}
}

// writeFiles creates the given files, slash-separated paths relative to
// root, with their parent directories.
func writeFiles(t *testing.T, root string, files map[string]string) {
	t.Helper()
	for name, body := range files {
		path := filepath.Join(root, filepath.FromSlash(name))
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

func TestBenchPackages(t *testing.T) {
	root := t.TempDir()
	writeFiles(t, root, map[string]string{
		"internal/a/a_test.go":             "package a\n\nfunc BenchmarkA(b *testing.B) {}\n",
		"internal/b/b_test.go":             "package b\n\nfunc TestB(t *testing.T) {}\n",
		"internal/c/testdata/x/x_test.go":  "package x\n\nfunc BenchmarkX(b *testing.B) {}\n",
		"internal/d/e/e.go":                "package e\n\nfunc BenchmarkNotATest() {}\n",
		"internal/d/e/ext_test.go":         "package e_test\n\nfunc BenchmarkE(b *testing.B) {}\n",
		"internal/_skip/s_test.go":         "package s\n\nfunc BenchmarkS(b *testing.B) {}\n",
		"cmd/tool/tool_test.go":            "package main\n\nfunc BenchmarkTool(b *testing.B) {}\n",
		"internal/f/commented_out_test.go": "package f\n\n// func BenchmarkF(b *testing.B) {}\n",
	})
	got, err := benchPackages(root)
	if err != nil {
		t.Fatal(err)
	}
	if want := []string{"internal/a", "internal/d/e"}; !reflect.DeepEqual(got, want) {
		t.Fatalf("benchPackages = %q, want %q", got, want)
	}
}

// workPackage is a benchmark package whose one benchmark spins n
// xorshift steps per operation. It reports the process's CPU time per
// operation as its ns/op, so that other processes sharing the CPUs (the
// rest of a parallel test run) cannot hide a difference in work.
func workPackage(pkg string, n int) map[string]string {
	return map[string]string{
		"internal/" + pkg + "/doc.go": "package " + pkg + "\n",
		"internal/" + pkg + "/work_test.go": fmt.Sprintf(`package %s

import (
	"syscall"
	"testing"
)

var sink uint64

func cpuNanos() int64 {
	var ru syscall.Rusage
	syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return ru.Utime.Nano() + ru.Stime.Nano()
}

func BenchmarkWork(b *testing.B) {
	start := cpuNanos()
	for i := 0; i < b.N; i++ {
		x := uint64(i + 1)
		for j := 0; j < %d; j++ {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
		}
		sink += x
	}
	b.ReportMetric(float64(cpuNanos()-start)/float64(b.N), "ns/op")
}
`, pkg, n),
	}
}

// newModule writes a module named x holding the given files.
func newModule(t *testing.T, files ...map[string]string) string {
	t.Helper()
	root := t.TempDir()
	writeFiles(t, root, map[string]string{"go.mod": "module x\n\ngo 1.22\n"})
	for _, f := range files {
		writeFiles(t, root, f)
	}
	return root
}

// TestRoundsCatchSlowerCopy runs the round loop on two throwaway trees.
// Package slow does 20% more work in the change tree; package same is
// identical in both. Only slow may read worse.
func TestRoundsCatchSlowerCopy(t *testing.T) {
	const n = 1_000_000
	trees := [2]string{
		newModule(t, workPackage("slow", n), workPackage("same", n)),
		newModule(t, workPackage("slow", n*6/5), workPackage("same", n)),
	}
	ctx := context.Background()
	suites, err := build(ctx, trees, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if len(suites) != 2 || suites[0].pkg != "internal/same" || suites[1].pkg != "internal/slow" {
		t.Fatalf("suites = %+v", suites)
	}
	var buf strings.Builder
	got, err := gate{rounds: 10, reps: reps, benchtime: "10x"}.runRounds(ctx, &buf, suites)
	if err != nil {
		t.Fatal(err)
	}
	worse := report(&buf, got)
	t.Logf("\n%s", buf.String())
	if !reflect.DeepEqual(worse, []string{"internal/slow BenchmarkWork"}) {
		t.Fatalf("worse = %q, want only internal/slow", worse)
	}
	if v, _, _, _ := verdict(got["internal/same BenchmarkWork"]); v != "same" {
		t.Fatalf("identical copies read %s", v)
	}
	for _, s := range got {
		if len(s.ns[0]) != 10 || len(s.ns[1]) != 10 || len(s.ratios) != 10 {
			t.Fatalf("got %d, %d and %d samples, want 10 per side and 10 ratios", len(s.ns[0]), len(s.ns[1]), len(s.ratios))
		}
	}
}

// fakeBench is a bench/run.sh stand-in. A run appends its tree's side
// file and workload to log and one record to its --out file; -compare
// prints a table whose rows count each file's records and whose
// setup_s row reads worse.
const fakeBench = `#!/usr/bin/env bash
set -e
if [ "$1" = -compare ]; then
	echo "workload metric runs parent change change verdict"
	echo "w1 work_per_s $(wc -l < "$2")/$(wc -l < "$3") 1 1 +0.0% same"
	echo "w1 setup_s $(wc -l < "$2")/$(wc -l < "$3") 1 2 +100.0% worse"
	exit 0
fi
echo "$(cat side) $2" >> LOG
echo '{}' >> "$4"
`

// git runs git in dir with a fixed identity.
func git(t *testing.T, dir string, args ...string) {
	t.Helper()
	cmd := exec.Command("git", append([]string{"-c", "user.name=t", "-c", "user.email=t@example.com", "-c", "commit.gpgsign=false"}, args...)...)
	cmd.Dir = dir
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("git %v: %v\n%s", args, err, out)
	}
}

// TestRunAgainstRevision drives the whole command on a throwaway git
// repository: the parent is its commit, the change its working tree.
// The runs alternate sides round by round, bench's worse row fails the
// run, and the temporary directory is gone afterwards, also when the
// change does not build.
func TestRunAgainstRevision(t *testing.T) {
	if _, err := exec.LookPath("git"); err != nil {
		t.Skip("git not installed")
	}
	tmp := t.TempDir()
	t.Setenv("TMPDIR", tmp)
	log := filepath.Join(t.TempDir(), "runs.log")
	repo := newModule(t, workPackage("a", 1000), map[string]string{
		"side":         "parent\n",
		"bench/run.sh": strings.ReplaceAll(fakeBench, "LOG", log),
	})
	git(t, repo, "init", "-q")
	git(t, repo, "add", "-A")
	git(t, repo, "commit", "-qm", "parent")
	writeFiles(t, repo, map[string]string{"side": "change\n"})

	var buf strings.Builder
	err := run(context.Background(), filepath.Join(repo, "internal"), []string{"HEAD", "w1"}, &buf, gate{rounds: 2, reps: 1, benchtime: "10x"})
	t.Logf("\n%s", buf.String())
	if err == nil || !strings.Contains(err.Error(), "w1 setup_s") {
		t.Fatalf("err = %v, want bench's worse row", err)
	}
	if !strings.Contains(buf.String(), "internal/a") || !strings.Contains(buf.String(), "w1 work_per_s 2/2") {
		t.Fatalf("report lacks the micro-benchmark or two records per side:\n%s", buf.String())
	}
	runs, err := os.ReadFile(log)
	if err != nil {
		t.Fatal(err)
	}
	if want := "parent w1\nchange w1\nchange w1\nparent w1\n"; string(runs) != want {
		t.Fatalf("run order:\n%s\nwant:\n%s", runs, want)
	}
	assertEmpty(t, tmp)

	writeFiles(t, repo, map[string]string{"internal/a/broken_test.go": "package a\n\nfunc broken( {\n"})
	err = run(context.Background(), repo, []string{"HEAD"}, &buf, gate{rounds: 2, reps: 1, benchtime: "10x"})
	if err == nil || !strings.Contains(err.Error(), "building change's internal/a") {
		t.Fatalf("err = %v, want the change's build failure", err)
	}
	assertEmpty(t, tmp)

	if err := run(context.Background(), repo, []string{"no-such-rev"}, &buf, gate{rounds: 2, reps: 1, benchtime: "10x"}); err == nil {
		t.Fatal("unknown revision accepted")
	}
	assertEmpty(t, tmp)
}

// assertEmpty fails unless dir has no entries.
func assertEmpty(t *testing.T, dir string) {
	t.Helper()
	left, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(left) > 0 {
		t.Fatalf("%s keeps %d entries, first %s", dir, len(left), left[0].Name())
	}
}
