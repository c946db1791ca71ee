// Command benchstatus is the repository's persistent benchmark harness.
// It runs the benchmark suite (the paper-artefact benchmarks in the repo
// root plus the hot-path micro-benchmarks in internal/...) with
// -benchmem, writes a BENCH_<date>.json snapshot, and compares against
// the previous snapshot so performance wins and losses are recorded, not
// remembered.
//
// Usage:
//
//	go run ./cmd/benchstatus                  # snapshot + compare vs latest BENCH_*.json
//	go run ./cmd/benchstatus -check           # also exit 1 on >threshold ns/op regressions
//	go run ./cmd/benchstatus -baseline F.json # compare against a specific snapshot
//	go run ./cmd/benchstatus -pkgs ./internal/lp -bench Solve
//
// It also gates the cmd/vaschedload capacity snapshots: -load compares
// a LOAD_*.json against the newest committed one (or -load-baseline)
// and, with -check, fails on a sustained-capacity drop beyond
// -threshold percent:
//
//	go run ./cmd/benchstatus -load LOAD_2026-08-08.json -check
//
// The committed BENCH_*.json files are the baselines CI regresses
// against (make ci). Timings from different machines are not comparable;
// refresh the baseline when the reference machine changes. The same
// host-fingerprint rule applies to LOAD_*.json capacity baselines.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"
)

// Benchmark is one measured benchmark in a snapshot.
type Benchmark struct {
	Package     string             `json:"package"`
	Name        string             `json:"name"`
	Iterations  int64              `json:"iterations"`
	NsPerOp     float64            `json:"ns_per_op"`
	BytesPerOp  float64            `json:"bytes_per_op,omitempty"`
	AllocsPerOp float64            `json:"allocs_per_op,omitempty"`
	Metrics     map[string]float64 `json:"metrics,omitempty"`
}

// Snapshot is the persisted BENCH_<date>.json document.
type Snapshot struct {
	Date      string `json:"date"`
	GoVersion string `json:"go_version"`
	GOOS      string `json:"goos"`
	GOARCH    string `json:"goarch"`
	// NumCPU completes the host fingerprint: timings from machines with
	// different core counts (or OS/arch) are not comparable, and compare
	// warns loudly when fingerprints differ.
	NumCPU     int         `json:"num_cpu,omitempty"`
	BenchTime  string      `json:"benchtime"`
	Benchmarks []Benchmark `json:"benchmarks"`
}

// Fingerprint renders the host identity a snapshot's timings are bound
// to. Old snapshots without num_cpu render with cpu? so a mismatch
// against them still warns rather than silently comparing.
func (s *Snapshot) Fingerprint() string {
	cpu := "cpu?"
	if s.NumCPU > 0 {
		cpu = fmt.Sprintf("cpu%d", s.NumCPU)
	}
	return fmt.Sprintf("%s/%s/%s", s.GOOS, s.GOARCH, cpu)
}

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "benchstatus:", err)
		os.Exit(1)
	}
}

// run is the testable CLI core: parse args, run the suite, write the
// snapshot, and compare. Regressions beyond -threshold with -check set
// surface as a non-nil error.
func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("benchstatus", flag.ContinueOnError)
	var (
		pkgs      = fs.String("pkgs", "./internal/stats,./internal/grf,./internal/thermal,./internal/linsolve,./internal/chip,./internal/lp,./internal/pm,./internal/anneal,./internal/cpusim,./internal/fft,./internal/jobstore,./internal/diecache,./internal/varmodel,./internal/adapt,./internal/core,./internal/dynamic,./internal/tech,./internal/delay,./internal/floorplan,.", "comma-separated packages to benchmark")
		bench     = fs.String("bench", ".", "benchmark regex passed to go test -bench")
		benchtime = fs.String("benchtime", "0.3s", "value passed to go test -benchtime")
		out       = fs.String("out", "", "output snapshot path (default BENCH_<date>.json in the repo root)")
		baseline  = fs.String("baseline", "", "snapshot to compare against (default: newest committed BENCH_*.json)")
		threshold = fs.Float64("threshold", 20, "ns/op regression percentage treated as a failure with -check")
		check     = fs.Bool("check", false, "exit non-zero if any benchmark regressed more than -threshold vs the baseline")
		nowrite   = fs.Bool("nowrite", false, "skip writing the snapshot file")
		load      = fs.String("load", "", "LOAD_*.json capacity snapshot to gate instead of running benchmarks")
		loadBase  = fs.String("load-baseline", "", "LOAD_*.json baseline for -load (default: newest committed LOAD_*.json)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	if *load != "" {
		return runLoad(stdout, *load, *loadBase, *threshold, *check)
	}

	snap, err := runSuite(strings.Split(*pkgs, ","), *bench, *benchtime)
	if err != nil {
		return err
	}

	prevPath := *baseline
	if prevPath == "" {
		prevPath = latestSnapshot(".")
	}
	var prev *Snapshot
	if prevPath != "" {
		prev, err = readSnapshot(prevPath)
		if err != nil {
			return fmt.Errorf("baseline: %w", err)
		}
	}

	outPath := *out
	if outPath == "" {
		outPath = fmt.Sprintf("BENCH_%s.json", snap.Date)
	}
	if !*nowrite {
		buf, err := json.MarshalIndent(snap, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(outPath, append(buf, '\n'), 0o644); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "wrote %s (%d benchmarks)\n", outPath, len(snap.Benchmarks))
	}

	if prev == nil {
		fmt.Fprintln(stdout, "no baseline snapshot found; nothing to compare")
		return nil
	}
	regressions := compare(stdout, prev, snap, prevPath, *threshold)
	if *check && regressions > 0 {
		return fmt.Errorf("%d benchmark(s) regressed more than %.0f%%", regressions, *threshold)
	}
	return nil
}

// runSuite runs go test -bench over each package and parses the output.
func runSuite(pkgs []string, bench, benchtime string) (*Snapshot, error) {
	snap := &Snapshot{
		Date:      time.Now().Format("2006-01-02"),
		GoVersion: runtime.Version(),
		GOOS:      runtime.GOOS,
		GOARCH:    runtime.GOARCH,
		NumCPU:    runtime.NumCPU(),
		BenchTime: benchtime,
	}
	for _, pkg := range pkgs {
		pkg = strings.TrimSpace(pkg)
		if pkg == "" {
			continue
		}
		cmd := exec.Command("go", "test", "-run", "^$", "-bench", bench,
			"-benchmem", "-benchtime", benchtime, pkg)
		outBuf, err := cmd.CombinedOutput()
		if err != nil {
			return nil, fmt.Errorf("%s: %v\n%s", pkg, err, outBuf)
		}
		bs, err := parseBenchOutput(string(outBuf))
		if err != nil {
			return nil, fmt.Errorf("%s: %v", pkg, err)
		}
		snap.Benchmarks = append(snap.Benchmarks, bs...)
	}
	return snap, nil
}

var benchLine = regexp.MustCompile(`^(Benchmark\S+)\s+(\d+)\s+(.*)$`)

// parseBenchOutput extracts benchmark results from go test output. Each
// benchmark line carries space-separated "<value> <unit>" pairs after the
// iteration count; ns/op, B/op, and allocs/op land in dedicated fields
// and everything else (ReportMetric output) goes into Metrics.
func parseBenchOutput(out string) ([]Benchmark, error) {
	var res []Benchmark
	pkg := ""
	for _, line := range strings.Split(out, "\n") {
		line = strings.TrimSpace(line)
		if strings.HasPrefix(line, "pkg: ") {
			pkg = strings.TrimPrefix(line, "pkg: ")
			continue
		}
		mm := benchLine.FindStringSubmatch(line)
		if mm == nil {
			continue
		}
		iters, err := strconv.ParseInt(mm[2], 10, 64)
		if err != nil {
			return nil, fmt.Errorf("bad iteration count in %q", line)
		}
		b := Benchmark{Package: pkg, Name: trimProcSuffix(mm[1]), Iterations: iters}
		fields := strings.Fields(mm[3])
		for i := 0; i+1 < len(fields); i += 2 {
			v, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				return nil, fmt.Errorf("bad value %q in %q", fields[i], line)
			}
			switch fields[i+1] {
			case "ns/op":
				b.NsPerOp = v
			case "B/op":
				b.BytesPerOp = v
			case "allocs/op":
				b.AllocsPerOp = v
			default:
				if b.Metrics == nil {
					b.Metrics = map[string]float64{}
				}
				b.Metrics[fields[i+1]] = v
			}
		}
		res = append(res, b)
	}
	return res, nil
}

// trimProcSuffix drops the -GOMAXPROCS suffix so snapshots from machines
// with different core counts still align by name.
func trimProcSuffix(name string) string {
	if i := strings.LastIndex(name, "-"); i > 0 {
		if _, err := strconv.Atoi(name[i+1:]); err == nil {
			return name[:i]
		}
	}
	return name
}

// latestSnapshot returns the newest BENCH_*.json in dir, or "".
func latestSnapshot(dir string) string {
	matches, _ := filepath.Glob(filepath.Join(dir, "BENCH_*.json"))
	if len(matches) == 0 {
		return ""
	}
	sort.Strings(matches) // dates are ISO-8601, so lexical order is temporal
	return matches[len(matches)-1]
}

func readSnapshot(path string) (*Snapshot, error) {
	buf, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s Snapshot
	if err := json.Unmarshal(buf, &s); err != nil {
		return nil, fmt.Errorf("%s: %v", path, err)
	}
	return &s, nil
}

// compare prints a delta table against the baseline and returns how many
// benchmarks regressed beyond threshold percent ns/op. Baseline entries
// missing from the run are listed as gone, without counting, so a deleted
// or renamed benchmark does not drop out of the gate unnoticed; only
// packages this run benchmarked are checked, so a run over a package
// subset does not flag the rest.
func compare(w io.Writer, prev, cur *Snapshot, prevPath string, threshold float64) int {
	base := map[string]Benchmark{}
	for _, b := range prev.Benchmarks {
		base[b.Package+"."+b.Name] = b
	}
	ran := map[string]bool{}  // packages in this run
	seen := map[string]bool{} // benchmark keys in this run
	for _, b := range cur.Benchmarks {
		ran[b.Package] = true
		seen[b.Package+"."+b.Name] = true
	}
	fmt.Fprintf(w, "\ncomparison vs %s:\n", prevPath)
	if pf, cf := prev.Fingerprint(), cur.Fingerprint(); pf != cf {
		fmt.Fprintf(w, "\n"+
			"  *** HOST FINGERPRINT MISMATCH: baseline %s, this machine %s ***\n"+
			"  *** cross-machine timings are not comparable — deltas below  ***\n"+
			"  *** are advisory only; refresh with `make benchsnap` on the  ***\n"+
			"  *** reference machine before trusting any regression.        ***\n\n", pf, cf)
	}
	fmt.Fprintf(w, "%-58s %14s %14s %8s\n", "benchmark", "old ns/op", "new ns/op", "delta")
	regressions := 0
	for _, b := range cur.Benchmarks {
		key := b.Package + "." + b.Name
		old, ok := base[key]
		if !ok || old.NsPerOp == 0 {
			fmt.Fprintf(w, "%-58s %14s %14.0f %8s\n", shortKey(key), "-", b.NsPerOp, "new")
			continue
		}
		delta := (b.NsPerOp - old.NsPerOp) / old.NsPerOp * 100
		marker := ""
		if delta > threshold {
			marker = "  << REGRESSION"
			regressions++
		}
		fmt.Fprintf(w, "%-58s %14.0f %14.0f %+7.1f%%%s\n", shortKey(key), old.NsPerOp, b.NsPerOp, delta, marker)
	}
	for _, b := range prev.Benchmarks {
		key := b.Package + "." + b.Name
		if ran[b.Package] && !seen[key] {
			seen[key] = true
			fmt.Fprintf(w, "%-58s %14.0f %14s %8s\n", shortKey(key), b.NsPerOp, "-", "gone")
		}
	}
	return regressions
}

// shortKey strips the module prefix so the table fits a terminal.
func shortKey(key string) string {
	return strings.TrimPrefix(key, "vasched/")
}
