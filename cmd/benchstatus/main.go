// Command benchstatus is the repository's performance gate. It compares
// the working tree with a parent git revision by running both, in
// alternation, on this host, so that a slower or busier machine moves
// both sides alike and only the change shows:
//
//	go run ./cmd/benchstatus <parent-rev> [workload ...]
//
// It extracts the parent revision into a temporary directory and builds
// the test binary of every package under internal/ that declares a
// benchmark, once per tree. It then runs ten rounds. In each round every
// package's parent and change binaries run back to back three times,
// one process at a time, the side that goes first alternating within
// and across rounds, and the round keeps the median change/parent ratio
// of its three run pairs for each benchmark. Each benchmark is judged
// on its ten per-round ratios: it reads worse (or better) only when the
// change loses (or wins) at least nine of the ten rounds, ties counting
// for neither, and the median ratio moves by more than minEffect and by
// more than the interquartile spread of the parent's runs, each taken
// relative to its round so that the host's drift between rounds, which
// the pairing cancels, does not count as spread.
//
// Each workload named after the revision is a workload of the
// repository benchmark (bench/). Its runs alternate the same way, ten
// per side, through `bash bench/run.sh --workload W --out FILE` in each
// tree, and bench's own `-compare` mode judges them.
//
// Any worse verdict makes the command exit non-zero. The temporary
// directory is removed on every path, also when a build or a run fails
// or the command is interrupted.
package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"math"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"vasched/internal/stats"
)

const (
	// rounds is the number of paired samples per benchmark and
	// workload: the ten pairs the nine-of-ten rule needs.
	rounds = 10
	// reps is the number of run pairs in a micro-benchmark round. The
	// VM's speed swings by ±20% and more within seconds, which a single
	// pair of runs can mistake for a 20% change; the median of three
	// adjacent pairs rarely does (EXPERIMENTS.md).
	reps = 3
	// benchtime is the -test.benchtime of every micro-benchmark run.
	benchtime = "0.1s"
	// minEffect is the smallest move of the median change/parent ratio
	// that can read worse or better. With about sixty benchmarks judged
	// at once, one side wins nine of ten coin-flip rounds somewhere every
	// few runs; this floor keeps such a chance win from reading as a
	// change. On the shared 2-vCPU VM recorded in EXPERIMENTS.md ("One
	// paired perf gate") the chance wins moved their medians by 9.4% at
	// most; the floor leaves margin above that and stays below the 20%
	// slowdown the gate must see.
	minEffect = 0.12
)

// sides names the two trees in the order the arrays below index them.
var sides = [2]string{"parent", "change"}

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	err := run(ctx, ".", os.Args[1:], os.Stdout, gate{rounds: rounds, reps: reps, benchtime: benchtime})
	stop()
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchstatus:", err)
		os.Exit(1)
	}
}

// gate holds the run length. The command always runs the constants
// above; tests run shorter.
type gate struct {
	rounds, reps int
	benchtime    string
}

// run compares the working tree holding dir with the revision args[0],
// on the micro-benchmarks and on the bench workloads args[1:]. A worse
// verdict is an error.
func run(ctx context.Context, dir string, args []string, w io.Writer, g gate) error {
	if len(args) == 0 {
		return errors.New("usage: benchstatus <parent-rev> [workload ...]")
	}
	for _, a := range args {
		if strings.HasPrefix(a, "-") {
			return fmt.Errorf("unknown flag %s (usage: benchstatus <parent-rev> [workload ...])", a)
		}
	}
	rev, workloads := args[0], args[1:]
	root, err := output(ctx, dir, "git", "rev-parse", "--show-toplevel")
	if err != nil {
		return err
	}
	commit, err := output(ctx, root, "git", "rev-parse", "--verify", rev+"^{commit}")
	if err != nil {
		return err
	}
	tmp, err := os.MkdirTemp("", "benchstatus-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(tmp)
	trees := [2]string{filepath.Join(tmp, "parent"), root}
	if err := extract(ctx, root, commit, trees[0]); err != nil {
		return err
	}
	fmt.Fprintf(w, "benchstatus: parent %s (%s), change %s\n", rev, commit, root)

	start := time.Now()
	suites, err := build(ctx, trees, filepath.Join(tmp, "bin"))
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "benchstatus: built the test binaries of %d benchmark packages in %s\n", len(suites), time.Since(start).Round(time.Second))
	got, err := g.runRounds(ctx, w, suites)
	if err != nil {
		return err
	}
	worse := report(w, got)
	if len(workloads) > 0 {
		rows, err := g.runWorkloads(ctx, w, trees, tmp, workloads)
		if err != nil {
			return err
		}
		worse = append(worse, rows...)
	}
	fmt.Fprintf(w, "benchstatus: %s in total\n", time.Since(start).Round(time.Second))
	if len(worse) > 0 {
		return fmt.Errorf("%d worse: %s", len(worse), strings.Join(worse, "; "))
	}
	return nil
}

// output runs a command in dir and returns its trimmed standard output.
// A failure's error carries the end of both output streams.
func output(ctx context.Context, dir, name string, args ...string) (string, error) {
	cmd := exec.CommandContext(ctx, name, args...)
	cmd.Dir = dir
	var stderr strings.Builder
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		tail := strings.TrimSpace(string(out) + "\n" + stderr.String())
		if len(tail) > 4000 {
			tail = "..." + tail[len(tail)-4000:]
		}
		return "", fmt.Errorf("%s %s: %v\n%s", name, strings.Join(args, " "), err, tail)
	}
	return strings.TrimSpace(string(out)), nil
}

// extract writes the tree of commit into dst.
func extract(ctx context.Context, root, commit, dst string) error {
	tarball := dst + ".tar"
	if _, err := output(ctx, root, "git", "archive", "--format=tar", "-o", tarball, commit); err != nil {
		return err
	}
	if err := os.MkdirAll(dst, 0o755); err != nil {
		return err
	}
	_, err := output(ctx, dst, "tar", "-xf", tarball)
	return err
}

// benchFunc matches a benchmark declaration in a test file.
var benchFunc = regexp.MustCompile(`(?m)^func Benchmark`)

// benchPackages returns the slash-separated directories, relative to
// root, of the packages under root/internal whose test files declare a
// benchmark.
func benchPackages(root string) ([]string, error) {
	base := filepath.Join(root, "internal")
	found := map[string]bool{}
	err := filepath.WalkDir(base, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		name := d.Name()
		if d.IsDir() {
			if path != base && (name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(name, "_test.go") {
			return nil
		}
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		if benchFunc.Match(src) {
			rel, err := filepath.Rel(root, filepath.Dir(path))
			if err != nil {
				return err
			}
			found[filepath.ToSlash(rel)] = true
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	pkgs := make([]string, 0, len(found))
	for p := range found {
		pkgs = append(pkgs, p)
	}
	sort.Strings(pkgs)
	return pkgs, nil
}

// suite is one benchmark package: its directory relative to the tree
// roots, and per side the package directory and test binary, both empty
// when that side has no benchmark there.
type suite struct {
	pkg  string
	dirs [2]string
	bins [2]string
}

// build compiles the test binary of every benchmark package of both
// trees into binDir.
func build(ctx context.Context, trees [2]string, binDir string) ([]suite, error) {
	byPkg := map[string]*suite{}
	for side, tree := range trees {
		pkgs, err := benchPackages(tree)
		if err != nil {
			return nil, fmt.Errorf("%s tree: %w", sides[side], err)
		}
		for _, pkg := range pkgs {
			s := byPkg[pkg]
			if s == nil {
				s = &suite{pkg: pkg}
				byPkg[pkg] = s
			}
			s.dirs[side] = filepath.Join(tree, filepath.FromSlash(pkg))
			s.bins[side] = filepath.Join(binDir, sides[side], strings.ReplaceAll(pkg, "/", "_")+".test")
			if _, err := output(ctx, tree, "go", "test", "-c", "-o", s.bins[side], "./"+pkg); err != nil {
				return nil, fmt.Errorf("building %s's %s: %w", sides[side], pkg, err)
			}
		}
	}
	suites := make([]suite, 0, len(byPkg))
	for _, s := range byPkg {
		suites = append(suites, *s)
	}
	sort.Slice(suites, func(i, j int) bool { return suites[i].pkg < suites[j].pkg })
	return suites, nil
}

// order returns the sides in the order run r of a series runs them: the
// parent first in even runs, the change first in odd ones.
func order(r int) [2]int {
	if r%2 == 0 {
		return [2]int{0, 1}
	}
	return [2]int{1, 0}
}

// series is one benchmark's results: per round, each side's median
// ns/op over the round's runs and the median change/parent ratio of the
// round's run pairs; and every parent run over its round's parent
// median, the parent's spread with the drift between rounds taken out.
type series struct {
	ns        [2][]float64
	ratios    []float64
	parentDev []float64
}

// samples holds each benchmark's series, keyed by "<package> <benchmark>".
type samples map[string]*series

// runRounds runs every suite's benchmarks for g.rounds rounds. A round
// runs a package's two binaries back to back g.reps times, alternating
// which goes first. Each pair of adjacent runs gives a ratio, and the
// round keeps their median: a swing of the host's speed that catches one
// pair moves the round less than it moves that pair.
func (g gate) runRounds(ctx context.Context, w io.Writer, suites []suite) (samples, error) {
	got := samples{}
	start := time.Now()
	for r := 0; r < g.rounds; r++ {
		for _, s := range suites {
			runs := map[string]*[2][]float64{}
			for k := 0; k < g.reps; k++ {
				for _, side := range order(r + k) {
					if s.bins[side] == "" {
						continue
					}
					out, err := output(ctx, s.dirs[side], s.bins[side],
						"-test.run=^$", "-test.bench=.", "-test.benchtime="+g.benchtime, "-test.timeout=10m")
					if err != nil {
						return nil, fmt.Errorf("%s's %s: %w", sides[side], s.pkg, err)
					}
					results, err := parseBenchOutput(out)
					if err != nil {
						return nil, fmt.Errorf("%s's %s: %w", sides[side], s.pkg, err)
					}
					for _, b := range results {
						if runs[b.name] == nil {
							runs[b.name] = &[2][]float64{}
						}
						runs[b.name][side] = append(runs[b.name][side], b.nsPerOp)
					}
				}
			}
			for name, run := range runs {
				key := s.pkg + " " + name
				if got[key] == nil {
					got[key] = &series{}
				}
				ser := got[key]
				for side, ns := range run {
					if len(ns) > 0 {
						ser.ns[side] = append(ser.ns[side], stats.Median(ns))
					}
				}
				for _, ns := range run[0] {
					ser.parentDev = append(ser.parentDev, ns/ser.ns[0][len(ser.ns[0])-1])
				}
				if n := min(len(run[0]), len(run[1])); n > 0 {
					ratios := make([]float64, n)
					for k := range ratios {
						ratios[k] = run[1][k] / run[0][k]
					}
					ser.ratios = append(ser.ratios, stats.Median(ratios))
				}
			}
		}
		fmt.Fprintf(w, "benchstatus: round %d/%d done after %s\n", r+1, g.rounds, time.Since(start).Round(time.Second))
	}
	return got, nil
}

// result is one benchmark line of go test output.
type result struct {
	name    string
	nsPerOp float64
}

var benchLine = regexp.MustCompile(`^(Benchmark\S+)\s+\d+\s+(\S+) ns/op`)

// parseBenchOutput extracts each benchmark's name, without its
// -GOMAXPROCS suffix, and its ns/op from go test output.
func parseBenchOutput(out string) ([]result, error) {
	var res []result
	for _, line := range strings.Split(out, "\n") {
		m := benchLine.FindStringSubmatch(strings.TrimSpace(line))
		if m == nil {
			continue
		}
		v, err := strconv.ParseFloat(m[2], 64)
		if err != nil {
			return nil, fmt.Errorf("bad ns/op %q in %q", m[2], line)
		}
		res = append(res, result{name: trimProcSuffix(m[1]), nsPerOp: v})
	}
	return res, nil
}

// trimProcSuffix drops the -GOMAXPROCS suffix go test appends to a
// benchmark's name.
func trimProcSuffix(name string) string {
	if i := strings.LastIndex(name, "-"); i > 0 {
		if _, err := strconv.Atoi(name[i+1:]); err == nil {
			return name[:i]
		}
	}
	return name
}

// verdict judges a benchmark from its series. It also returns the
// median of the per-round ratios and the rounds the change ran faster
// and slower.
func verdict(s *series) (v string, ratio float64, faster, slower int) {
	for _, r := range s.ratios {
		switch {
		case r < 1:
			faster++
		case r > 1:
			slower++
		}
	}
	n := len(s.ratios)
	ratio = stats.Median(s.ratios)
	spread := stats.Quantile(s.parentDev, 0.75) - stats.Quantile(s.parentDev, 0.25)
	apart := math.Abs(ratio-1) > spread
	switch {
	case n == 0 || !apart:
		v = "same"
	case 10*slower >= 9*n && ratio > 1+minEffect:
		v = "worse"
	case 10*faster >= 9*n && ratio < 1-minEffect:
		v = "better"
	default:
		v = "same"
	}
	return v, ratio, faster, slower
}

// report prints one line per benchmark and returns the benchmarks that
// read worse. A benchmark only one side has reads new or gone.
func report(w io.Writer, got samples) (worse []string) {
	keys := make([]string, 0, len(got))
	for k := range got {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	fmt.Fprintf(w, "%-20s %-36s %13s %13s %8s %6s %6s  %s\n",
		"package", "benchmark", "parent ns/op", "change ns/op", "change", "faster", "slower", "verdict")
	for _, k := range keys {
		pkg, name, _ := strings.Cut(k, " ")
		s := got[k]
		switch {
		case len(s.ns[0]) == 0:
			fmt.Fprintf(w, "%-20s %-36s %13s %13.4g %8s %6s %6s  new\n", pkg, name, "-", stats.Median(s.ns[1]), "", "", "")
		case len(s.ns[1]) == 0:
			fmt.Fprintf(w, "%-20s %-36s %13.4g %13s %8s %6s %6s  gone\n", pkg, name, stats.Median(s.ns[0]), "-", "", "", "")
		default:
			v, ratio, faster, slower := verdict(s)
			fmt.Fprintf(w, "%-20s %-36s %13.4g %13.4g %+7.1f%% %6d %6d  %s\n",
				pkg, name, stats.Median(s.ns[0]), stats.Median(s.ns[1]), 100*(ratio-1), faster, slower, v)
			if v == "worse" {
				worse = append(worse, k)
			}
		}
	}
	return worse
}

// runWorkloads alternates g.rounds runs per side of each bench workload,
// then prints bench's -compare table and returns its worse rows.
func (g gate) runWorkloads(ctx context.Context, w io.Writer, trees [2]string, tmp string, workloads []string) ([]string, error) {
	records := [2]string{filepath.Join(tmp, "parent.jsonl"), filepath.Join(tmp, "change.jsonl")}
	start := time.Now()
	for r := 0; r < g.rounds; r++ {
		for _, wl := range workloads {
			for _, side := range order(r) {
				if _, err := output(ctx, trees[side], "bash", "bench/run.sh", "--workload", wl, "--out", records[side]); err != nil {
					return nil, fmt.Errorf("%s's %s run: %w", sides[side], wl, err)
				}
			}
		}
		fmt.Fprintf(w, "benchstatus: workload round %d/%d done after %s\n", r+1, g.rounds, time.Since(start).Round(time.Second))
	}
	table, err := output(ctx, trees[1], "bash", "bench/run.sh", "-compare", records[0], records[1])
	if err != nil {
		return nil, err
	}
	fmt.Fprintln(w, table)
	return worseRows(table), nil
}

// worseRows returns "<workload> <metric>" for every row of bench's
// -compare table whose verdict, its last column, is worse.
func worseRows(table string) []string {
	var rows []string
	for _, line := range strings.Split(table, "\n") {
		f := strings.Fields(line)
		if len(f) > 2 && f[len(f)-1] == "worse" {
			rows = append(rows, f[0]+" "+f[1])
		}
	}
	return rows
}
