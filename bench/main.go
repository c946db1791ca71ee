// Command bench is the repository's benchmark. It runs one seeded workload
// (or all of them) against the simulator and the vaschedd service, checks
// that every output is correct, and prints each metric BENCHMARK.json
// defines, by name and unit, ending with one JSON line:
//
//	bash bench/run.sh --workload die-sweep --seed 1 --seconds 20 --trace 0
//	bash bench/run.sh --workload die-sweep --trace 1     # per-layer metrics
//	bash bench/run.sh -out runs.jsonl                    # every workload, recorded
//	bash bench/run.sh -compare parent.jsonl change.jsonl
//
// Each workload runs in a child process of its own, so memory and caches
// start cold. See README.md for the workloads and the metrics.
package main

import (
	"context"
	_ "embed"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"syscall"
	"time"

	"vasched/internal/stats"
)

// benchWorkload is one benchmark workload. Its name matches
// BENCHMARK.json.
type benchWorkload struct {
	name string
	// inProcess marks workloads whose layers the benchmark traces inside
	// its own process; a traced run of them is paired with an untraced
	// one to measure the tracing overhead.
	inProcess bool
	run       func(ctx context.Context, o options, traced bool) (*result, error)
}

var workloads = []benchWorkload{
	{"die-sweep", true, func(ctx context.Context, o options, traced bool) (*result, error) {
		return runSim(ctx, o, "die-sweep", dieSweep, traced)
	}},
	{"timeline-dvfs", true, func(ctx context.Context, o options, traced bool) (*result, error) {
		return runSim(ctx, o, "timeline-dvfs", timelineDVFS, traced)
	}},
	{"dynamic-horizon", true, func(ctx context.Context, o options, traced bool) (*result, error) {
		return runSim(ctx, o, "dynamic-horizon", dynamicHorizon, traced)
	}},
	{"service-light", false, func(ctx context.Context, o options, _ bool) (*result, error) {
		return runService(ctx, o, "service-light", capacityJobsPerS/2)
	}},
}

// options are a run's settings.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	// setupOnly stops a child process after the timed set-up.
	setupOnly bool
	// root is the repository root, workDir the directory for the
	// service's data and vaschedd the service binary.
	root, workDir, vaschedd string
	// out, when set, receives one JSON record per workload run.
	out string
}

func (o options) duration() time.Duration { return time.Duration(o.seconds * float64(time.Second)) }

// runTimeout bounds one invocation, children and services included.
const runTimeout = 170 * time.Second

func main() {
	var (
		o       options
		trace   int
		child   bool
		compare string
	)
	flag.StringVar(&o.workload, "workload", "", "workload to run (empty: all)")
	flag.Int64Var(&o.seed, "seed", 1, "workload seed")
	flag.Float64Var(&o.seconds, "seconds", 20, "measured seconds per run")
	flag.IntVar(&trace, "trace", 0, "1 prints the per-layer metrics of a traced run")
	flag.StringVar(&o.root, "root", ".", "repository root")
	flag.StringVar(&o.workDir, "workdir", ".bench_build", "directory for service data")
	flag.StringVar(&o.vaschedd, "vaschedd", ".bench_build/vaschedd", "vaschedd binary")
	flag.StringVar(&o.out, "out", "", "append one JSON record per run to this file")
	flag.StringVar(&compare, "compare", "", "compare the records of this file with those of the file given as argument")
	flag.BoolVar(&child, "child", false, "run one workload in this process and print its raw result (internal)")
	flag.BoolVar(&o.setupOnly, "setup-only", false, "with -child, stop after the timed set-up (internal)")
	flag.Parse()
	o.trace = trace == 1

	def, err := readDef(o.root)
	if err != nil {
		fail(err)
	}
	switch {
	case compare != "":
		if flag.NArg() != 1 {
			fail(errors.New("-compare needs two record files"))
		}
		if err := runCompare(os.Stdout, def, compare, flag.Arg(0)); err != nil {
			fail(err)
		}
	case child:
		ctx, cancel := context.WithTimeout(context.Background(), runTimeout)
		defer cancel()
		w, err := lookup(o.workload)
		if err != nil {
			fail(err)
		}
		res, err := w.run(ctx, o, o.trace)
		if err != nil {
			fail(fmt.Errorf("%s: %w", o.workload, err))
		}
		if err := json.NewEncoder(os.Stdout).Encode(res); err != nil {
			fail(err)
		}
	default:
		ws := workloads
		if o.workload != "" {
			w, err := lookup(o.workload)
			if err != nil {
				fail(err)
			}
			ws = []benchWorkload{w}
		}
		allCorrect := true
		for _, w := range ws {
			correct, err := runParent(o, def, w)
			if err != nil {
				fail(fmt.Errorf("%s: %w", w.name, err))
			}
			allCorrect = allCorrect && correct
		}
		if !allCorrect {
			os.Exit(1)
		}
	}
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "bench:", err)
	os.Exit(2)
}

func lookup(name string) (benchWorkload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return benchWorkload{}, fmt.Errorf("unknown workload %q", name)
}

// benchDef is the part of BENCHMARK.json the program reads: the metrics,
// their units, directions and regression bounds.
type benchDef struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func readDef(root string) (*benchDef, error) {
	b, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	var d benchDef
	if err := json.Unmarshal(b, &d); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return &d, nil
}

// result is a workload's raw outcome, as a child process reports it.
type result struct {
	Workload  string `json:"workload"`
	Attempted int    `json:"attempted"`
	Failed    int    `json:"failed"`
	// Problems describes the first failures.
	Problems []string `json:"problems,omitempty"`
	// Digest hashes the outputs of the run's check units, and RefDigest
	// those of seed 1 when the run's seed has no recorded digest.
	Digest    string             `json:"digest,omitempty"`
	RefDigest string             `json:"ref_digest,omitempty"`
	Metrics   map[string]float64 `json:"metrics"`
	Layers    map[string]float64 `json:"layers,omitempty"`
}

// maxProblems bounds how many failure descriptions a result keeps.
const maxProblems = 10

// addProblems counts failures and keeps the first descriptions.
func (r *result) addProblems(ps ...string) {
	r.Failed += len(ps)
	for _, p := range ps {
		if len(r.Problems) < maxProblems {
			r.Problems = append(r.Problems, p)
		}
	}
}

//go:embed digests.json
var digestsJSON []byte

// expectedDigest returns the recorded digest of a workload's check units
// for a seed.
func expectedDigest(workload string, seed int64) (string, bool) {
	var d map[string]map[string]string
	if err := json.Unmarshal(digestsJSON, &d); err != nil {
		panic(fmt.Sprintf("digests.json: %v", err)) // embedded at build time
	}
	s, ok := d[workload][strconv.FormatInt(seed, 10)]
	return s, ok
}

// checkDigest counts a digest that differs from the one recorded for the
// seed as a failure.
func (r *result) checkDigest(seed int64, got string) {
	want, ok := expectedDigest(r.Workload, seed)
	switch {
	case !ok:
		r.addProblems(fmt.Sprintf("no recorded digest for seed %d", seed))
	case got != want:
		r.addProblems(fmt.Sprintf("digest %s for seed %d differs from the recorded %s", got, seed, want))
	}
}

// An untraced run times several set-ups, each in a fresh process so that
// every one builds the process-wide state (such as the variation model's
// spectral decomposition) from scratch; setup_s is the median. A simulator
// set-up takes 0.2-0.5 s and moves by ±15% from one process to the next;
// a service set-up takes about 1.1 s and varies less.
const (
	simSetupReps = 9
	svcSetupReps = 3
)

// setupResult is the result of a child that only timed its set-up.
func setupResult(workload string, seconds float64) *result {
	return &result{Workload: workload, Attempted: 1, Metrics: map[string]float64{"setup_s": seconds}}
}

// runChild runs one workload in a fresh process with o's settings.
func runChild(ctx context.Context, o options) (*result, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	tr := "0"
	if o.trace {
		tr = "1"
	}
	cmd := exec.CommandContext(ctx, exe, "-child", "-workload", o.workload,
		"-seed", strconv.FormatInt(o.seed, 10), "-seconds", strconv.FormatFloat(o.seconds, 'g', -1, 64),
		"-trace", tr, "-setup-only="+strconv.FormatBool(o.setupOnly),
		"-root", o.root, "-workdir", o.workDir, "-vaschedd", o.vaschedd)
	cmd.Stderr = os.Stderr
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("child process: %w", err)
	}
	var r result
	if err := json.Unmarshal(out, &r); err != nil {
		return nil, fmt.Errorf("child result: %w", err)
	}
	return &r, nil
}

// record is what -out stores for each run and -compare reads.
type record struct {
	Workload string             `json:"workload"`
	Seed     int64              `json:"seed"`
	Traced   bool               `json:"traced"`
	Noisy    bool               `json:"noisy"`
	CalibMS  [2]float64         `json:"calib_ms"`
	Correct  bool               `json:"correct"`
	Metrics  map[string]float64 `json:"metrics"`
}

// noisyDrift is the change of the calibration loop's time, between before
// and after a workload, beyond which the run is flagged noisy.
const noisyDrift = 0.05

// runParent runs a workload in child processes, between two timings of
// the host calibration loop, and prints its metrics. It reports whether
// every output was correct.
func runParent(o options, def *benchDef, w benchWorkload) (bool, error) {
	ctx, cancel := context.WithTimeout(context.Background(), runTimeout)
	defer cancel()
	calib0 := calibrate()
	o.workload = w.name
	var res *result
	var err error
	switch {
	case o.trace && w.inProcess:
		// Half the time untraced, half traced: the difference in
		// throughput is the tracing overhead.
		half := o
		half.seconds /= 2
		half.trace = false
		var plain *result
		if plain, err = runChild(ctx, half); err != nil {
			return false, err
		}
		half.trace = true
		if res, err = runChild(ctx, half); err != nil {
			return false, err
		}
		res.Layers["trace.overhead_pct"] = 100 * (plain.Metrics["work_per_s"]/res.Metrics["work_per_s"] - 1)
		res.Attempted += plain.Attempted
		res.Failed += plain.Failed
		res.Problems = append(res.Problems, plain.Problems...)
	case o.trace:
		if res, err = runChild(ctx, o); err != nil {
			return false, err
		}
	default:
		setup := o
		setup.setupOnly = true
		reps := svcSetupReps
		if w.inProcess {
			reps = simSetupReps
		}
		var setups []float64
		for r := 1; r < reps; r++ {
			s, err := runChild(ctx, setup)
			if err != nil {
				return false, err
			}
			setups = append(setups, s.Metrics["setup_s"])
		}
		if res, err = runChild(ctx, o); err != nil {
			return false, err
		}
		res.Metrics["setup_s"] = stats.Median(append(setups, res.Metrics["setup_s"]))
	}
	calib1 := calibrate()
	noisy := math.Abs(calib1/calib0-1) > noisyDrift

	defs, values := def.EndToEnd, res.Metrics
	mode := "untraced"
	if o.trace {
		defs, values, mode = def.PerLayer, res.Layers, "traced"
		values["host.calib_ms"] = calib0
	}
	fmt.Printf("== %s, seed %d, %s, %g s\n", w.name, o.seed, mode, o.seconds)
	type jsonMetric struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := map[string]jsonMetric{}
	for _, m := range defs {
		v, ok := values[m.Name]
		if !ok && !o.trace {
			return false, fmt.Errorf("no value for metric %s", m.Name)
		}
		fmt.Printf("%-32s %14.6g %s\n", m.Name, v, m.Unit)
		out[m.Name] = jsonMetric{v, m.Unit}
	}
	note := ""
	if noisy {
		note = ", noisy: rerun"
	}
	fmt.Printf("%-32s %.6g ms before, %.6g ms after%s\n", "host calibration", calib0, calib1, note)
	if res.Digest != "" {
		fmt.Printf("%-32s %s (seed %d)\n", "digest", res.Digest, o.seed)
	}
	if res.RefDigest != "" {
		fmt.Printf("%-32s %s (seed 1)\n", "digest", res.RefDigest)
	}
	for _, p := range res.Problems {
		fmt.Println("FAILED:", p)
	}
	correct := res.Failed == 0
	line, err := json.Marshal(struct {
		Correct   bool                  `json:"correct"`
		Attempted int                   `json:"attempted"`
		Failed    int                   `json:"failed"`
		Metrics   map[string]jsonMetric `json:"metrics"`
	}{correct, res.Attempted, res.Failed, out})
	if err != nil {
		return false, err
	}
	fmt.Println(string(line))

	if o.out != "" {
		rec := record{w.name, o.seed, o.trace, noisy, [2]float64{calib0, calib1}, correct, values}
		if err := appendRecord(o.out, rec); err != nil {
			return false, err
		}
	}
	return correct, nil
}

func appendRecord(path string, rec record) error {
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if err := json.NewEncoder(f).Encode(rec); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// calibSink keeps the calibration loop from being optimised away.
var calibSink uint64

// calibrate times a fixed CPU-bound loop in ms, the fastest of five so
// that a preempted repetition does not count. A host whose speed changed
// during a workload shows as a moved time.
func calibrate() float64 {
	times := make([]float64, 5)
	for k := range times {
		start := time.Now()
		x := uint64(1)
		for i := 0; i < 30_000_000; i++ {
			x = x*6364136223846793005 + 1442695040888963407
		}
		calibSink += x
		times[k] = ms(time.Since(start))
	}
	return stats.Min(times)
}

// readRecords reads the untraced records of a -out file.
func readRecords(path string) ([]record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var recs []record
	dec := json.NewDecoder(f)
	for {
		var r record
		if err := dec.Decode(&r); err == io.EOF {
			return recs, nil
		} else if err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		if !r.Traced {
			recs = append(recs, r)
		}
	}
}
