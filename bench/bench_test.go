package main

import (
	"context"
	"fmt"
	"os/exec"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"vasched/internal/trace"
)

// span builds a completed span with times in milliseconds.
func span(id, parent uint64, name string, start, dur int) trace.Span {
	return trace.Span{ID: id, Parent: parent, Name: name,
		Start: time.Duration(start) * time.Millisecond, Dur: time.Duration(dur) * time.Millisecond}
}

func TestSelfTimes(t *testing.T) {
	spans := []trace.Span{
		span(1, 0, "root", 0, 100),
		// Nested: a child with a grandchild; only direct children count
		// against the root.
		span(2, 1, "child", 10, 20),
		span(3, 2, "grandchild", 12, 5),
		// Concurrent siblings overlapping each other by 10 ms.
		span(4, 1, "sibling", 40, 20),
		span(5, 1, "sibling", 50, 20),
		// A child running past its parent's end is clipped.
		span(6, 1, "late", 90, 30),
		// A zero-length event covers nothing.
		span(7, 1, "event", 95, 0),
	}
	got := selfTimes(spans)
	want := []int{100 - 20 - 30 - 10, 20 - 5, 5, 20, 20, 30, 0}
	for i, w := range want {
		if got[i] != time.Duration(w)*time.Millisecond {
			t.Errorf("span %d (%s): self %v, want %d ms", spans[i].ID, spans[i].Name, got[i], w)
		}
	}
}

func TestPercentile(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	for _, c := range []struct{ p, want float64 }{{0.5, 51}, {0.9, 91}, {0.99, 100}, {1, 100}} {
		if got := percentile(xs, c.p); got != c.want {
			t.Errorf("p%v of 1..100 = %v, want the %vth value", c.p*100, got, c.want)
		}
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) and ([3, 1], n=4).
	for _, c := range []struct {
		xs   []float64
		want [3]float64
	}{
		{[]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{3, 1}, [3]float64{0.5, 2, 3.5}},
	} {
		if got := quartiles(c.xs); got != c.want {
			t.Errorf("quartiles(%v) = %v, want %v", c.xs, got, c.want)
		}
	}
}

func TestVerdict(t *testing.T) {
	lower := metricDef{Name: "unit_ms_p50", Better: "lower", Bound: 0.1}
	parent := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	shift := func(d float64) []float64 {
		out := make([]float64, len(parent))
		for i, v := range parent {
			out[i] = v + d
		}
		return out
	}
	noisy := []float64{60, 140, 80, 120, 100, 70, 130, 90, 110, 100}
	for _, c := range []struct {
		name      string
		a, b      []float64
		m         metricDef
		wantTrend string
	}{
		{"identical", parent, parent, lower, "same"},
		{"faster beyond the spread", parent, shift(-10), lower, "better"},
		{"slower within the bound", parent, shift(5), lower, "same"},
		{"slower beyond the bound", parent, shift(20), lower, "worse"},
		{"higher is better", parent, shift(20), metricDef{Better: "higher", Bound: 0.1}, "better"},
		{"spread wider than the bound", noisy, shift(5), lower, "unresolved"},
		{"too few pairs to claim a gain", parent[:3], shift(-10)[:3], lower, "same"},
	} {
		if got := verdict(c.a, c.b, c.m); got != c.wantTrend {
			t.Errorf("%s: %s, want %s", c.name, got, c.wantTrend)
		}
	}
}

func TestLayerAggSplitsManagers(t *testing.T) {
	a := newLayerAgg()
	unit := span(1, 0, unitSpan, 0, 100)
	lin := span(2, 1, "pm.decide", 10, 10)
	lin.Attrs = []trace.Attr{trace.String("manager", "LinOpt"), trace.String("warm", "hit")}
	sann := span(3, 1, "pm.decide", 30, 40)
	sann.Attrs = []trace.Attr{trace.String("manager", "SAnn")}
	a.add([]trace.Span{unit, lin, sann}, 0)
	m := map[string]float64{}
	a.layerMetrics(m)
	for k, want := range map[string]float64{
		"pm.decide.linopt.calls_per_unit": 1,
		"pm.decide.sann.us_mean":          40000,
		"pm.decide.share":                 0.5,
		"pm.linopt.warm_hit_frac":         1,
		"chip.evaluate.calls_per_unit":    0,
	} {
		if m[k] != want {
			t.Errorf("%s = %v, want %v", k, m[k], want)
		}
	}
}

func TestMeasureStopsAtRoundBoundaries(t *testing.T) {
	spec := simSpec{round: 3, unit: func(context.Context, *simEnv, int64, int) (checker, error) {
		time.Sleep(time.Millisecond)
		return func(*hasher) string { return "" }, nil
	}}
	outs, _, err := measure(context.Background(), nil, spec, 1, time.Now().Add(20*time.Millisecond), nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(outs) < spec.round || len(outs)%spec.round != 0 {
		t.Fatalf("measured %d units, want whole rounds of %d", len(outs), spec.round)
	}
	for i, o := range outs {
		if o.digest == nil {
			t.Fatalf("unit %d of the measured prefix did not run", i)
		}
	}
}

func TestPlanJobsExactShares(t *testing.T) {
	const n = 1000
	a, b := planJobs(1, n), planJobs(2, n)
	count := func(plan []plannedJob) map[string]int {
		c := map[string]int{}
		for _, j := range plan {
			c[fmt.Sprintf("exp:%s/%v", j.experiment(), svcMix[j.mix].adaptive)]++
			c["lane:"+j.lane]++
			c["tenant:"+j.tenant]++
			if j.cancel {
				c["cancel"]++
			}
		}
		return c
	}
	ca, cb := count(a), count(b)
	if !reflect.DeepEqual(ca, cb) {
		t.Errorf("seeds 1 and 2 offer different work:\n%v\n%v", ca, cb)
	}
	for k, want := range map[string]int{
		"exp:table5/false": 580, "exp:fig4/false": 30, "exp:ext-adapt/true": 20,
		"lane:control": 100, "cancel": 30, "tenant:tenant-2": 333,
	} {
		if ca[k] != want {
			t.Errorf("%s: %d jobs, want %d", k, ca[k], want)
		}
	}
	if reflect.DeepEqual(a, b) {
		t.Error("seeds 1 and 2 give the same order")
	}
}

func TestWorkloadsMatchDefinition(t *testing.T) {
	def, err := readDef("..")
	if err != nil {
		t.Fatal(err)
	}
	if len(def.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the program runs %d", len(def.Workloads), len(workloads))
	}
	for i, w := range def.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d: BENCHMARK.json %q, program %q", i, w.Name, workloads[i].name)
		}
	}
}

// TestSmoke runs every workload at a small size: the simulator workloads'
// check units of seed 1 must reproduce their recorded digests, traced and
// untraced, and a short service load must finish correctly. Together the
// runs must produce every metric BENCHMARK.json defines.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("smoke run spawns vaschedd")
	}
	ctx := context.Background()
	for _, c := range []struct {
		name string
		spec simSpec
	}{{"die-sweep", dieSweep}, {"timeline-dvfs", timelineDVFS}, {"dynamic-horizon", dynamicHorizon}} {
		env, err := newSimEnv(1, c.spec.dies)
		if err != nil {
			t.Fatal(err)
		}
		d, ps, err := runChecks(ctx, env, c.spec, 1)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if want, _ := expectedDigest(c.name, 1); d != want || len(ps) > 0 {
			t.Errorf("%s: digest %s, want %s; problems %v", c.name, d, want, ps)
		}
		agg := newLayerAgg()
		out, err := doUnit(ctx, env, c.spec, 1, c.spec.check[0], agg)
		if err != nil || out.problem != "" || agg.units != 1 || agg.dropped != 0 {
			t.Errorf("%s traced unit: err %v, problem %q, %d units, %d spans dropped", c.name, err, out.problem, agg.units, agg.dropped)
		}
	}

	// A zero-second run measures the first round only.
	sim, err := runSim(ctx, options{seed: 1}, "die-sweep", dieSweep, true)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	bin := filepath.Join(dir, "vaschedd")
	if out, err := exec.Command("go", "build", "-o", bin, "vasched/cmd/vaschedd").CombinedOutput(); err != nil {
		t.Fatalf("build vaschedd: %v\n%s", err, out)
	}
	o := options{seed: 1, seconds: 0.5, root: "..", workDir: dir, vaschedd: bin}
	svc, err := runService(ctx, o, "service-light", capacityJobsPerS)
	if err != nil {
		t.Fatal(err)
	}
	if svc.Attempted != 11 {
		t.Errorf("service attempted %d jobs, want 11", svc.Attempted)
	}

	def, err := readDef("..")
	if err != nil {
		t.Fatal(err)
	}
	// The parent process adds the tracing overhead and the host speed.
	layers := map[string]bool{"trace.overhead_pct": true, "host.calib_ms": true}
	for _, res := range []*result{sim, svc} {
		if res.Failed != 0 {
			t.Errorf("%s: %d failures: %v", res.Workload, res.Failed, res.Problems)
		}
		for _, m := range def.EndToEnd {
			if v := res.Metrics[m.Name]; !(v > 0) {
				t.Errorf("%s: %s = %v, want a positive value", res.Workload, m.Name, v)
			}
		}
		for k := range res.Layers {
			layers[k] = true
		}
	}
	for _, m := range def.PerLayer {
		if !layers[m.Name] {
			t.Errorf("per-layer metric %s is computed nowhere", m.Name)
		}
	}
}
