package experiments

import (
	"encoding/json"
	"strings"
	"testing"

	"vasched/internal/adapt"
	"vasched/internal/cluster"
)

// The exact verification mode must reproduce the classic full-population
// experiment bit-for-bit: its mean is Fig4's MeanPowerRatio with zero
// tolerance, because both paths evaluate the identical kernel blobs over
// the identical die batch and reduce in index order.
func TestExtAdaptExactMatchesFig4(t *testing.T) {
	e, err := QuickEnv()
	if err != nil {
		t.Fatal(err)
	}
	fig4, err := Fig4(e)
	if err != nil {
		t.Fatal(err)
	}
	ea, err := QuickEnv()
	if err != nil {
		t.Fatal(err)
	}
	ea.Adaptive = &AdaptiveConfig{Config: adapt.Config{Exact: true}}
	res, err := ExtAdapt(ea)
	if err != nil {
		t.Fatal(err)
	}
	if res.Sampling.Mean != fig4.MeanPowerRatio() {
		t.Fatalf("exact-mode mean %v != fig4 mean %v", res.Sampling.Mean, fig4.MeanPowerRatio())
	}
	if res.Sampling.Evaluated != e.NumDies || !res.Sampling.Exhausted {
		t.Fatalf("exact mode did not evaluate the full population: %+v", res.Sampling)
	}
	if !strings.Contains(res.Render(), "exact verification") {
		t.Fatalf("exact render missing mode line:\n%s", res.Render())
	}

	// The freq-ratio metric verifies the same way against MeanFreqRatio.
	ef, err := QuickEnv()
	if err != nil {
		t.Fatal(err)
	}
	ef.Adaptive = &AdaptiveConfig{Metric: "freq-ratio", Config: adapt.Config{Exact: true}}
	fres, err := ExtAdapt(ef)
	if err != nil {
		t.Fatal(err)
	}
	if fres.Sampling.Mean != fig4.MeanFreqRatio() {
		t.Fatalf("freq-ratio exact mean %v != fig4 %v", fres.Sampling.Mean, fig4.MeanFreqRatio())
	}
}

// An adaptive run's estimate must agree with the exact population mean to
// within its own reported half-width (the statistical guarantee), and the
// adaptive machinery must not touch any other experiment: a second Env
// without Adaptive set still renders the stock golden content.
func TestExtAdaptEstimateCoversExactMean(t *testing.T) {
	e, err := QuickEnv()
	if err != nil {
		t.Fatal(err)
	}
	fig4, err := Fig4(e)
	if err != nil {
		t.Fatal(err)
	}
	ea, err := QuickEnv()
	if err != nil {
		t.Fatal(err)
	}
	res, err := ExtAdapt(ea) // stock adaptive defaults
	if err != nil {
		t.Fatal(err)
	}
	s := res.Sampling
	if !s.Converged && !s.Exhausted {
		t.Fatalf("quick run neither converged nor exhausted: %+v", s)
	}
	exact := fig4.MeanPowerRatio()
	diff := s.Mean - exact
	if diff < 0 {
		diff = -diff
	}
	// Exhausted runs hit the exact stratified mean; converged ones must
	// cover the truth within the CI (plus float slack).
	if diff > s.HalfWidth+1e-9 {
		t.Fatalf("estimate %v ± %v does not cover exact mean %v", s.Mean, s.HalfWidth, exact)
	}
}

// TestExtAdaptUnknownMetric pins the error path.
func TestExtAdaptUnknownMetric(t *testing.T) {
	e, err := QuickEnv()
	if err != nil {
		t.Fatal(err)
	}
	e.Adaptive = &AdaptiveConfig{Metric: "nope"}
	if _, err := ExtAdapt(e); err == nil || !strings.Contains(err.Error(), "unknown adaptive metric") {
		t.Fatalf("unknown metric error = %v", err)
	}
}

// The adaptive rounds dispatch as cluster shards (each round's stratum
// plan travels as the index list of one cluster Run); the run must render
// byte-identically through any worker count, under faults, and when
// degraded back to local.
func TestExtAdaptClusterIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("cluster determinism proof runs full kernels")
	}
	run := func(c *cluster.Client) string {
		e, err := QuickEnv()
		if err != nil {
			t.Fatal(err)
		}
		if c != nil {
			e.Cluster = c
		}
		r, err := ExtAdapt(e)
		if err != nil {
			t.Fatal(err)
		}
		return r.Render()
	}
	local := run(nil)
	for _, tc := range []struct {
		workers   int
		shardSize int
	}{
		{1, 3}, {3, 2},
	} {
		if got := run(startCluster(t, tc.workers, cluster.Options{ShardSize: tc.shardSize})); got != local {
			t.Fatalf("%d workers / shard %d diverges:\n%s\nvs\n%s", tc.workers, tc.shardSize, got, local)
		}
	}
	// Fault injection on the first dispatches: retries must recover the
	// same bytes.
	plan := cluster.NewFaultPlan().
		On(0, cluster.Fault{Action: cluster.FaultError}).
		On(2, cluster.Fault{Action: cluster.FaultCorrupt})
	if got := run(startCluster(t, 3, cluster.Options{ShardSize: 2, Concurrency: 1, Fault: plan})); got != local {
		t.Fatal("faulted adaptive run diverges from local")
	}
}

// The severity proxy must order dies deterministically and vary across
// the batch (a constant proxy would collapse stratification to chance).
func TestDieSeverityProxy(t *testing.T) {
	e, err := QuickEnv()
	if err != nil {
		t.Fatal(err)
	}
	sev := make([]float64, e.NumDies)
	err = e.ForDiesKernel(kernelDieSeverity, e.NumDies, func(die int, blob []byte) error {
		var b dieSeverityBlob
		if err := json.Unmarshal(blob, &b); err != nil {
			return err
		}
		sev[die] = b.Sev
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	distinct := map[float64]bool{}
	for _, s := range sev {
		if s <= 0 {
			t.Fatalf("severity %v not positive: %v", s, sev)
		}
		distinct[s] = true
	}
	if len(distinct) < e.NumDies/2 {
		t.Fatalf("severity proxy nearly constant across the batch: %v", sev)
	}
}
