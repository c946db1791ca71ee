package experiments

import (
	"net/http/httptest"
	"strings"
	"testing"

	"vasched/internal/cluster"
	"vasched/internal/metrics"
)

// startCluster boots n worker stand-ins — real Executors serving the real
// kernels over the real wire protocol on loopback — and returns a client
// over them. This is the full production stack minus the network.
func startCluster(t *testing.T, n int, opt cluster.Options) *cluster.Client {
	t.Helper()
	urls := make([]string, n)
	for i := range urls {
		ts := httptest.NewServer(cluster.Handler(NewExecutor(2), metrics.NewRegistry()))
		t.Cleanup(ts.Close)
		urls[i] = ts.URL
	}
	return cluster.NewClient(urls, opt)
}

// renderExtCluster runs ext-cluster on a fresh quick Env wired to the
// given cluster (nil = pure local) and returns the rendered report.
func renderExtCluster(t *testing.T, c *cluster.Client) string {
	t.Helper()
	e, err := QuickEnv()
	if err != nil {
		t.Fatal(err)
	}
	if c != nil {
		e.Cluster = c
	}
	r, err := ExtCluster(e)
	if err != nil {
		t.Fatal(err)
	}
	return r.Render()
}

// TestClusterDeterminismAcrossWorkerCounts is the acceptance proof for
// the sharded cluster: ext-cluster rendered locally and through 1, 2,
// and 4 workers (at different shard sizes) is byte-identical.
func TestClusterDeterminismAcrossWorkerCounts(t *testing.T) {
	if testing.Short() {
		t.Skip("cluster determinism proof runs full kernels")
	}
	local := renderExtCluster(t, nil)
	for _, tc := range []struct {
		workers   int
		shardSize int
	}{
		{1, 5}, {2, 5}, {4, 5}, {2, 1}, {4, 64},
	} {
		c := startCluster(t, tc.workers, cluster.Options{ShardSize: tc.shardSize})
		got := renderExtCluster(t, c)
		if got != local {
			t.Fatalf("%d workers / shard size %d diverges from local:\n%s\nvs\n%s",
				tc.workers, tc.shardSize, got, local)
		}
	}
}

// TestClusterDeterminismUnderFaults kills, corrupts, and delays shards
// mid-run: retries and hedging must recover byte-identical output.
func TestClusterDeterminismUnderFaults(t *testing.T) {
	if testing.Short() {
		t.Skip("cluster determinism proof runs full kernels")
	}
	local := renderExtCluster(t, nil)
	plan := cluster.NewFaultPlan().
		On(0, cluster.Fault{Action: cluster.FaultError}).
		On(2, cluster.Fault{Action: cluster.FaultDrop}).
		On(4, cluster.Fault{Action: cluster.FaultCorrupt})
	// Serial dispatch pins which shard each ordinal lands on; four workers
	// guarantee every retry finds a worker outside backoff, so recovery
	// happens by re-dispatch rather than by degrading to local.
	c := startCluster(t, 4, cluster.Options{ShardSize: 4, Concurrency: 1, Fault: plan})
	got := renderExtCluster(t, c)
	if got != local {
		t.Fatalf("faulted run diverges from local:\n%s\nvs\n%s", got, local)
	}
	if v := c.Metrics().Counter(`cluster_shard_retries_total`).Value(); v < 3 {
		t.Fatalf("retries = %d, want >= 3 (one per injected fault)", v)
	}
	if v := c.Metrics().Counter(`cluster_faults_injected_total{action="corrupt"}`).Value(); v != 1 {
		t.Fatalf("injected corrupt faults = %d, want 1", v)
	}
}

// TestClusterDegradesToLocal points the client at a dead worker: the run
// must fall back to local execution and still render identically.
func TestClusterDegradesToLocal(t *testing.T) {
	if testing.Short() {
		t.Skip("cluster determinism proof runs full kernels")
	}
	dead := httptest.NewServer(nil)
	url := dead.URL
	dead.Close()
	c := cluster.NewClient([]string{url}, cluster.Options{Retries: 1})
	local := renderExtCluster(t, nil)
	got := renderExtCluster(t, c)
	if got != local {
		t.Fatalf("degraded run diverges from local:\n%s\nvs\n%s", got, local)
	}
	if v := c.Metrics().Counter(`cluster_runs_total{status="degraded"}`).Value(); v == 0 {
		t.Fatal("degraded run not counted")
	}
}

// TestClusterFig4Identical retrofits the proof onto a paper figure: fig4
// runs its die loop through the same kernel path, so a clustered fig4
// must match its committed golden byte for byte.
func TestClusterFig4Identical(t *testing.T) {
	if testing.Short() {
		t.Skip("cluster determinism proof runs full kernels")
	}
	e1, err := QuickEnv()
	if err != nil {
		t.Fatal(err)
	}
	r1, err := Fig4(e1)
	if err != nil {
		t.Fatal(err)
	}
	e2, err := QuickEnv()
	if err != nil {
		t.Fatal(err)
	}
	e2.Cluster = startCluster(t, 3, cluster.Options{ShardSize: 2})
	r2, err := Fig4(e2)
	if err != nil {
		t.Fatal(err)
	}
	if r1.Render() != r2.Render() {
		t.Fatal("clustered fig4 diverges from local fig4")
	}
}

// TestExecutorRejectsUnknown pins the worker-side error paths: unknown
// scales and kernels must fail loudly, not fall back to a default Env.
func TestExecutorRejectsUnknown(t *testing.T) {
	x := NewExecutor(1)
	_, err := x.ExecuteShard(t.Context(), &cluster.ShardRequest{Kernel: kernelDieRatios, Scale: "huge", Seed: 1, BatchSeed: 1})
	if err == nil || !strings.Contains(err.Error(), "unknown scale") {
		t.Fatalf("unknown scale error = %v", err)
	}
	_, err = x.ExecuteShard(t.Context(), &cluster.ShardRequest{Kernel: "nope", Scale: "quick", Seed: 1, BatchSeed: 1})
	if err == nil || !strings.Contains(err.Error(), "unknown kernel") {
		t.Fatalf("unknown kernel error = %v", err)
	}
}

// TestExecutorEnvCacheBounded: a worker keeps one Env per stock scale.
// Shards naming ten different seed pairs — accepted or refused for a
// config-hash mismatch — leave at most one quick Env behind, and a repeat
// of the last seeds reuses it.
func TestExecutorEnvCacheBounded(t *testing.T) {
	x := NewExecutor(1)
	for i := 0; i < 10; i++ {
		req := &cluster.ShardRequest{Kernel: kernelDieRatios, Scale: "quick", Seed: int64(100 + i), BatchSeed: int64(200 + i)}
		refused := i%2 == 1
		if refused {
			req.ConfigHash = 0xdeadbeef
		}
		_, err := x.ExecuteShard(t.Context(), req)
		if refused && (err == nil || !strings.Contains(err.Error(), "config hash")) {
			t.Fatalf("request %d: mismatched hash error = %v", i, err)
		}
		if !refused && err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
		x.mu.Lock()
		n := len(x.envs)
		x.mu.Unlock()
		if n > 1 {
			t.Fatalf("after %d requests the worker caches %d Envs, want at most 1", i+1, n)
		}
	}
	last := x.envs["quick"]
	if last == nil || last.Seed != 109 || last.BatchSeed != 209 {
		t.Fatalf("cached Env is not the last request's: %+v", last)
	}
	e, err := x.env("quick", 109, 209)
	if err != nil {
		t.Fatal(err)
	}
	if e != last {
		t.Fatal("repeat of the cached seeds rebuilt the Env")
	}
}
