package cluster

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"vasched/internal/metrics"
)

// testExecutor returns blobs that are a pure function of (job, die) —
// the same determinism contract the real kernels satisfy — and counts
// how many dies it served.
type testExecutor struct {
	served atomic.Int64
}

func (x *testExecutor) ExecuteShard(_ context.Context, req *ShardRequest) (*ShardResponse, error) {
	resp := &ShardResponse{}
	for _, d := range req.Dies {
		resp.Blobs = append(resp.Blobs, testBlob(req, d))
		x.served.Add(1)
	}
	return resp, nil
}

func testBlob(req *ShardRequest, die int) []byte {
	return fmt.Appendf(nil, "%s/%s/%d/%d/die%d", req.Kernel, req.Scale, req.Seed, req.BatchSeed, die)
}

// newTestWorker boots one worker process stand-in.
func newTestWorker(t *testing.T) (*testExecutor, *httptest.Server) {
	t.Helper()
	ex := &testExecutor{}
	ts := httptest.NewServer(Handler(ex, metrics.NewRegistry()))
	t.Cleanup(ts.Close)
	return ex, ts
}

var testJob = Job{Kernel: "k", Scale: "quick", Seed: 2008, BatchSeed: 1}

// firstN returns the index list 0..n-1.
func firstN(n int) []int {
	indices := make([]int, n)
	for i := range indices {
		indices[i] = i
	}
	return indices
}

// checkBlobs asserts the reduction invariant: blob i is the kernel
// result for index i, whatever worker produced it.
func checkBlobs(t *testing.T, blobs [][]byte, n int) {
	t.Helper()
	if len(blobs) != n {
		t.Fatalf("got %d blobs, want %d", len(blobs), n)
	}
	req := &ShardRequest{Kernel: testJob.Kernel, Scale: testJob.Scale, Seed: testJob.Seed, BatchSeed: testJob.BatchSeed}
	for i, b := range blobs {
		if string(b) != string(testBlob(req, i)) {
			t.Fatalf("blob %d = %q, want %q", i, b, testBlob(req, i))
		}
	}
}

func TestRunShardsAcrossWorkers(t *testing.T) {
	ex1, w1 := newTestWorker(t)
	ex2, w2 := newTestWorker(t)
	c := NewClient([]string{w1.URL, w2.URL}, Options{ShardSize: 3})

	const n = 20
	blobs, err := c.Run(context.Background(), testJob, firstN(n))
	if err != nil {
		t.Fatal(err)
	}
	checkBlobs(t, blobs, n)
	if ex1.served.Load()+ex2.served.Load() != n {
		t.Fatalf("workers served %d+%d dies, want %d", ex1.served.Load(), ex2.served.Load(), n)
	}
	// Round-robin placement: with 7 shards and 2 workers both must see work.
	if ex1.served.Load() == 0 || ex2.served.Load() == 0 {
		t.Fatalf("dispatch not spread: %d vs %d", ex1.served.Load(), ex2.served.Load())
	}
	if got := c.Metrics().Counter(`cluster_shards_total{status="ok"}`).Value(); got != 7 {
		t.Fatalf("ok shards = %d, want 7", got)
	}
	if got := c.Metrics().Counter(`cluster_runs_total{status="ok"}`).Value(); got != 1 {
		t.Fatalf("ok runs = %d", got)
	}
}

// TestShardSizeInvariance pins the determinism claim at the transport
// level: any shard size yields identical blobs.
func TestShardSizeInvariance(t *testing.T) {
	_, w1 := newTestWorker(t)
	_, w2 := newTestWorker(t)
	var ref [][]byte
	for _, size := range []int{1, 3, 8, 64} {
		c := NewClient([]string{w1.URL, w2.URL}, Options{ShardSize: size})
		blobs, err := c.Run(context.Background(), testJob, firstN(17))
		if err != nil {
			t.Fatal(err)
		}
		if ref == nil {
			ref = blobs
			continue
		}
		for i := range ref {
			if string(ref[i]) != string(blobs[i]) {
				t.Fatalf("shard size %d changed blob %d", size, i)
			}
		}
	}
}

// TestFaultRetryOnAnotherWorker injects failures of every flavour on the
// first dispatches; each shard must recover on a retry and the output
// must be untouched.
func TestFaultRetryOnAnotherWorker(t *testing.T) {
	for _, action := range []FaultAction{FaultError, FaultDrop, FaultCorrupt} {
		t.Run(action.String(), func(t *testing.T) {
			_, w1 := newTestWorker(t)
			_, w2 := newTestWorker(t)
			plan := NewFaultPlan().On(0, Fault{Action: action})
			c := NewClient([]string{w1.URL, w2.URL}, Options{
				ShardSize: 4, Concurrency: 1, Fault: plan,
			})
			blobs, err := c.Run(context.Background(), testJob, firstN(10))
			if err != nil {
				t.Fatal(err)
			}
			checkBlobs(t, blobs, 10)
			if got := c.Metrics().Counter(`cluster_shard_retries_total`).Value(); got < 1 {
				t.Fatalf("retries = %d, want >= 1", got)
			}
			if got := c.Metrics().Counter(fmt.Sprintf("cluster_faults_injected_total{action=%q}", action)).Value(); got != 1 {
				t.Fatalf("injected faults = %d, want 1", got)
			}
			if action == FaultCorrupt {
				if got := c.Metrics().Counter(`cluster_dispatch_total{status="corrupt"}`).Value(); got != 1 {
					t.Fatalf("corrupt dispatches = %d, want 1", got)
				}
			}
			if plan.Dispatches() < 2 {
				t.Fatalf("dispatches = %d, want the retry to have gone out", plan.Dispatches())
			}
		})
	}
}

// TestDropIsSyntheticTimeout pins that a dropped response surfaces as a
// deadline error without waiting out the real per-shard timeout.
func TestDropIsSyntheticTimeout(t *testing.T) {
	_, w1 := newTestWorker(t)
	plan := NewFaultPlan()
	for i := 0; i < 8; i++ {
		plan.On(i, Fault{Action: FaultDrop})
	}
	c := NewClient([]string{w1.URL}, Options{
		ShardSize: 8, Concurrency: 1, Timeout: time.Hour, Fault: plan,
	})
	start := time.Now()
	_, err := c.Run(context.Background(), testJob, firstN(4))
	if err == nil {
		t.Fatal("run succeeded with every dispatch dropped")
	}
	if !errors.Is(err, context.DeadlineExceeded) || !IsInjected(err) {
		t.Fatalf("drop error = %v, want injected deadline", err)
	}
	if elapsed := time.Since(start); elapsed > 10*time.Second {
		t.Fatalf("synthetic drop took %v — it must not wait out the real timeout", elapsed)
	}
}

func TestNoWorkersDegrades(t *testing.T) {
	c := NewClient(nil, Options{})
	_, err := c.Run(context.Background(), testJob, firstN(5))
	if !errors.Is(err, ErrNoWorkers) {
		t.Fatalf("err = %v, want ErrNoWorkers", err)
	}
	if got := c.Metrics().Counter(`cluster_runs_total{status="degraded"}`).Value(); got != 1 {
		t.Fatalf("degraded runs = %d", got)
	}
}

// TestAllWorkersFailing: every dispatch 500s, so the run must fail (the
// caller then degrades to local execution) after the shard exhausts its
// retries, and the failing workers must be backing off.
func TestAllWorkersFailing(t *testing.T) {
	bad := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "boom", http.StatusInternalServerError)
	}))
	t.Cleanup(bad.Close)
	c := NewClient([]string{bad.URL}, Options{ShardSize: 4, Concurrency: 1, Retries: 2})
	_, err := c.Run(context.Background(), testJob, firstN(4))
	if err == nil {
		t.Fatal("run succeeded against a 500ing worker")
	}
	if !strings.Contains(err.Error(), "status 500") {
		t.Fatalf("err = %v", err)
	}
	if got := c.Metrics().Counter(`cluster_shards_total{status="failed"}`).Value(); got != 1 {
		t.Fatalf("failed shards = %d", got)
	}
	if got := c.Metrics().Counter(`cluster_dispatch_total{status="bad_status"}`).Value(); got < 1 {
		t.Fatalf("bad_status dispatches = %d", got)
	}
	info := c.Workers()[0]
	if info.ConsecutiveFails < 1 || info.BackoffUntil.IsZero() {
		t.Fatalf("failing worker not backing off: %+v", info)
	}
}

// TestHedgedStraggler holds back one worker's response far longer than
// the hedge trigger; the hedge must go to the other worker and win, and
// the blobs must be the usual ones.
func TestHedgedStraggler(t *testing.T) {
	_, w1 := newTestWorker(t)
	_, w2 := newTestWorker(t)
	plan := NewFaultPlan().On(0, Fault{Action: FaultDelay, Delay: 5 * time.Second})
	c := NewClient([]string{w1.URL, w2.URL}, Options{
		ShardSize: 8, Concurrency: 1, HedgeAfter: 30 * time.Millisecond, Fault: plan,
	})
	start := time.Now()
	blobs, err := c.Run(context.Background(), testJob, firstN(8))
	if err != nil {
		t.Fatal(err)
	}
	checkBlobs(t, blobs, 8)
	if elapsed := time.Since(start); elapsed > 4*time.Second {
		t.Fatalf("hedge did not rescue the straggler (took %v)", elapsed)
	}
	if got := c.Metrics().Counter(`cluster_shards_hedged_total`).Value(); got != 1 {
		t.Fatalf("hedged shards = %d, want 1", got)
	}
}

// TestWorkerBackoffGrowth unit-tests the capped exponential backoff.
func TestWorkerBackoffGrowth(t *testing.T) {
	w := &worker{url: "x", healthy: true}
	base, max := 100*time.Millisecond, time.Second
	now := time.Now()
	want := []time.Duration{100 * time.Millisecond, 200 * time.Millisecond, 400 * time.Millisecond, 800 * time.Millisecond, time.Second, time.Second}
	for i, wd := range want {
		if d := w.fail(now, base, max); d != wd {
			t.Fatalf("failure %d backoff = %v, want %v", i+1, d, wd)
		}
	}
	if w.available(now) {
		t.Fatal("backing-off worker reported available")
	}
	if !w.available(now.Add(2 * time.Second)) {
		t.Fatal("worker still unavailable after backoff expired")
	}
	w.succeed()
	if !w.available(now) {
		t.Fatal("worker unavailable after success reset")
	}
}

func TestProbeAll(t *testing.T) {
	_, alive := newTestWorker(t)
	dead := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {}))
	dead.Close() // connection refused from now on
	c := NewClient([]string{alive.URL, dead.URL}, Options{ShardSize: 2, Concurrency: 1})

	if n := c.ProbeAll(context.Background()); n != 1 {
		t.Fatalf("healthy = %d, want 1", n)
	}
	var healthyURL string
	for _, wi := range c.Workers() {
		if wi.Healthy {
			healthyURL = wi.URL
		}
	}
	if healthyURL != alive.URL {
		t.Fatalf("healthy worker = %q, want %q", healthyURL, alive.URL)
	}
	// The dead worker is skipped entirely: the run succeeds without
	// dispatch errors.
	blobs, err := c.Run(context.Background(), testJob, firstN(6))
	if err != nil {
		t.Fatal(err)
	}
	checkBlobs(t, blobs, 6)
	if got := c.Metrics().Counter(`cluster_dispatch_total{status="transport_error"}`).Value(); got != 0 {
		t.Fatalf("transport errors = %d, want 0 (dead worker must be skipped)", got)
	}
}

func TestSeededFaultPlanDeterministic(t *testing.T) {
	a := SeededFaultPlan(7, 100, 0.3)
	b := SeededFaultPlan(7, 100, 0.3)
	if len(a.rules) == 0 {
		t.Fatal("seeded plan injected nothing at rate 0.3")
	}
	if len(a.rules) != len(b.rules) {
		t.Fatalf("same seed, different rule counts: %d vs %d", len(a.rules), len(b.rules))
	}
	for n, f := range a.rules {
		if b.rules[n] != f {
			t.Fatalf("same seed, different rule at %d: %v vs %v", n, f, b.rules[n])
		}
	}
}

func TestRunCancellation(t *testing.T) {
	release := make(chan struct{})
	slow := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		// Hold the response until the test ends (the handler must drain
		// the body first or the server never notices the client's
		// departure and Close hangs).
		io.Copy(io.Discard, r.Body)
		select {
		case <-r.Context().Done():
		case <-release:
		}
	}))
	t.Cleanup(func() { close(release); slow.Close() })
	c := NewClient([]string{slow.URL}, Options{ShardSize: 2, Concurrency: 1})
	ctx, cancel := context.WithCancel(context.Background())
	go func() { time.Sleep(50 * time.Millisecond); cancel() }()
	_, err := c.Run(ctx, testJob, firstN(4))
	if err == nil {
		t.Fatal("cancelled run succeeded")
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}
