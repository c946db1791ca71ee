package cluster

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"vasched/internal/farm"
	"vasched/internal/metrics"
	"vasched/internal/trace"
)

// Job identifies the distributable work: which registered kernel to run
// and the Env seeds/scale both sides rebuild it from. A die's result is a
// pure function of (Job, die index), which is the whole determinism
// argument: shard boundaries, worker assignment, retries and hedges can
// change freely without changing a single output byte.
type Job struct {
	Kernel    string
	Scale     string
	Seed      int64
	BatchSeed int64
	// ConfigHash is the coordinator Env's canonical model-config hash
	// (diecache.ConfigHash). Workers rebuild the Env from Scale and
	// refuse the shard if their hash disagrees — the guard against
	// version skew silently producing different dies under one Scale
	// name. Zero means "unchecked" (old callers, hand-built jobs).
	ConfigHash uint64
}

// ErrNoWorkers is returned when a shard cannot be placed because every
// worker is down, backed off, or the registry is empty. Callers treat it
// as the degradation signal and fall back to pure-local execution.
var ErrNoWorkers = errors.New("cluster: no workers available")

// Options tunes the coordinator.
type Options struct {
	// ShardSize is how many die indices travel in one request (default 8).
	// Smaller shards spread better and retry cheaper; larger ones
	// amortise HTTP overhead.
	ShardSize int
	// Timeout bounds one dispatch (HTTP round trip), default 120s.
	Timeout time.Duration
	// Retries is how many extra attempts a shard gets after its first
	// dispatch fails (default 3). Each retry prefers a different worker.
	Retries int
	// BackoffBase and BackoffMax shape the capped exponential backoff a
	// failing worker sits out: base*2^(consecutive failures-1), capped at
	// max (defaults 100ms, 5s).
	BackoffBase time.Duration
	BackoffMax  time.Duration
	// HedgeAfter, when positive, re-dispatches a straggler shard to a
	// second worker if the first response hasn't arrived in time; the
	// first response wins (both are byte-identical by construction).
	// 0 disables hedging.
	HedgeAfter time.Duration
	// Concurrency bounds in-flight shards (default 2 per worker).
	Concurrency int
	// Fault, when non-nil, deterministically injects failures into
	// dispatches (tests and chaos runs).
	Fault *FaultPlan
	// Metrics receives every counter and latency histogram; a private
	// registry is created when nil.
	Metrics *metrics.Registry
	// HTTPClient overrides the transport (tests); per-dispatch timeouts
	// come from Timeout via context, not from the http.Client.
	HTTPClient *http.Client
}

// withDefaults fills unset options.
func (o Options) withDefaults(numWorkers int) Options {
	if o.ShardSize <= 0 {
		o.ShardSize = 8
	}
	if o.Timeout <= 0 {
		o.Timeout = 120 * time.Second
	}
	if o.Retries < 0 {
		o.Retries = 0
	} else if o.Retries == 0 {
		o.Retries = 3
	}
	if o.BackoffBase <= 0 {
		o.BackoffBase = 100 * time.Millisecond
	}
	if o.BackoffMax <= 0 {
		o.BackoffMax = 5 * time.Second
	}
	if o.Concurrency <= 0 {
		o.Concurrency = 2 * numWorkers
		if o.Concurrency < 1 {
			o.Concurrency = 1
		}
	}
	if o.Metrics == nil {
		o.Metrics = metrics.NewRegistry()
	}
	if o.HTTPClient == nil {
		o.HTTPClient = &http.Client{}
	}
	return o
}

// worker is one registry entry. Health has two inputs: liveness probes
// (ProbeAll flips healthy) and dispatch outcomes (consecutive failures
// put the worker into capped exponential backoff).
type worker struct {
	url string

	mu           sync.Mutex
	healthy      bool
	consecFails  int
	backoffUntil time.Time
	ok           int64
	failed       int64
}

// available reports whether the worker may receive a dispatch now.
func (w *worker) available(now time.Time) bool {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.healthy && !now.Before(w.backoffUntil)
}

// succeed resets failure state after a good dispatch.
func (w *worker) succeed() {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.ok++
	w.consecFails = 0
	w.backoffUntil = time.Time{}
}

// fail records a bad dispatch and extends the backoff window.
func (w *worker) fail(now time.Time, base, max time.Duration) time.Duration {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.failed++
	w.consecFails++
	d := base << (w.consecFails - 1)
	if w.consecFails > 16 || d > max || d <= 0 {
		d = max
	}
	w.backoffUntil = now.Add(d)
	return d
}

// WorkerInfo is a point-in-time registry snapshot entry (the /v1/cluster
// status endpoint serves these).
type WorkerInfo struct {
	URL              string    `json:"url"`
	Healthy          bool      `json:"healthy"`
	ConsecutiveFails int       `json:"consecutive_fails"`
	BackoffUntil     time.Time `json:"backoff_until,omitempty"`
	Dispatched       int64     `json:"dispatched_ok"`
	Failed           int64     `json:"failed"`
}

// Client is the coordinator side: it shards an index space over the
// worker registry and reduces the responses in index order.
type Client struct {
	workers []*worker
	opt     Options
	rr      atomic.Uint64
}

// NewClient builds a coordinator over the given worker base URLs
// (e.g. "http://10.0.0.7:8081"). Workers start healthy; attach a probe
// loop (ProbeAll) for liveness-based eviction.
func NewClient(urls []string, opt Options) *Client {
	c := &Client{opt: opt.withDefaults(len(urls))}
	for _, u := range urls {
		c.workers = append(c.workers, &worker{url: u, healthy: true})
	}
	return c
}

// Metrics returns the registry every dispatch outcome is counted in.
func (c *Client) Metrics() *metrics.Registry { return c.opt.Metrics }

// NumWorkers returns the registry size.
func (c *Client) NumWorkers() int { return len(c.workers) }

// Workers snapshots the registry for status endpoints.
func (c *Client) Workers() []WorkerInfo {
	out := make([]WorkerInfo, 0, len(c.workers))
	for _, w := range c.workers {
		w.mu.Lock()
		out = append(out, WorkerInfo{
			URL:              w.url,
			Healthy:          w.healthy,
			ConsecutiveFails: w.consecFails,
			BackoffUntil:     w.backoffUntil,
			Dispatched:       w.ok,
			Failed:           w.failed,
		})
		w.mu.Unlock()
	}
	return out
}

// ProbeAll liveness-checks every worker's /healthz concurrently, updates
// the registry, and returns how many are healthy. A worker failing its
// probe is skipped by dispatch until a later probe revives it.
func (c *Client) ProbeAll(ctx context.Context) int {
	var wg sync.WaitGroup
	var healthyN atomic.Int64
	for _, w := range c.workers {
		wg.Add(1)
		go func(w *worker) {
			defer wg.Done()
			ok := c.probe(ctx, w)
			w.mu.Lock()
			w.healthy = ok
			w.mu.Unlock()
			if ok {
				healthyN.Add(1)
			} else {
				c.opt.Metrics.Counter(`cluster_probe_failures_total`).Inc()
			}
		}(w)
	}
	wg.Wait()
	return int(healthyN.Load())
}

func (c *Client) probe(ctx context.Context, w *worker) bool {
	ctx, cancel := context.WithTimeout(ctx, 5*time.Second)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, w.url+"/healthz", nil)
	if err != nil {
		return false
	}
	resp, err := c.opt.HTTPClient.Do(req)
	if err != nil {
		return false
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	return resp.StatusCode == http.StatusOK
}

// Run shards the given indices of job across the workers (the wire
// format carries explicit die lists, so any index set shards alike) and
// returns one result blob per entry, in argument order — byte-identical
// to running the kernel locally, whatever the shard size, worker count,
// or failure pattern. The whole run fails (so the caller can degrade to
// local execution) only when some shard exhausted its retries or no
// worker was available.
func (c *Client) Run(ctx context.Context, job Job, indices []int) ([][]byte, error) {
	if len(c.workers) == 0 {
		c.opt.Metrics.Counter(`cluster_runs_total{status="degraded"}`).Inc()
		return nil, ErrNoWorkers
	}
	n := len(indices)
	blobs := make([][]byte, n)
	shards := (n + c.opt.ShardSize - 1) / c.opt.ShardSize
	ctx, sp := trace.Start(ctx, "cluster.run",
		trace.String("kernel", job.Kernel), trace.Int("indices", n), trace.Int("shards", shards))
	defer sp.End()
	// The shard fan-out reuses the farm engine: index-slotted writes into
	// blobs, serial reduction by the caller.
	err := farm.Map(ctx, c.opt.Concurrency, shards, func(ctx context.Context, s int) error {
		lo := s * c.opt.ShardSize
		hi := lo + c.opt.ShardSize
		if hi > n {
			hi = n
		}
		ctx, ssp := trace.Start(ctx, "cluster.shard",
			trace.Int("lo", indices[lo]), trace.Int("hi", indices[hi-1]+1))
		defer ssp.End()
		dies := make([]int, hi-lo)
		copy(dies, indices[lo:hi])
		got, err := c.runShard(ctx, job, dies)
		if err != nil {
			return err
		}
		copy(blobs[lo:hi], got)
		return nil
	})
	if err != nil {
		c.opt.Metrics.Counter(`cluster_runs_total{status="degraded"}`).Inc()
		return nil, err
	}
	c.opt.Metrics.Counter(`cluster_runs_total{status="ok"}`).Inc()
	return blobs, nil
}

// runShard drives one shard through the retry state machine: pick a
// worker, dispatch (with optional hedging), and on failure back the
// worker off and retry on another one.
func (c *Client) runShard(ctx context.Context, job Job, dies []int) ([][]byte, error) {
	req := &ShardRequest{Kernel: job.Kernel, Scale: job.Scale, Seed: job.Seed, BatchSeed: job.BatchSeed, ConfigHash: job.ConfigHash, Dies: dies}
	payload, err := EncodeRequest(req)
	if err != nil {
		return nil, err
	}

	var lastErr error
	var avoid *worker
	for attempt := 0; attempt <= c.opt.Retries; attempt++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		w := c.pick(avoid)
		if w == nil {
			break
		}
		if attempt > 0 {
			c.opt.Metrics.Counter(`cluster_shard_retries_total`).Inc()
		}
		dctx, dsp := trace.Start(ctx, "cluster.dispatch", trace.Int("attempt", attempt))
		resp, err := c.dispatch(dctx, w, payload, len(dies))
		if err == nil {
			dsp.AddAttr(trace.String("status", "ok"))
			dsp.End()
			c.opt.Metrics.Counter(`cluster_shards_total{status="ok"}`).Inc()
			return resp.Blobs, nil
		}
		dsp.AddAttr(trace.String("status", "error"))
		if IsInjected(err) {
			dsp.AddAttr(trace.Bool("fault", true))
		}
		dsp.End()
		lastErr = err
		avoid = w
		if ctx.Err() != nil {
			return nil, ctx.Err()
		}
	}
	c.opt.Metrics.Counter(`cluster_shards_total{status="failed"}`).Inc()
	if lastErr == nil {
		lastErr = ErrNoWorkers
	}
	return nil, fmt.Errorf("cluster: shard [%d..%d] failed after retries: %w", dies[0], dies[len(dies)-1], lastErr)
}

// pick selects the next available worker round-robin, preferring one
// different from avoid (the worker that just failed); avoid is only
// returned when it is the sole available worker.
func (c *Client) pick(avoid *worker) *worker {
	now := time.Now()
	start := int(c.rr.Add(1))
	var fallback *worker
	for i := 0; i < len(c.workers); i++ {
		w := c.workers[(start+i)%len(c.workers)]
		if !w.available(now) {
			continue
		}
		if w == avoid {
			fallback = w
			continue
		}
		return w
	}
	return fallback
}

// dispatch sends one shard to w, hedging to a second worker when the
// response straggles past HedgeAfter. Whichever worker answers has its
// health updated; the first success wins.
func (c *Client) dispatch(ctx context.Context, w *worker, payload []byte, wantBlobs int) (*ShardResponse, error) {
	type outcome struct {
		resp *ShardResponse
		err  error
		w    *worker
	}
	start := time.Now()
	done := func(o outcome) (*ShardResponse, error) {
		if o.err != nil {
			o.w.fail(time.Now(), c.opt.BackoffBase, c.opt.BackoffMax)
			c.opt.Metrics.Counter(`cluster_worker_backoffs_total`).Inc()
			return nil, o.err
		}
		o.w.succeed()
		c.opt.Metrics.Histogram(`cluster_shard_seconds`).Observe(time.Since(start).Seconds())
		return o.resp, nil
	}

	if c.opt.HedgeAfter <= 0 || len(c.workers) < 2 {
		resp, err := c.call(ctx, w, payload, wantBlobs)
		return done(outcome{resp: resp, err: err, w: w})
	}

	ch := make(chan outcome, 2)
	launch := func(w *worker) {
		go func() {
			resp, err := c.call(ctx, w, payload, wantBlobs)
			ch <- outcome{resp: resp, err: err, w: w}
		}()
	}
	launch(w)
	inFlight := 1
	hedged := false
	timer := time.NewTimer(c.opt.HedgeAfter)
	defer timer.Stop()
	var firstErr outcome
	for {
		select {
		case o := <-ch:
			inFlight--
			if o.err == nil {
				// Winner. A still-in-flight sibling drains into the
				// buffered channel and is discarded.
				return done(o)
			}
			// Record the failure against the responder immediately…
			o.w.fail(time.Now(), c.opt.BackoffBase, c.opt.BackoffMax)
			c.opt.Metrics.Counter(`cluster_worker_backoffs_total`).Inc()
			if firstErr.err == nil {
				firstErr = o
			}
			if inFlight > 0 {
				continue // …but give the sibling a chance to win.
			}
			// Don't double-mark: done() would fail the worker again, so
			// surface the error directly.
			return nil, firstErr.err
		case <-timer.C:
			if hedged {
				continue
			}
			hedged = true
			if w2 := c.pick(w); w2 != nil && w2 != w {
				c.opt.Metrics.Counter(`cluster_shards_hedged_total`).Inc()
				trace.Event(ctx, "cluster.hedge")
				launch(w2)
				inFlight++
			}
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
}

// call performs one HTTP dispatch (the fault-injection point).
func (c *Client) call(ctx context.Context, w *worker, payload []byte, wantBlobs int) (*ShardResponse, error) {
	n, f := c.opt.Fault.take()
	if f.Action != FaultNone {
		c.opt.Metrics.Counter(fmt.Sprintf("cluster_faults_injected_total{action=%q}", f.Action)).Inc()
	}
	switch f.Action {
	case FaultError:
		return nil, injectedErr(n, FaultError)
	case FaultDrop:
		// A blackholed response surfaces as a timeout; synthesising it
		// keeps the drop path deterministic and sleep-free.
		return nil, fmt.Errorf("%w (%w)", injectedErr(n, FaultDrop), context.DeadlineExceeded)
	}

	ctx, cancel := context.WithTimeout(ctx, c.opt.Timeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, w.url+"/v1/shard", bytes.NewReader(payload))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", contentType)
	resp, err := c.opt.HTTPClient.Do(req)
	if err != nil {
		c.opt.Metrics.Counter(`cluster_dispatch_total{status="transport_error"}`).Inc()
		return nil, err
	}
	body, err := io.ReadAll(io.LimitReader(resp.Body, maxResponseBytes))
	resp.Body.Close()
	if err != nil {
		c.opt.Metrics.Counter(`cluster_dispatch_total{status="transport_error"}`).Inc()
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		c.opt.Metrics.Counter(`cluster_dispatch_total{status="bad_status"}`).Inc()
		return nil, fmt.Errorf("cluster: worker %s: status %d: %s", w.url, resp.StatusCode, truncate(body, 200))
	}
	switch f.Action {
	case FaultCorrupt:
		body = corrupt(body)
	case FaultDelay:
		select {
		case <-time.After(f.Delay):
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	sr, err := DecodeResponse(body)
	if err != nil {
		c.opt.Metrics.Counter(`cluster_dispatch_total{status="corrupt"}`).Inc()
		return nil, err
	}
	if len(sr.Blobs) != wantBlobs {
		c.opt.Metrics.Counter(`cluster_dispatch_total{status="short"}`).Inc()
		return nil, fmt.Errorf("cluster: worker %s returned %d blobs, want %d", w.url, len(sr.Blobs), wantBlobs)
	}
	c.opt.Metrics.Counter(`cluster_dispatch_total{status="ok"}`).Inc()
	return sr, nil
}

// maxResponseBytes bounds a worker response read (64 MiB, matching the
// codec's own limits).
const maxResponseBytes = maxBlobLen + 1<<20

func truncate(b []byte, n int) string {
	if len(b) > n {
		b = b[:n]
	}
	return string(b)
}
