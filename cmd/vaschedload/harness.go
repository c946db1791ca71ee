package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"vasched/internal/metrics"
	"vasched/internal/tenant"
)

// pollInterval is the client-side status poll period. Coarse enough to
// keep 16 pollers from drowning a 1-CPU coordinator, fine enough that
// poll quantisation stays small next to real job latency.
const pollInterval = 25 * time.Millisecond

// retryCap bounds every backoff sleep (Retry-After hints included) so a
// conservative server hint cannot stall the burst phase.
const retryCap = 500 * time.Millisecond

// target is the coordinator base URL, swappable mid-run: the restart
// injector replaces it after SIGKILL+relaunch lands on a fresh
// ephemeral port, and every in-flight client picks up the new URL on
// its next attempt.
type target struct{ url atomic.Value }

func newTarget(url string) *target {
	t := &target{}
	t.url.Store(strings.TrimRight(url, "/"))
	return t
}

func (t *target) get() string    { return t.url.Load().(string) }
func (t *target) set(url string) { t.url.Store(strings.TrimRight(url, "/")) }

// tally is the run's shared scoreboard.
type tally struct {
	submitted, done, cancelled, failed atomic.Int64
	rejected429, retries, restarts     atomic.Int64

	mu        sync.Mutex
	clientLat []float64 // submit→terminal seconds, client clock
	accepted  []uint64  // every job ID the server answered 202 for
}

func (ta *tally) record(id uint64) {
	ta.mu.Lock()
	ta.accepted = append(ta.accepted, id)
	ta.mu.Unlock()
	ta.submitted.Add(1)
}

func (ta *tally) observe(sec float64) {
	ta.mu.Lock()
	ta.clientLat = append(ta.clientLat, sec)
	ta.mu.Unlock()
}

// quantiles computes exact client-side percentiles (nearest-rank on the
// sorted sample — no estimation needed when every latency is on hand).
func (ta *tally) quantiles() Quantiles {
	ta.mu.Lock()
	lat := append([]float64(nil), ta.clientLat...)
	ta.mu.Unlock()
	if len(lat) == 0 {
		return Quantiles{}
	}
	sort.Float64s(lat)
	at := func(q float64) float64 {
		i := int(q * float64(len(lat)-1))
		return lat[i]
	}
	return Quantiles{P50: at(0.50), P95: at(0.95), P99: at(0.99)}
}

// driver runs the planned mix against the target coordinator.
type driver struct {
	cfg   runConfig
	tgt   *target
	httpc *http.Client
	tally tally

	// terminals counts jobs that reached a terminal state — the restart
	// injector triggers on it.
	terminals atomic.Int64

	// peakDepth and peakLaneDepth are the largest sampled total and
	// per-lane queue depths.
	depthMu       sync.Mutex
	peakDepth     int
	peakLaneDepth map[string]int
}

func newDriver(cfg runConfig, tgt *target) *driver {
	return &driver{
		cfg:           cfg,
		tgt:           tgt,
		httpc:         &http.Client{Timeout: 30 * time.Second},
		peakLaneDepth: map[string]int{},
	}
}

// do issues one request with the tenant header, retrying transport
// errors (the coordinator is mid-restart) until ctx expires.
func (d *driver) do(ctx context.Context, method, path, ten string, body []byte) (*http.Response, error) {
	for attempt := 0; ; attempt++ {
		var rd io.Reader
		if body != nil {
			rd = bytes.NewReader(body)
		}
		req, err := http.NewRequestWithContext(ctx, method, d.tgt.get()+path, rd)
		if err != nil {
			return nil, err
		}
		if ten != "" {
			req.Header.Set("X-Tenant", ten)
		}
		if body != nil {
			req.Header.Set("Content-Type", "application/json")
		}
		resp, err := d.httpc.Do(req)
		if err == nil {
			return resp, nil
		}
		if ctx.Err() != nil {
			return nil, ctx.Err()
		}
		// Transport error: the coordinator is restarting (or not up
		// yet). Back off and retry against whatever URL is current.
		d.tally.retries.Add(1)
		sleepCtx(ctx, backoff(attempt))
	}
}

// backoff is the transport-retry schedule: 25ms doubling to retryCap.
func backoff(attempt int) time.Duration {
	dur := 25 * time.Millisecond << uint(min(attempt, 6))
	if dur > retryCap {
		dur = retryCap
	}
	return dur
}

func sleepCtx(ctx context.Context, d time.Duration) {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
	case <-t.C:
	}
}

// submit POSTs one job, absorbing 429 backpressure (honouring
// Retry-After up to retryCap) and 503 drain windows until the job is
// accepted or ctx expires.
func (d *driver) submit(ctx context.Context, spec jobSpec) (uint64, error) {
	body := map[string]any{
		"experiment": spec.Experiment,
		"scale":      d.cfg.scale,
		"lane":       spec.Lane,
	}
	if spec.Adaptive {
		body["adaptive"] = map[string]any{"metric": "power-ratio"}
	}
	buf, _ := json.Marshal(body)
	for {
		resp, err := d.do(ctx, http.MethodPost, "/v1/jobs", spec.Tenant, buf)
		if err != nil {
			return 0, err
		}
		switch resp.StatusCode {
		case http.StatusAccepted:
			var v struct {
				ID uint64 `json:"id"`
			}
			err := json.NewDecoder(resp.Body).Decode(&v)
			resp.Body.Close()
			if err != nil {
				return 0, fmt.Errorf("decode submit response: %v", err)
			}
			return v.ID, nil
		case http.StatusTooManyRequests:
			d.tally.rejected429.Add(1)
			wait := retryCap
			if ra, err := strconv.Atoi(resp.Header.Get("Retry-After")); err == nil && ra >= 0 {
				if hinted := time.Duration(ra) * time.Second; hinted < wait {
					wait = hinted
				}
			}
			if wait < 50*time.Millisecond {
				wait = 50 * time.Millisecond
			}
			resp.Body.Close()
			sleepCtx(ctx, wait)
		case http.StatusServiceUnavailable:
			// Draining or fenced: the restart injector is mid-swap.
			d.tally.retries.Add(1)
			resp.Body.Close()
			sleepCtx(ctx, retryCap)
		default:
			raw, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			return 0, fmt.Errorf("submit %s: HTTP %d: %s", spec.Experiment, resp.StatusCode, bytes.TrimSpace(raw))
		}
		if ctx.Err() != nil {
			return 0, ctx.Err()
		}
	}
}

// jobStatus fetches one job's current status string.
func (d *driver) jobStatus(ctx context.Context, id uint64) (string, error) {
	resp, err := d.do(ctx, http.MethodGet, fmt.Sprintf("/v1/jobs/%d", id), "", nil)
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return "", fmt.Errorf("job %d: HTTP %d", id, resp.StatusCode)
	}
	var v struct {
		Status string `json:"status"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
		return "", err
	}
	return v.Status, nil
}

// cancel fires a DELETE; best-effort (the job may already be terminal).
func (d *driver) cancel(ctx context.Context, id uint64) {
	resp, err := d.do(ctx, http.MethodDelete, fmt.Sprintf("/v1/jobs/%d", id), "", nil)
	if err == nil {
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}
}

// runSpec drives one job through its full life: submit, optional
// mid-flight cancel, poll to terminal, tally the outcome.
func (d *driver) runSpec(ctx context.Context, spec jobSpec) error {
	start := time.Now()
	id, err := d.submit(ctx, spec)
	if err != nil {
		return err
	}
	d.tally.record(id)
	if spec.Cancel {
		d.cancel(ctx, id)
	}
	for {
		st, err := d.jobStatus(ctx, id)
		if err != nil {
			if ctx.Err() != nil {
				return ctx.Err()
			}
			d.tally.retries.Add(1)
			sleepCtx(ctx, backoff(0))
			continue
		}
		switch st {
		case "done":
			d.tally.done.Add(1)
		case "cancelled":
			d.tally.cancelled.Add(1)
		case "failed":
			d.tally.failed.Add(1)
		default:
			sleepCtx(ctx, pollInterval)
			continue
		}
		d.tally.observe(time.Since(start).Seconds())
		d.terminals.Add(1)
		return nil
	}
}

// drive pushes the whole mix through the client pool: the steady phase
// runs closed-loop (optionally paced by rateHz), then the burst tail is
// thrown at one tenant back-to-back to provoke quota 429s.
func (d *driver) drive(ctx context.Context, specs []jobSpec) error {
	steady, burst := specs, []jobSpec(nil)
	for i, s := range specs {
		if s.Burst {
			steady, burst = specs[:i], specs[i:]
			break
		}
	}

	var gate <-chan time.Time
	if d.cfg.rateHz > 0 {
		tick := time.NewTicker(time.Duration(float64(time.Second) / d.cfg.rateHz))
		defer tick.Stop()
		gate = tick.C
	}

	var errMu sync.Mutex
	var firstErr error
	fail := func(err error) {
		if err == nil || ctx.Err() != nil {
			return
		}
		errMu.Lock()
		if firstErr == nil {
			firstErr = err
		}
		errMu.Unlock()
	}

	pool := func(specs []jobSpec, clients int, paced bool) {
		idx := make(chan jobSpec)
		var wg sync.WaitGroup
		for c := 0; c < clients; c++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for spec := range idx {
					if paced && gate != nil {
						select {
						case <-gate:
						case <-ctx.Done():
							return
						}
					}
					fail(d.runSpec(ctx, spec))
				}
			}()
		}
		for _, s := range specs {
			select {
			case idx <- s:
			case <-ctx.Done():
			}
			if ctx.Err() != nil {
				break
			}
		}
		close(idx)
		wg.Wait()
	}

	pool(steady, d.cfg.clients, true)
	if len(burst) > 0 {
		// The burst pool is wider than the steady pool and never paced:
		// its whole point is to slam one tenant's quota and prove the
		// 429 + Retry-After path under the run's SLO clock.
		clients := d.cfg.clients * 2
		if clients > len(burst) {
			clients = len(burst)
		}
		pool(burst, clients, false)
	}
	if err := ctx.Err(); err != nil {
		return fmt.Errorf("run timed out: %w", err)
	}
	errMu.Lock()
	defer errMu.Unlock()
	return firstErr
}

// sampleDepths scrapes lane-depth gauges until ctx is cancelled and
// keeps their peaks.
func (d *driver) sampleDepths(ctx context.Context, every time.Duration) {
	tick := time.NewTicker(every)
	defer tick.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-tick.C:
		}
		sc, err := d.scrape(ctx)
		if err != nil {
			continue // mid-restart: skip the sample
		}
		total := 0
		perLane := map[string]int{}
		for labels, v := range sc.Series("vaschedd_lane_depth") {
			lane, ok := metrics.LabelValue(labels, "lane")
			if !ok {
				continue
			}
			perLane[lane] = int(v)
			total += int(v)
		}
		d.depthMu.Lock()
		d.peakDepth = max(d.peakDepth, total)
		for lane, v := range perLane {
			d.peakLaneDepth[lane] = max(d.peakLaneDepth[lane], v)
		}
		d.depthMu.Unlock()
	}
}

// scrape fetches and parses /metrics once.
func (d *driver) scrape(ctx context.Context) (*metrics.Scrape, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, d.tgt.get()+"/metrics", nil)
	if err != nil {
		return nil, err
	}
	resp, err := d.httpc.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	return metrics.ParseExposition(string(raw))
}

// sweepLost paginates the full job list through the ?after cursor and
// returns the accepted IDs that are missing or non-terminal — the
// zero-lost acceptance check after injected crashes.
func (d *driver) sweepLost(ctx context.Context) ([]uint64, error) {
	status := map[uint64]string{}
	after := uint64(0)
	for {
		path := "/v1/jobs?limit=200"
		if after > 0 {
			path += fmt.Sprintf("&after=%d", after)
		}
		resp, err := d.do(ctx, http.MethodGet, path, "", nil)
		if err != nil {
			return nil, err
		}
		if resp.StatusCode != http.StatusOK {
			raw, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			return nil, fmt.Errorf("list after=%d: HTTP %d: %s", after, resp.StatusCode, bytes.TrimSpace(raw))
		}
		var page []struct {
			ID     uint64 `json:"id"`
			Status string `json:"status"`
		}
		err = json.NewDecoder(resp.Body).Decode(&page)
		resp.Body.Close()
		if err != nil {
			return nil, err
		}
		if len(page) == 0 {
			break
		}
		for _, j := range page {
			status[j.ID] = j.Status
		}
		after = page[len(page)-1].ID // newest-first: the page's last ID is its lowest
		if after <= 1 {
			break
		}
	}

	d.tally.mu.Lock()
	accepted := append([]uint64(nil), d.tally.accepted...)
	d.tally.mu.Unlock()
	var lost []uint64
	for _, id := range accepted {
		switch status[id] {
		case "done", "cancelled", "failed":
		default:
			lost = append(lost, id)
		}
	}
	sort.Slice(lost, func(i, j int) bool { return lost[i] < lost[j] })
	return lost, nil
}

// --- process management (spawn mode) ---

// proc is one spawned vaschedd process (coordinator or worker).
type proc struct {
	cmd *exec.Cmd
	url string
}

func (p *proc) kill() {
	if p != nil && p.cmd.Process != nil {
		p.cmd.Process.Kill()
		p.cmd.Wait()
	}
}

// cluster is the spawned topology: one coordinator (replaceable across
// injected crashes) plus a fixed worker fleet.
type cluster struct {
	bin       string
	dataDir   string
	coordArgs []string
	coord     *proc
	workers   []*proc
}

// buildBinary compiles cmd/vaschedd into dir.
func buildBinary(dir string) (string, error) {
	bin := filepath.Join(dir, "vaschedd")
	cmd := exec.Command("go", "build", "-o", bin, "vasched/cmd/vaschedd")
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("go build vaschedd: %v\n%s", err, out)
	}
	return bin, nil
}

// startProc launches bin with args and parses the bound address from
// the stderr line beginning with prefix. Stderr keeps draining in the
// background so the child never blocks on a full pipe.
func startProc(bin string, args []string, prefix string, timeout time.Duration) (*proc, error) {
	cmd := exec.Command(bin, args...)
	stderr, err := cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	addrCh := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(stderr)
		for sc.Scan() {
			if rest, ok := strings.CutPrefix(sc.Text(), prefix); ok {
				addr, _, _ := strings.Cut(rest, " ")
				select {
				case addrCh <- addr:
				default:
				}
			}
		}
	}()
	select {
	case addr := <-addrCh:
		return &proc{cmd: cmd, url: "http://" + addr}, nil
	case <-time.After(timeout):
		cmd.Process.Kill()
		cmd.Wait()
		return nil, fmt.Errorf("%s %v: no %q line within %v", bin, args, prefix, timeout)
	}
}

// startCluster spawns the worker fleet, then a coordinator wired to it.
func startCluster(cfg runConfig, workDir string) (*cluster, error) {
	bin, err := buildBinary(workDir)
	if err != nil {
		return nil, err
	}
	cl := &cluster{bin: bin, dataDir: filepath.Join(workDir, "data")}
	if err := os.MkdirAll(cl.dataDir, 0o755); err != nil {
		return nil, err
	}
	var workerURLs []string
	for i := 0; i < cfg.clusterWorkers; i++ {
		w, err := startProc(bin, []string{"-worker", "-addr", "127.0.0.1:0", "-parallel", "1"},
			"vaschedd: worker listening on ", 30*time.Second)
		if err != nil {
			cl.stop()
			return nil, err
		}
		cl.workers = append(cl.workers, w)
		workerURLs = append(workerURLs, w.url)
	}
	cl.coordArgs = []string{
		"-addr", "127.0.0.1:0",
		"-data-dir", cl.dataDir,
		"-max-jobs", strconv.Itoa(cfg.maxJobs),
		"-tenant-quota", strconv.Itoa(cfg.tenantQuota),
		"-lane-cap", strconv.Itoa(cfg.laneCap),
		"-drain", "5s",
	}
	if len(workerURLs) > 0 {
		cl.coordArgs = append(cl.coordArgs, "-workers", strings.Join(workerURLs, ","))
	}
	if err := cl.startCoord(); err != nil {
		cl.stop()
		return nil, err
	}
	return cl, nil
}

func (cl *cluster) startCoord() error {
	p, err := startProc(cl.bin, cl.coordArgs, "vaschedd: listening on ", 30*time.Second)
	if err != nil {
		return err
	}
	cl.coord = p
	return nil
}

func (cl *cluster) stop() {
	cl.coord.kill()
	for _, w := range cl.workers {
		w.kill()
	}
}

// injectCrash waits until frac of the planned jobs are terminal, then
// SIGKILLs the coordinator (no drain, torn WAL) and relaunches it over
// the same data directory on a fresh port — the crash-recovery path the
// durability tests prove, exercised here under live client load.
func (d *driver) injectCrash(ctx context.Context, cl *cluster, frac float64, totalJobs int) {
	threshold := int64(frac * float64(totalJobs))
	if threshold < 1 {
		threshold = 1
	}
	for d.terminals.Load() < threshold {
		if ctx.Err() != nil {
			return
		}
		sleepCtx(ctx, 20*time.Millisecond)
	}
	cl.coord.kill()
	if err := cl.startCoord(); err != nil {
		// Leave the dead URL in place: clients keep erroring, the run
		// times out, and the timeout error names the real failure.
		fmt.Fprintf(os.Stderr, "vaschedload: restart after injected crash failed: %v\n", err)
		return
	}
	d.tgt.set(cl.coord.url)
	d.tally.restarts.Add(1)
}

// laneWeightString renders the configured smooth-WRR weights for the
// report, e.g. "16/4/1".
func laneWeightString() string {
	w := tenant.Weights()
	parts := make([]string, len(w))
	for i, v := range w {
		parts[i] = strconv.Itoa(v)
	}
	return strings.Join(parts, "/")
}
