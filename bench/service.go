package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"vasched/internal/metrics"
	"vasched/internal/stats"
)

// capacityJobsPerS is the sustained throughput that cmd/vaschedload
// measured for vaschedd -max-jobs 2 with this mix (LOAD_2026-08-08.json).
// The service workload offers half of it. At three quarters of it, on two
// shared vCPUs, the median start latency and the finish-latency tail
// moved by a quarter to a half from run to run, more than any bound the
// benchmark may set, so no workload runs nearer the capacity.
const capacityJobsPerS = 23.9

// The traffic is the load harness's model (cmd/vaschedload, mix.go):
// the same experiment, adaptive and lane weights, three tenants and 3% of
// jobs cancelled right after submission. Its weights are that model's
// assumption, not recorded traffic.
var (
	svcMix = []struct {
		id string
		// adaptive submits the job with an adaptive sampling config.
		adaptive bool
		weight   float64
	}{
		{"table5", false, 0.58},
		{"sann", false, 0.22},
		{"fig15", false, 0.07},
		{"fig6", false, 0.06},
		{"fig4", false, 0.03},
		{"ext-adapt", false, 0.02},
		{"ext-adapt", true, 0.02},
	}
	svcLanes = []struct {
		name   string
		weight float64
	}{
		{"interactive", 0.60},
		{"batch", 0.30},
		{"control", 0.10},
	}
)

const (
	svcTenants    = 3
	svcCancelFrac = 0.03
)

// svcTail is the reported tail percentile of the finish latency: the
// highest with at least ten of a 20-second run's jobs beyond it.
const svcTail = 0.95

// svcConns is the number of load-generator connections, and of sender
// goroutines.
const svcConns = 2

// terminalWait bounds how long jobs may take to finish after the last
// submit before they count as failed.
const terminalWait = 30 * time.Second

type plannedJob struct {
	// mix indexes svcMix.
	mix          int
	tenant, lane string
	cancel       bool
}

func (j plannedJob) experiment() string { return svcMix[j.mix].id }

// planJobs draws the job sequence of a run from its seed. Unlike the load
// harness, which draws every job independently, the shares of experiments,
// lanes and cancels are exact, so every run at a rate offers the same work
// and the seed only decides its order: a 3% share drawn independently
// would change the number of heavy jobs, and so the latency tail, from run
// to run.
func planJobs(seed int64, n int) []plannedJob {
	rng := stats.NewRNG(seed)
	mixWeights := make([]float64, len(svcMix))
	for i, m := range svcMix {
		mixWeights[i] = m.weight
	}
	laneWeights := make([]float64, len(svcLanes))
	for i, l := range svcLanes {
		laneWeights[i] = l.weight
	}
	mix := exactShares(rng, n, mixWeights)
	lanes := exactShares(rng, n, laneWeights)
	cancels := exactShares(rng, n, []float64{1 - svcCancelFrac, svcCancelFrac})
	jobs := make([]plannedJob, n)
	for i := range jobs {
		jobs[i] = plannedJob{
			mix:    mix[i],
			tenant: fmt.Sprintf("tenant-%d", i%svcTenants),
			lane:   svcLanes[lanes[i]].name,
			cancel: cancels[i] == 1,
		}
	}
	return jobs
}

// exactShares assigns n items to categories in proportion to weights, the
// last category taking the rounding remainder, and shuffles the result.
func exactShares(rng *stats.RNG, n int, weights []float64) []int {
	out := make([]int, n)
	i := 0
	for k, w := range weights {
		end := i + int(w*float64(n)+0.5)
		if k == len(weights)-1 || end > n {
			end = n
		}
		for ; i < end; i++ {
			out[i] = k
		}
	}
	rng.Shuffle(n, func(a, b int) { out[a], out[b] = out[b], out[a] })
	return out
}

// service is one spawned vaschedd process.
type service struct {
	cmd    *exec.Cmd
	base   string
	dir    string
	client *http.Client
	once   sync.Once
	// maxRSSMB is the process's peak resident set, known once it exited.
	maxRSSMB float64
}

// startService spawns vaschedd on an ephemeral port with a write-ahead log
// in a fresh directory under workDir, and waits until it listens.
func startService(o options) (*service, error) {
	dir, err := os.MkdirTemp(o.workDir, "vaschedd-")
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(o.vaschedd, "-addr", "127.0.0.1:0", "-data-dir", dir, "-max-jobs", "2", "-parallel", "1")
	// vaschedd must not outlive the benchmark, even when it is killed.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	stderr, err := cmd.StderrPipe()
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		os.RemoveAll(dir)
		return nil, fmt.Errorf("start vaschedd: %w", err)
	}
	s := &service{cmd: cmd, dir: dir, client: &http.Client{
		Timeout:   terminalWait,
		Transport: &http.Transport{MaxConnsPerHost: svcConns, MaxIdleConnsPerHost: svcConns},
	}}
	addr := make(chan string, 1)
	go func() {
		// Read the bound address, then drain the log until the process
		// closes it, so vaschedd never blocks on a full pipe.
		sc := bufio.NewScanner(stderr)
		for sc.Scan() {
			if _, rest, ok := strings.Cut(sc.Text(), "listening on "); ok {
				addr <- strings.Fields(rest)[0]
				break
			}
		}
		close(addr)
		io.Copy(io.Discard, stderr)
	}()
	select {
	case a, ok := <-addr:
		if ok {
			s.base = "http://" + a
			return s, nil
		}
		err = errors.New("vaschedd exited before listening")
	case <-time.After(10 * time.Second):
		err = errors.New("vaschedd did not listen within 10 s")
	}
	s.stop()
	return nil, err
}

// stop terminates vaschedd, waits for it, records its peak memory and
// removes its data directory. Calls after the first do nothing.
func (s *service) stop() { s.once.Do(s.terminate) }

func (s *service) terminate() {
	s.client.CloseIdleConnections()
	s.cmd.Process.Signal(syscall.SIGTERM)
	done := make(chan struct{})
	go func() {
		s.cmd.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		s.cmd.Process.Kill()
		<-done
	}
	if ru, ok := s.cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		s.maxRSSMB = float64(ru.Maxrss) / 1024
	}
	os.RemoveAll(s.dir)
}

// jobView is the part of vaschedd's job JSON the benchmark reads.
type jobView struct {
	ID        uint64     `json:"id"`
	Status    string     `json:"status"`
	Error     string     `json:"error"`
	Submitted time.Time  `json:"submitted"`
	Started   *time.Time `json:"started"`
	Finished  *time.Time `json:"finished"`
	Rendered  string     `json:"rendered"`
}

func (v jobView) terminal() bool {
	return v.Status == "done" || v.Status == "failed" || v.Status == "cancelled"
}

// submit posts one job and returns the HTTP status and the job's id.
func (s *service) submit(j plannedJob) (int, uint64, error) {
	adaptive := ""
	if svcMix[j.mix].adaptive {
		adaptive = `,"adaptive":{"metric":"power-ratio"}`
	}
	body := fmt.Sprintf(`{"experiment":%q,"scale":"quick","lane":%q%s}`, j.experiment(), j.lane, adaptive)
	req, err := http.NewRequest(http.MethodPost, s.base+"/v1/jobs", strings.NewReader(body))
	if err != nil {
		return 0, 0, err
	}
	req.Header.Set("X-Tenant", j.tenant)
	resp, err := s.client.Do(req)
	if err != nil {
		return 0, 0, err
	}
	defer resp.Body.Close()
	var v jobView
	if resp.StatusCode == http.StatusAccepted {
		if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
			return resp.StatusCode, 0, fmt.Errorf("decode submit response: %w", err)
		}
	}
	io.Copy(io.Discard, resp.Body)
	return resp.StatusCode, v.ID, nil
}

// cancel asks vaschedd to cancel a job. A job that already finished stays
// as it is.
func (s *service) cancel(id uint64) error {
	req, err := http.NewRequest(http.MethodDelete, fmt.Sprintf("%s/v1/jobs/%d", s.base, id), nil)
	if err != nil {
		return err
	}
	resp, err := s.client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	io.Copy(io.Discard, resp.Body)
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("DELETE job %d: %s", id, resp.Status)
	}
	return nil
}

// get fetches one job.
func (s *service) get(id uint64) (jobView, error) {
	var v jobView
	resp, err := s.client.Get(fmt.Sprintf("%s/v1/jobs/%d", s.base, id))
	if err != nil {
		return v, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return v, fmt.Errorf("GET job %d: %s", id, resp.Status)
	}
	err = json.NewDecoder(resp.Body).Decode(&v)
	return v, err
}

// await polls a job until it is terminal or the deadline passes.
func (s *service) await(id uint64, deadline time.Time) (jobView, error) {
	for {
		v, err := s.get(id)
		if err != nil || v.terminal() {
			return v, err
		}
		if time.Now().After(deadline) {
			return v, fmt.Errorf("job %d still %s", id, v.Status)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// scrape reads vaschedd's /metrics.
func (s *service) scrape() (*metrics.Scrape, error) {
	resp, err := s.client.Get(s.base + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	return metrics.ParseExposition(string(body))
}

// terminalJobs counts the jobs vaschedd has finished in any way.
func terminalJobs(sc *metrics.Scrape) float64 {
	n, _ := sc.Value("vaschedd_jobs_total")
	return n
}

// cpuMS returns vaschedd's user plus system CPU time from /proc.
func (s *service) cpuMS() (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", s.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesised command name start at field 3.
	f := strings.Fields(string(b[bytes.LastIndexByte(b, ')')+1:]))
	if len(f) < 13 {
		return 0, errors.New("short /proc stat line")
	}
	utime, err1 := strconv.ParseFloat(f[11], 64)
	stime, err2 := strconv.ParseFloat(f[12], 64)
	if err := errors.Join(err1, err2); err != nil {
		return 0, err
	}
	return (utime + stime) * 10, nil // clock ticks of 10 ms (USER_HZ 100)
}

// decideMS returns the q-quantile, in ms, of the power-manager decisions
// vaschedd timed between two scrapes, or 0 when it timed none.
func decideMS(before, after *metrics.Scrape, q float64) float64 {
	const family = "vaschedd_decide_seconds"
	h, ok := after.Histogram(family)
	if !ok {
		return 0
	}
	cum := append([]int64(nil), h.Cum...)
	if h0, ok := before.Histogram(family); ok && len(h0.Cum) == len(cum) {
		for i := range cum {
			cum[i] -= h0.Cum[i]
		}
	}
	v := metrics.BucketQuantile(q, h.Bounds, cum)
	if math.IsNaN(v) {
		return 0
	}
	return 1000 * v
}

// goldenDir holds the experiments' committed quick-scale outputs.
const goldenDir = "internal/experiments/testdata/golden"

var (
	durRE   = regexp.MustCompile(`[0-9]+(?:\.[0-9]+)?(?:ns|µs|us|ms|m|h|s)`)
	spaceRE = regexp.MustCompile(` +`)
)

// normalize strips what legitimately varies between runs of an experiment:
// fig15 reports host solve times, whose digits and column padding change.
// It matches the normalisation the golden tests apply.
func normalize(id, out string) string {
	if id == "fig15" {
		return spaceRE.ReplaceAllString(durRE.ReplaceAllString(out, "<dur>"), " ")
	}
	return out
}

// loadGoldens reads the golden output of every experiment in the mix.
func loadGoldens(root string) (map[string]string, error) {
	g := map[string]string{}
	for _, m := range svcMix {
		b, err := os.ReadFile(filepath.Join(root, goldenDir, m.id+".txt"))
		if err != nil {
			return nil, err
		}
		g[m.id] = string(b)
	}
	return g, nil
}

// verify checks a terminal job: done and rendered exactly as its golden,
// or cancelled when the benchmark cancelled it.
func verify(v jobView, j plannedJob, goldens map[string]string) string {
	switch {
	case j.cancel && v.Status == "cancelled":
		return ""
	case v.Status != "done":
		return fmt.Sprintf("job %d (%s) %s: %s", v.ID, j.experiment(), v.Status, v.Error)
	case v.Started == nil || v.Finished == nil:
		return fmt.Sprintf("job %d (%s) has no start or finish time", v.ID, j.experiment())
	case normalize(j.experiment(), v.Rendered) != goldens[j.experiment()]:
		return fmt.Sprintf("job %d (%s) output differs from its golden", v.ID, j.experiment())
	}
	return ""
}

// setupService spawns vaschedd and warms it with one job of each entry of
// the mix, so that the die cache and the experiment environments are
// built before measuring.
func setupService(o options, goldens map[string]string) (*service, error) {
	s, err := startService(o)
	if err != nil {
		return nil, err
	}
	err = func() error {
		ids := make([]uint64, len(svcMix))
		for k := range svcMix {
			code, id, err := s.submit(plannedJob{mix: k, tenant: "warmup", lane: "interactive"})
			if err == nil && code != http.StatusAccepted {
				err = fmt.Errorf("submit of %s: HTTP %d", svcMix[k].id, code)
			}
			if err != nil {
				return err
			}
			ids[k] = id
		}
		for k, id := range ids {
			v, err := s.await(id, time.Now().Add(terminalWait))
			if err != nil {
				return err
			}
			if p := verify(v, plannedJob{mix: k}, goldens); p != "" {
				return errors.New(p)
			}
		}
		return nil
	}()
	if err != nil {
		s.stop()
		return nil, fmt.Errorf("warm-up: %w", err)
	}
	return s, nil
}

// sentJob is the load generator's record of one submit.
type sentJob struct {
	due       time.Time
	lag, rtt  time.Duration
	code      int
	id        uint64
	transport error
	// cancelErr is the error of the DELETE sent for a job the plan cancels.
	cancelErr error
}

// runService runs an open loop: jobs are due at fixed spacing for the
// run's duration and are sent when due, whatever the service's state.
// Latencies run from a job's due time to the start and finish times
// vaschedd records (the same host clock), so a stalled generator still
// counts against them.
//
// The median is taken of the start latency, the tail of the finish
// latency. Finish latencies are bimodal at the median: table5 jobs (58%)
// run in about 3 ms and sann jobs (22%) in about 17 ms, so their median
// sits in the gap between the two and moves by 10-70% from run to run,
// while the median start latency moves by under 10%.
func runService(ctx context.Context, o options, name string, rate float64) (*result, error) {
	goldens, err := loadGoldens(o.root)
	if err != nil {
		return nil, err
	}
	start := time.Now()
	s, err := setupService(o, goldens)
	if err != nil {
		return nil, err
	}
	defer s.stop()
	setup := time.Since(start).Seconds()
	if o.setupOnly {
		return setupResult(name, setup), nil
	}

	n := int(rate * o.duration().Seconds())
	plan := planJobs(o.seed, n)
	before, err := s.scrape()
	if err != nil {
		return nil, err
	}
	cpu0, err := s.cpuMS()
	if err != nil {
		return nil, err
	}
	sent := make([]sentJob, n)
	period := time.Duration(float64(time.Second) / rate)
	t0 := time.Now().Add(50 * time.Millisecond)
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < svcConns; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1) - 1); i < n && ctx.Err() == nil; i = int(next.Add(1) - 1) {
				due := t0.Add(time.Duration(i) * period)
				time.Sleep(time.Until(due))
				start := time.Now()
				code, id, err := s.submit(plan[i])
				sent[i] = sentJob{due: due, lag: start.Sub(due), rtt: time.Since(start), code: code, id: id, transport: err}
				if err == nil && code == http.StatusAccepted && plan[i].cancel {
					sent[i].cancelErr = s.cancel(id)
				}
			}
		}()
	}
	wg.Wait()
	if err := ctx.Err(); err != nil {
		return nil, err
	}

	res := &result{Workload: name, Attempted: n}
	admitted, rejected := 0, 0
	for _, j := range sent {
		switch {
		case j.transport != nil:
			res.addProblems(fmt.Sprintf("submit: %v", j.transport))
		case j.code == http.StatusTooManyRequests:
			rejected++
			res.addProblems("submit rejected with HTTP 429")
		case j.code != http.StatusAccepted:
			res.addProblems(fmt.Sprintf("submit: HTTP %d", j.code))
		case j.cancelErr != nil:
			admitted++
			res.addProblems(fmt.Sprintf("cancel: %v", j.cancelErr))
		default:
			admitted++
		}
	}
	// Wait until every admitted job is terminal, by vaschedd's counters so
	// that the wait adds no per-job requests.
	deadline := t0.Add(time.Duration(n)*period + terminalWait)
	var after *metrics.Scrape
	for {
		if after, err = s.scrape(); err != nil {
			return nil, err
		}
		if terminalJobs(after)-terminalJobs(before) >= float64(admitted) || time.Now().After(deadline) {
			break
		}
		time.Sleep(20 * time.Millisecond)
	}
	cpu1, err := s.cpuMS()
	if err != nil {
		return nil, err
	}

	// work_per_s counts the jobs done within the load window, so that a
	// service falling behind the offered rate lowers it.
	window := time.Duration(n) * period
	inWindow := 0
	var startLat, lat, queue, run, submit, poll []float64
	lagMax := time.Duration(0)
	for i, j := range sent {
		lagMax = max(lagMax, j.lag)
		if j.transport != nil || j.code != http.StatusAccepted {
			continue
		}
		submit = append(submit, ms(j.rtt))
		start := time.Now()
		v, err := s.await(j.id, deadline)
		poll = append(poll, ms(time.Since(start)))
		if err != nil {
			res.addProblems(err.Error())
			continue
		}
		if p := verify(v, plan[i], goldens); p != "" {
			res.addProblems(p)
			continue
		}
		if v.Status != "done" {
			continue // cancelled as planned
		}
		startLat = append(startLat, ms(v.Started.Sub(j.due)))
		lat = append(lat, ms(v.Finished.Sub(j.due)))
		queue = append(queue, ms(v.Started.Sub(v.Submitted)))
		run = append(run, ms(v.Finished.Sub(*v.Started)))
		if v.Finished.Sub(t0) <= window {
			inWindow++
		}
	}
	if len(lat) == 0 {
		return nil, fmt.Errorf("no job finished: %v", res.Problems)
	}
	s.stop()

	res.Metrics = map[string]float64{
		"setup_s":      setup,
		"work_per_s":   float64(inWindow) / window.Seconds(),
		"unit_ms_p50":  percentile(sortedCopy(startLat), 0.5),
		"unit_ms_tail": percentile(sortedCopy(lat), svcTail),
		"max_rss_mb":   s.maxRSSMB,
	}
	p := func(xs []float64, q float64) float64 { return percentile(sortedCopy(xs), q) }
	res.Layers = map[string]float64{
		"svc.submit.ms_p50":  p(submit, 0.5),
		"svc.submit.ms_p95":  p(submit, 0.95),
		"svc.queue.ms_p50":   p(queue, 0.5),
		"svc.queue.ms_p95":   p(queue, 0.95),
		"svc.run.ms_p50":     p(run, 0.5),
		"svc.run.ms_p95":     p(run, 0.95),
		"svc.poll.ms_p50":    p(poll, 0.5),
		"svc.decide.ms_p50":  decideMS(before, after, 0.5),
		"svc.decide.ms_p99":  decideMS(before, after, 0.99),
		"svc.cpu_ms_per_job": (cpu1 - cpu0) / float64(n),
		"svc.rejected_429":   float64(rejected),
		"loadgen.lag_ms_max": ms(lagMax),
	}
	return res, nil
}

// ms converts a duration to milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
