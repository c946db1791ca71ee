// Command vaschedload is the load-test harness and SLO gate for
// vaschedd: it drives a real coordinator (spawned, with an optional
// worker fleet — or an existing one via -target) with a seeded
// mixed-tenant workload across the three priority lanes and a spread of
// cheap and heavy experiments, spiced with mid-flight cancellations, a
// quota-burst phase that provokes 429 + Retry-After backpressure, and
// an injected SIGKILL-restart that exercises crash recovery under live
// client traffic.
//
// When the run drains it sweeps the paginated job list to prove no
// accepted job was lost, scrapes /metrics, estimates service-side
// p50/p95/p99 from the vaschedd_job_seconds and vaschedd_decide_seconds
// histogram buckets, computes exact client-side submit→terminal
// percentiles, and asserts the configured SLO thresholds — exiting
// non-zero on any violation, a failed job, or a lost job. It prints its
// report to standard output.
//
// Usage:
//
//	vaschedload [-jobs 1000] [-tenants 3] [-clients 16] [-seed 42]
//	            [-scale quick] [-rate-hz 0] [-cancel-frac 0.03]
//	            [-burst-frac 0.04] [-kill-at 0.4] [-cluster-workers 0]
//	            [-max-jobs 2] [-tenant-quota 16] [-lane-cap 64]
//	            [-timeout 10m]
//	            [-slo-client-p50 0] [-slo-client-p99 30]
//	            [-slo-job-p99 10] [-slo-decide-p99 1]
//	            [-target URL]
//
// The workload is a pure function of (-seed, -jobs, -tenants,
// -cancel-frac, -burst-frac): a failing run replays exactly from its
// seed. -target skips spawning (and disables -kill-at, which needs
// process control); SLO thresholds of 0 disable that assertion.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
	"time"

	"vasched/internal/metrics"
)

type runConfig struct {
	jobs, tenants, clients        int
	seed                          int64
	scale                         string
	rateHz                        float64
	cancelFrac, burstFrac, killAt float64
	clusterWorkers                int
	maxJobs, tenantQuota, laneCap int
	timeout                       time.Duration
	target                        string
	slo                           SLO
}

// Quantiles are latency percentiles in seconds.
type Quantiles struct {
	P50, P95, P99 float64
}

// SLO is the asserted thresholds (seconds; zero disables a threshold).
type SLO struct {
	ClientP50, ClientP99, JobP99, DecideP99 float64
}

// Counts are the run's outcome tallies. Lost must be zero: every job
// the harness got a 202 for must reach a terminal state, across any
// injected coordinator crash.
type Counts struct {
	Submitted, Done, Cancelled, Failed int64
	Rejected429, Retries, Restarts     int64
	Lost                               int64
}

// result is what one run delivered: the numbers the report prints and
// the SLO gate checks.
type result struct {
	DurationSec float64
	// JobsPerSec is terminal jobs over the measured wall clock.
	JobsPerSec float64
	SLO        SLO
	// Violations lists the failed SLO checks; the run passed without any.
	Violations []string

	// Latency sources: "client" is submit→terminal on the client's
	// clock (exact quantiles), "job" and "decide" are estimated from the
	// scraped vaschedd_job_seconds / vaschedd_decide_seconds buckets.
	Latency map[string]Quantiles

	Counts Counts

	// LaneDequeues are the scraped vaschedd_lane_dequeues_total wins per
	// lane — delivered fairness next to the configured 16/4/1 weights.
	LaneDequeues map[string]int64

	// PeakDepth is the largest sampled total of queued jobs, and
	// PeakLaneDepth the largest sampled depth of each lane.
	PeakDepth     int
	PeakLaneDepth map[string]int
}

func main() {
	if _, err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "vaschedload:", err)
		os.Exit(1)
	}
}

// run parses args, drives the run and prints its report. It returns the
// result of every run that got as far as measuring, with an error when
// an SLO check failed.
func run(args []string, stdout io.Writer) (*result, error) {
	fs := flag.NewFlagSet("vaschedload", flag.ContinueOnError)
	var cfg runConfig
	fs.IntVar(&cfg.jobs, "jobs", 1000, "total jobs in the mix")
	fs.IntVar(&cfg.tenants, "tenants", 3, "tenants the mix spreads across")
	fs.IntVar(&cfg.clients, "clients", 16, "concurrent closed-loop clients")
	fs.Int64Var(&cfg.seed, "seed", 42, "workload mix seed (same seed, same mix)")
	fs.StringVar(&cfg.scale, "scale", "quick", "experiment scale submitted with every job")
	fs.Float64Var(&cfg.rateHz, "rate-hz", 0, "open-loop submit rate; 0 runs pure closed-loop")
	fs.Float64Var(&cfg.cancelFrac, "cancel-frac", 0.03, "fraction of jobs cancelled mid-flight")
	fs.Float64Var(&cfg.burstFrac, "burst-frac", 0.04, "fraction of jobs slammed at one tenant to provoke 429s")
	fs.Float64Var(&cfg.killAt, "kill-at", 0.4, "SIGKILL+restart the coordinator when this fraction of jobs is terminal; 0 disables")
	fs.IntVar(&cfg.clusterWorkers, "cluster-workers", 0, "spawned cluster worker processes")
	fs.IntVar(&cfg.maxJobs, "max-jobs", 2, "coordinator -max-jobs (spawn mode)")
	fs.IntVar(&cfg.tenantQuota, "tenant-quota", 16, "coordinator -tenant-quota (spawn mode)")
	fs.IntVar(&cfg.laneCap, "lane-cap", 64, "coordinator -lane-cap (spawn mode)")
	fs.DurationVar(&cfg.timeout, "timeout", 10*time.Minute, "whole-run deadline")
	fs.StringVar(&cfg.target, "target", "", "existing coordinator base URL; empty spawns a fresh topology")
	fs.Float64Var(&cfg.slo.ClientP50, "slo-client-p50", 0, "client p50 SLO seconds; 0 disables")
	fs.Float64Var(&cfg.slo.ClientP99, "slo-client-p99", 30, "client p99 SLO seconds; 0 disables")
	fs.Float64Var(&cfg.slo.JobP99, "slo-job-p99", 10, "service job p99 SLO seconds; 0 disables")
	fs.Float64Var(&cfg.slo.DecideP99, "slo-decide-p99", 1, "scheduler decide p99 SLO seconds; 0 disables")
	fs.SetOutput(stdout)
	if err := fs.Parse(args); err != nil {
		return nil, err
	}
	if fs.NArg() > 0 {
		return nil, fmt.Errorf("unexpected arguments: %v", fs.Args())
	}
	if cfg.jobs <= 0 || cfg.tenants <= 0 || cfg.clients <= 0 {
		return nil, fmt.Errorf("-jobs, -tenants and -clients must be positive")
	}

	ctx, cancel := context.WithTimeout(context.Background(), cfg.timeout)
	defer cancel()

	// Topology: attach to -target, or spawn coordinator (+workers).
	var cl *cluster
	tgt := newTarget(cfg.target)
	if cfg.target == "" {
		workDir, err := os.MkdirTemp("", "vaschedload-*")
		if err != nil {
			return nil, err
		}
		defer os.RemoveAll(workDir)
		fmt.Fprintf(stdout, "vaschedload: building vaschedd and spawning coordinator (+%d workers)\n", cfg.clusterWorkers)
		if cl, err = startCluster(cfg, workDir); err != nil {
			return nil, err
		}
		defer cl.stop()
		tgt.set(cl.coord.url)
	} else if cfg.killAt > 0 {
		fmt.Fprintln(stdout, "vaschedload: -target set: disabling -kill-at (needs process control)")
		cfg.killAt = 0
	}

	specs := buildMix(cfg.seed, cfg.jobs, cfg.tenants, cfg.cancelFrac, cfg.burstFrac)
	sum := mixSummary(specs)
	fmt.Fprintf(stdout, "vaschedload: %d jobs, %d tenants, %d clients, seed %d (%s)\n",
		cfg.jobs, cfg.tenants, cfg.clients, cfg.seed, summaryLine(sum, "exp:"))
	fmt.Fprintf(stdout, "vaschedload: lanes %s, cancels %d, burst %d, kill-at %.0f%%\n",
		summaryLine(sum, "lane:"), sum["cancel"], sum["burst"], cfg.killAt*100)

	d := newDriver(cfg, tgt)
	sampleCtx, stopSampling := context.WithCancel(ctx)
	go d.sampleDepths(sampleCtx, 500*time.Millisecond)
	if cfg.killAt > 0 && cl != nil {
		go d.injectCrash(ctx, cl, cfg.killAt, cfg.jobs)
	}

	start := time.Now()
	driveErr := d.drive(ctx, specs)
	elapsed := time.Since(start)
	stopSampling()
	if driveErr != nil {
		return nil, driveErr
	}

	// Zero-lost sweep: every accepted ID must be terminal in the
	// paginated listing, across any injected crash.
	lost, err := d.sweepLost(ctx)
	if err != nil {
		return nil, fmt.Errorf("lost-job sweep: %w", err)
	}

	// Service-side percentiles from the final scrape.
	sc, err := d.scrape(ctx)
	if err != nil {
		return nil, fmt.Errorf("final metrics scrape: %w", err)
	}
	latency := map[string]Quantiles{"client": d.tally.quantiles()}
	for family, key := range map[string]string{
		"vaschedd_job_seconds":    "job",
		"vaschedd_decide_seconds": "decide",
	} {
		if h, ok := sc.Histogram(family); ok {
			latency[key] = Quantiles{
				P50: h.Quantile(0.50), P95: h.Quantile(0.95), P99: h.Quantile(0.99),
			}
		}
	}
	laneDequeues := map[string]int64{}
	for labels, v := range sc.Series("vaschedd_lane_dequeues_total") {
		if lane, ok := metrics.LabelValue(labels, "lane"); ok {
			laneDequeues[lane] = int64(v)
		}
	}

	res := &result{
		DurationSec: elapsed.Seconds(),
		SLO:         cfg.slo,
		Latency:     latency,
		Counts: Counts{
			Submitted:   d.tally.submitted.Load(),
			Done:        d.tally.done.Load(),
			Cancelled:   d.tally.cancelled.Load(),
			Failed:      d.tally.failed.Load(),
			Rejected429: d.tally.rejected429.Load(),
			Retries:     d.tally.retries.Load(),
			Restarts:    d.tally.restarts.Load(),
			Lost:        int64(len(lost)),
		},
		LaneDequeues:  laneDequeues,
		PeakLaneDepth: map[string]int{},
	}
	// The sampler may still be finishing a scrape: copy under its lock.
	d.depthMu.Lock()
	res.PeakDepth = d.peakDepth
	for lane, n := range d.peakLaneDepth {
		res.PeakLaneDepth[lane] = n
	}
	d.depthMu.Unlock()
	terminal := res.Counts.Done + res.Counts.Cancelled + res.Counts.Failed
	if elapsed > 0 {
		res.JobsPerSec = float64(terminal) / elapsed.Seconds()
	}

	res.Violations = evalSLO(res, lost)
	report(stdout, res)
	if len(res.Violations) > 0 {
		return res, fmt.Errorf("SLO gate failed: %s", strings.Join(res.Violations, "; "))
	}
	return res, nil
}

// evalSLO checks the hard invariants (nothing lost, nothing failed, the
// fault mix actually fired) and every configured latency threshold.
func evalSLO(s *result, lost []uint64) []string {
	var v []string
	if n := len(lost); n > 0 {
		show := lost
		if len(show) > 8 {
			show = show[:8]
		}
		v = append(v, fmt.Sprintf("%d accepted job(s) lost or non-terminal (e.g. %v)", n, show))
	}
	if s.Counts.Failed > 0 {
		v = append(v, fmt.Sprintf("%d job(s) failed", s.Counts.Failed))
	}
	check := func(name string, got, want float64) {
		if want > 0 && got > want {
			v = append(v, fmt.Sprintf("%s %.3fs > %.3fs", name, got, want))
		}
	}
	check("client p50", s.Latency["client"].P50, s.SLO.ClientP50)
	check("client p99", s.Latency["client"].P99, s.SLO.ClientP99)
	check("job p99", s.Latency["job"].P99, s.SLO.JobP99)
	check("decide p99", s.Latency["decide"].P99, s.SLO.DecideP99)
	return v
}

// report renders the human summary.
func report(w io.Writer, s *result) {
	c := s.Counts
	fmt.Fprintf(w, "vaschedload: %d submitted: %d done, %d cancelled, %d failed; %d 429s, %d retries, %d restart(s), %d lost\n",
		c.Submitted, c.Done, c.Cancelled, c.Failed, c.Rejected429, c.Retries, c.Restarts, c.Lost)
	for _, src := range []string{"client", "job", "decide"} {
		if q, ok := s.Latency[src]; ok {
			fmt.Fprintf(w, "vaschedload: %-6s p50/p95/p99 = %.3fs / %.3fs / %.3fs\n", src, q.P50, q.P95, q.P99)
		}
	}
	if len(s.LaneDequeues) > 0 {
		fmt.Fprintf(w, "vaschedload: lane dequeues (weights %s): %s\n", laneWeightString(), laneCounts(s.LaneDequeues))
	}
	if len(s.PeakLaneDepth) > 0 {
		fmt.Fprintf(w, "vaschedload: peak queue depth %d (%s)\n", s.PeakDepth, laneCounts(s.PeakLaneDepth))
	}
	fmt.Fprintf(w, "vaschedload: %.1f jobs/s over %.1fs\n", s.JobsPerSec, s.DurationSec)
	if len(s.Violations) == 0 {
		fmt.Fprintln(w, "vaschedload: SLO PASS")
		return
	}
	for _, v := range s.Violations {
		fmt.Fprintf(w, "vaschedload: SLO VIOLATION: %s\n", v)
	}
}

// laneCounts renders per-lane counts sorted by lane, e.g.
// "batch 1, control 16, interactive 4".
func laneCounts[T int | int64](m map[string]T) string {
	lanes := make([]string, 0, len(m))
	for lane := range m {
		lanes = append(lanes, lane)
	}
	sort.Strings(lanes)
	parts := make([]string, len(lanes))
	for i, lane := range lanes {
		parts[i] = fmt.Sprintf("%s %d", lane, m[lane])
	}
	return strings.Join(parts, ", ")
}

// summaryLine renders the mix tallies sharing a prefix, sorted by count
// descending, e.g. "table5 580, sann 220, ...".
func summaryLine(sum map[string]int, prefix string) string {
	type kv struct {
		k string
		v int
	}
	var items []kv
	for k, v := range sum {
		if strings.HasPrefix(k, prefix) {
			items = append(items, kv{strings.TrimPrefix(k, prefix), v})
		}
	}
	sort.Slice(items, func(i, j int) bool {
		if items[i].v != items[j].v {
			return items[i].v > items[j].v
		}
		return items[i].k < items[j].k
	})
	parts := make([]string, len(items))
	for i, it := range items {
		parts[i] = fmt.Sprintf("%s %d", it.k, it.v)
	}
	return strings.Join(parts, ", ")
}
