package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/pprof"
	"os"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"vasched"
	"vasched/internal/adapt"
	"vasched/internal/cluster"
	"vasched/internal/experiments"
	"vasched/internal/jobstore"
	"vasched/internal/metrics"
	"vasched/internal/tenant"
	"vasched/internal/trace"
)

// defaultListLimit bounds GET /v1/jobs pages when ?limit= is absent.
const defaultListLimit = 100

// defaultTenant is the tenant charged when a request carries no
// X-Tenant header.
const defaultTenant = "default"

// Cancellation causes, distinguished in finish: a user cancel persists
// a cancelled completion, a drain cancel leaves the claim open so the
// next lifetime's replay re-queues the job.
var (
	errUserCancel  = errors.New("cancelled by client")
	errDrainCancel = errors.New("requeued by graceful shutdown")
)

// serverConfig assembles a coordinator. Zero fields take documented
// defaults.
type serverConfig struct {
	// MaxJobs bounds concurrently running experiments (default 1).
	MaxJobs int
	// Workers is the per-job die-farm goroutine count.
	Workers int
	// WorkerURLs, when non-empty, shards kernel die loops across the
	// named cluster workers.
	WorkerURLs []string
	// CoordID names this coordinator in claim leases and the epoch
	// record (default "vaschedd-<pid>").
	CoordID string
	// DataDir is the WAL directory; empty runs the store in memory
	// (no durability). Ignored when Store is set.
	DataDir string
	// Fsync syncs the WAL after every append.
	Fsync bool
	// Store, when set, is a pre-opened job store the server attaches
	// to instead of opening DataDir — how tests model two coordinator
	// pods sharing one log. The caller keeps ownership: Shutdown will
	// not close it.
	Store *jobstore.Store
	// TenantQuota caps each tenant's open (queued+running) jobs.
	TenantQuota int
	// LaneCapacity caps each priority lane's queue depth.
	LaneCapacity int
	// RetryAfter is the backoff hint attached to 429 responses.
	RetryAfter time.Duration
}

// jobView is the JSON shape served for a job.
type jobView struct {
	ID         uint64          `json:"id"`
	Tenant     string          `json:"tenant"`
	Lane       string          `json:"lane"`
	Experiment string          `json:"experiment"`
	Scale      string          `json:"scale"`
	Workers    int             `json:"workers"`
	Status     string          `json:"status"`
	Params     json.RawMessage `json:"params,omitempty"`
	Error      string          `json:"error,omitempty"`
	Requeues   int             `json:"requeues,omitempty"`
	Submitted  time.Time       `json:"submitted"`
	Started    *time.Time      `json:"started,omitempty"`
	Finished   *time.Time      `json:"finished,omitempty"`
	ElapsedSec float64         `json:"elapsed_seconds,omitempty"`
	Result     json.RawMessage `json:"result,omitempty"`
	Rendered   string          `json:"rendered,omitempty"`
}

// server is the coordinator: admission-controlled submits feed the
// durable job store, a dispatcher drains the lane queues into the
// concurrency semaphore, and every store write is fenced by the epoch
// acquired at boot.
type server struct {
	coordID string
	epoch   uint64
	workers int
	store   *jobstore.Store
	// ownsStore: Shutdown closes the store only if this server opened
	// it (a shared store belongs to the caller).
	ownsStore bool
	adm       *tenant.Controller
	sem       chan struct{}
	reg       *metrics.Registry
	// tracer ring-buffers spans from every job (farm fan-out, cluster
	// dispatch, pm decisions); /debug/trace serves them as Chrome JSON.
	tracer *trace.Tracer
	// clust, when non-nil, shards every kernel-based die loop across the
	// configured worker processes (-workers). Its counters land in reg, so
	// /metrics shows coordinator and cluster health side by side.
	clust *cluster.Client

	// runCtx parents every job context and the dispatcher; runCancel
	// fires only at the end of Shutdown, after the drain window.
	runCtx    context.Context
	runCancel context.CancelFunc
	// wake nudges the dispatcher after a submit or a freed slot.
	wake chan struct{}
	// fenced flips once a store write returns ErrStaleEpoch: another
	// coordinator superseded this one. The server stops claiming and
	// reports 503 on /healthz and submits.
	fenced atomic.Bool

	// admitMu serialises quota check → WAL append → enqueue so
	// concurrent submits cannot oversubscribe a tenant between the
	// check and the charge.
	admitMu sync.Mutex

	mu sync.Mutex
	// cancels holds the cancel funcs of running jobs, keyed by job ID.
	cancels  map[uint64]context.CancelCauseFunc
	draining bool
	wg       sync.WaitGroup // running job goroutines
	dispWG   sync.WaitGroup // the dispatcher
}

func newServer(cfg serverConfig) (*server, error) {
	if cfg.MaxJobs <= 0 {
		cfg.MaxJobs = 1
	}
	if cfg.CoordID == "" {
		cfg.CoordID = fmt.Sprintf("vaschedd-%d", os.Getpid())
	}
	s := &server{
		coordID: cfg.CoordID,
		workers: cfg.Workers,
		sem:     make(chan struct{}, cfg.MaxJobs),
		reg:     metrics.NewRegistry(),
		tracer:  trace.New(trace.DefaultCapacity),
		wake:    make(chan struct{}, 1),
		cancels: make(map[uint64]context.CancelCauseFunc),
		adm: tenant.NewController(tenant.Config{
			MaxOpenPerTenant: cfg.TenantQuota,
			LaneCapacity:     cfg.LaneCapacity,
			RetryAfter:       cfg.RetryAfter,
		}),
	}
	s.runCtx, s.runCancel = context.WithCancel(context.Background())
	if len(cfg.WorkerURLs) > 0 {
		s.clust = cluster.NewClient(cfg.WorkerURLs, cluster.Options{Metrics: s.reg})
	}

	s.store = cfg.Store
	if s.store == nil {
		_, span := trace.Start(trace.WithTracer(context.Background(), s.tracer), "jobstore.replay",
			trace.String("dir", cfg.DataDir))
		st, err := jobstore.Open(jobstore.Options{Dir: cfg.DataDir, Fsync: cfg.Fsync})
		span.End()
		if err != nil {
			s.runCancel()
			return nil, fmt.Errorf("open job store: %w", err)
		}
		s.store = st
		s.ownsStore = true
	}
	epoch, err := s.store.AcquireEpoch(s.coordID)
	if err != nil {
		if s.ownsStore {
			s.store.Close()
		}
		s.runCancel()
		return nil, fmt.Errorf("acquire epoch: %w", err)
	}
	s.epoch = epoch

	// Replay evidence on /metrics: how the previous lifetime ended and
	// how much work came back.
	st := s.store.Stats()
	if st.CrashRecovered {
		s.reg.Gauge("vaschedd_crash_recovered").Set(1)
	}
	s.reg.Gauge("vaschedd_replay_records").Set(int64(st.Records))
	s.reg.Gauge("vaschedd_replay_requeued").Set(int64(st.Requeued))
	s.reg.Gauge("vaschedd_epoch").Set(int64(epoch))

	// Re-enqueue surviving work: everything queued, plus running jobs
	// whose lease this epoch just fenced. Requeue bypasses quota —
	// these jobs were admitted in a previous lifetime.
	for _, j := range s.store.Reclaimable(epoch) {
		s.adm.Requeue(tenant.Item{ID: j.ID, Tenant: j.Tenant, Lane: j.Lane})
	}
	s.updateLaneGauges()

	s.dispWG.Add(1)
	go s.dispatch()
	s.kick()
	return s, nil
}

// kick nudges the dispatcher without blocking.
func (s *server) kick() {
	select {
	case s.wake <- struct{}{}:
	default:
	}
}

// fence marks this coordinator superseded. No further claims are made;
// /healthz and submits answer 503 so a load balancer drains it.
func (s *server) fence() {
	if s.fenced.CompareAndSwap(false, true) {
		s.reg.Counter("vaschedd_fenced_total").Inc()
	}
}

// dispatch is the scheduling loop: one slot from the semaphore, one
// item from the weighted lane queues, one claim in the store, one run
// goroutine. It exits when the server shuts down or is fenced.
func (s *server) dispatch() {
	defer s.dispWG.Done()
	for {
		select {
		case <-s.runCtx.Done():
			return
		case <-s.wake:
		}
		for {
			if s.fenced.Load() || s.stopping() {
				return
			}
			select {
			case s.sem <- struct{}{}:
			case <-s.runCtx.Done():
				return
			}
			// Re-check after a potentially long wait for a slot: a drain
			// that started meanwhile must not claim fresh work.
			if s.fenced.Load() || s.stopping() {
				<-s.sem
				return
			}
			it, ok := s.adm.Dequeue()
			if !ok {
				<-s.sem
				break // all lanes empty: back to waiting for a kick
			}
			// Delivered fairness: which lane won this contested slot. The
			// counter ratio across lanes is what the load-test harness
			// checks against the configured 16/4/1 weights.
			s.reg.Counter(fmt.Sprintf("vaschedd_lane_dequeues_total{lane=%q}", it.Lane)).Inc()
			s.updateLaneGauges()
			j, err := s.store.Claim(it.ID, s.coordID, s.epoch)
			if err != nil {
				<-s.sem
				if errors.Is(err, jobstore.ErrStaleEpoch) {
					s.fence()
					return
				}
				// The job left the queued state between dequeue and
				// claim (cancelled): drop it and release its charge.
				s.adm.Release(it.Tenant)
				continue
			}
			jobCtx, cancel := context.WithCancelCause(s.runCtx)
			s.mu.Lock()
			if s.draining {
				// Shutdown won the race: undo the claim in memory (the
				// open claim in the log re-queues it on replay).
				s.mu.Unlock()
				cancel(errDrainCancel)
				s.store.Requeue(j.ID)
				<-s.sem
				return
			}
			s.cancels[j.ID] = cancel
			s.wg.Add(1)
			s.mu.Unlock()
			go s.run(jobCtx, cancel, j)
		}
	}
}

func (s *server) stopping() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.draining
}

func (s *server) updateLaneGauges() {
	d := s.adm.Depths()
	for l := 0; l < tenant.NumLanes; l++ {
		s.reg.Gauge(fmt.Sprintf("vaschedd_lane_depth{lane=%q}", tenant.Lane(l))).Set(int64(d[l]))
	}
}

func (s *server) routes() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/jobs", s.handleSubmit)
	mux.HandleFunc("GET /v1/jobs", s.handleList)
	mux.HandleFunc("GET /v1/jobs/{id}", s.handleGet)
	mux.HandleFunc("DELETE /v1/jobs/{id}", s.handleCancel)
	mux.HandleFunc("GET /v1/experiments", s.handleExperiments)
	mux.HandleFunc("GET /v1/cluster", s.handleCluster)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	return mux
}

type submitRequest struct {
	Experiment string `json:"experiment"`
	Scale      string `json:"scale,omitempty"`
	Workers    int    `json:"workers,omitempty"`
	Lane       string `json:"lane,omitempty"`
	// Adaptive selects adaptive stratified sampling for ext-adapt (the
	// only experiment that honours it; other ids are rejected). The
	// config is persisted with the job, so a crash-replayed run re-uses
	// the exact options, and the frozen round schedule makes the re-run
	// byte-identical.
	Adaptive *experiments.AdaptiveConfig `json:"adaptive,omitempty"`
}

// maxSubmitBytes bounds a submit body. The largest legitimate request, an
// ext-adapt job with every adaptive option set, is a few hundred bytes.
const maxSubmitBytes = 64 << 10

func (s *server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	if s.fenced.Load() {
		httpError(w, http.StatusServiceUnavailable, "coordinator superseded by a newer epoch")
		return
	}
	// The body is exactly one submitRequest object: unknown fields and
	// anything but whitespace after the object are rejected.
	var req submitRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxSubmitBytes))
	dec.DisallowUnknownFields()
	err := dec.Decode(&req)
	if err == nil {
		if _, err = dec.Token(); errors.Is(err, io.EOF) {
			err = nil
		} else if err == nil {
			err = errors.New("trailing data after the JSON object")
		}
	}
	var tooBig *http.MaxBytesError
	if errors.As(err, &tooBig) {
		httpError(w, http.StatusRequestEntityTooLarge, "request body exceeds %d bytes", tooBig.Limit)
		return
	}
	if err != nil {
		httpError(w, http.StatusBadRequest, "invalid JSON body: %v", err)
		return
	}
	known := false
	for _, id := range vasched.ExperimentIDs() {
		if id == req.Experiment {
			known = true
			break
		}
	}
	if !known {
		httpError(w, http.StatusBadRequest, "unknown experiment %q (see /v1/experiments)", req.Experiment)
		return
	}
	scale := vasched.Scale(req.Scale)
	if scale == "" {
		scale = vasched.ScaleQuick
	}
	if scale != vasched.ScaleQuick && scale != vasched.ScaleDefault {
		httpError(w, http.StatusBadRequest, "unknown scale %q (quick or default)", req.Scale)
		return
	}
	lane, err := tenant.ParseLane(req.Lane)
	if err != nil {
		httpError(w, http.StatusBadRequest, "%v", err)
		return
	}
	var params []byte
	if req.Adaptive != nil {
		if req.Experiment != "ext-adapt" {
			httpError(w, http.StatusBadRequest, "adaptive sampling is only supported by ext-adapt, not %q", req.Experiment)
			return
		}
		if m := req.Adaptive.Metric; m != "" {
			known := false
			for _, id := range experiments.AdaptiveMetrics() {
				if id == m {
					known = true
					break
				}
			}
			if !known {
				httpError(w, http.StatusBadRequest, "unknown adaptive metric %q (one of %v)", m, experiments.AdaptiveMetrics())
				return
			}
		}
		if params, err = json.Marshal(req.Adaptive); err != nil {
			httpError(w, http.StatusBadRequest, "adaptive config: %v", err)
			return
		}
	}
	ten := r.Header.Get("X-Tenant")
	if ten == "" {
		ten = defaultTenant
	}
	if len(ten) > 128 {
		httpError(w, http.StatusBadRequest, "X-Tenant longer than 128 bytes")
		return
	}
	workers := req.Workers
	if workers <= 0 {
		workers = s.workers
	}

	// Admission and the durable submit are one serialised step, so two
	// racing submits cannot both pass the quota check and oversubscribe
	// the tenant between check and charge.
	s.admitMu.Lock()
	if s.stopping() {
		s.admitMu.Unlock()
		httpError(w, http.StatusServiceUnavailable, "coordinator is shutting down")
		return
	}
	if err := s.adm.Check(ten, lane); err != nil {
		s.admitMu.Unlock()
		s.writeBackpressure(w, err)
		return
	}
	_, span := trace.Start(trace.WithTracer(r.Context(), s.tracer), "job.submit",
		trace.String("tenant", ten), trace.String("lane", lane.String()),
		trace.String("experiment", req.Experiment))
	j, err := s.store.Submit(jobstore.Spec{
		Tenant:     ten,
		Lane:       lane,
		Experiment: req.Experiment,
		Scale:      string(scale),
		Workers:    workers,
		Params:     params,
	})
	span.End()
	if err != nil {
		s.admitMu.Unlock()
		httpError(w, http.StatusInternalServerError, "persist job: %v", err)
		return
	}
	s.adm.Requeue(tenant.Item{ID: j.ID, Tenant: ten, Lane: lane})
	s.admitMu.Unlock()

	s.updateLaneGauges()
	s.reg.Counter("vaschedd_jobs_submitted_total").Inc()
	s.reg.Counter(`vaschedd_admission_total{decision="admitted"}`).Inc()
	s.kick()

	v, _ := s.view(j.ID)
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusAccepted)
	json.NewEncoder(w).Encode(v)
}

// writeBackpressure maps admission errors to 429 + Retry-After.
func (s *server) writeBackpressure(w http.ResponseWriter, err error) {
	var qe *tenant.QuotaError
	var lf *tenant.LaneFullError
	switch {
	case errors.As(err, &qe):
		s.reg.Counter(`vaschedd_admission_total{decision="quota"}`).Inc()
		w.Header().Set("Retry-After", strconv.Itoa(int(qe.RetryAfter/time.Second)))
		httpError(w, http.StatusTooManyRequests, "%v", err)
	case errors.As(err, &lf):
		s.reg.Counter(`vaschedd_admission_total{decision="lane_full"}`).Inc()
		w.Header().Set("Retry-After", strconv.Itoa(int(lf.RetryAfter/time.Second)))
		httpError(w, http.StatusTooManyRequests, "%v", err)
	default:
		httpError(w, http.StatusBadRequest, "%v", err)
	}
}

// run executes one claimed job with the job's context threaded through
// the farm engine, then records the outcome.
func (s *server) run(ctx context.Context, cancel context.CancelCauseFunc, j jobstore.Job) {
	defer s.wg.Done()
	defer func() {
		<-s.sem
		s.kick()
	}()
	defer cancel(nil)

	opts := []vasched.RunOption{
		vasched.WithWorkers(j.Workers),
		vasched.WithContext(trace.WithTracer(ctx, s.tracer)),
		vasched.WithDecideHist(s.reg.Histogram(
			fmt.Sprintf("vaschedd_decide_seconds{experiment=%q}", j.Experiment))),
	}
	if s.clust != nil {
		opts = append(opts, vasched.WithCluster(s.clust))
	}
	if len(j.Params) > 0 {
		var cfg experiments.AdaptiveConfig
		if err := json.Unmarshal(j.Params, &cfg); err != nil {
			s.finish(j, nil, fmt.Errorf("decode job params: %w", err), context.Cause(ctx))
			return
		}
		cfg.Progress = s.adaptProgress(j.Experiment)
		opts = append(opts, vasched.WithAdaptive(cfg))
	}
	res, err := vasched.RunExperimentResult(j.Experiment, vasched.Scale(j.Scale), opts...)
	s.finish(j, res, err, context.Cause(ctx))
}

// adaptProgress returns a per-round callback that mirrors an adaptive
// run's convergence onto /metrics: rounds completed, dies evaluated, and
// the current vs target CI half-width. Gauges are labeled by experiment
// (bounded cardinality), so they show the most recent adaptive run —
// enough for operators and load tests to watch convergence live.
func (s *server) adaptProgress(experiment string) func(adapt.Status) {
	rounds := s.reg.Gauge(fmt.Sprintf("vaschedd_adapt_rounds{experiment=%q}", experiment))
	dies := s.reg.Gauge(fmt.Sprintf("vaschedd_adapt_dies_evaluated{experiment=%q}", experiment))
	half := s.reg.FloatGauge(fmt.Sprintf("vaschedd_adapt_half_width{experiment=%q}", experiment))
	target := s.reg.FloatGauge(fmt.Sprintf("vaschedd_adapt_target_half_width{experiment=%q}", experiment))
	return func(st adapt.Status) {
		rounds.Set(int64(st.Round))
		dies.Set(int64(st.Evaluated))
		half.Set(st.HalfWidth)
		target.Set(st.Target)
	}
}

// finish persists a job outcome and its metrics. A drain cancellation
// is the exception: the claim is left open in the log (replay will
// re-queue the job) and only the in-memory view is reset.
func (s *server) finish(j jobstore.Job, res vasched.ExperimentResult, err, cause error) {
	s.mu.Lock()
	delete(s.cancels, j.ID)
	s.mu.Unlock()

	var status jobstore.Status
	var errMsg, rendered string
	var resultJSON []byte
	switch {
	case err == nil:
		status = jobstore.StatusDone
		rendered = res.Render()
		var mErr error
		resultJSON, mErr = json.Marshal(res)
		if mErr != nil {
			status, errMsg = jobstore.StatusFailed, fmt.Sprintf("marshal result: %v", mErr)
			rendered, resultJSON = "", nil
		}
	case errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded):
		if errors.Is(cause, errDrainCancel) {
			s.store.Requeue(j.ID)
			s.reg.Counter("vaschedd_drain_requeued_total").Inc()
			return
		}
		status = jobstore.StatusCancelled
		errMsg = err.Error()
	default:
		status = jobstore.StatusFailed
		errMsg = err.Error()
	}

	cerr := s.store.Complete(j.ID, s.coordID, s.epoch, status, errMsg, rendered, resultJSON)
	if cerr != nil {
		if errors.Is(cerr, jobstore.ErrStaleEpoch) {
			// A newer coordinator owns the log now; our result is void.
			s.fence()
			return
		}
		fmt.Fprintf(os.Stderr, "vaschedd: persist completion of job %d: %v\n", j.ID, cerr)
		return
	}
	s.adm.Release(j.Tenant)

	s.reg.Counter(fmt.Sprintf("vaschedd_jobs_total{status=%q}", status)).Inc()
	if status == jobstore.StatusDone {
		if g, ok := s.store.Get(j.ID); ok && !g.Started.IsZero() {
			s.reg.Histogram(fmt.Sprintf("vaschedd_job_seconds{experiment=%q}", j.Experiment)).
				Observe(g.Finished.Sub(g.Started).Seconds())
		}
	}
}

func (s *server) handleList(w http.ResponseWriter, r *http.Request) {
	limit := defaultListLimit
	if q := r.URL.Query().Get("limit"); q != "" {
		n, err := strconv.Atoi(q)
		if err != nil || n <= 0 {
			httpError(w, http.StatusBadRequest, "bad limit %q (positive integer)", q)
			return
		}
		limit = n
	}
	var after uint64
	if q := r.URL.Query().Get("after"); q != "" {
		n, err := strconv.ParseUint(q, 10, 64)
		if err != nil || n == 0 {
			httpError(w, http.StatusBadRequest, "bad after cursor %q (job id)", q)
			return
		}
		// An unknown cursor would silently restart the page from the
		// newest job — a paginating client would re-see (or miss) pages
		// without noticing. Jobs are never deleted, so a cursor that is
		// not a known job ID is a client bug: reject it.
		if _, ok := s.store.Get(n); !ok {
			httpError(w, http.StatusBadRequest, "unknown after cursor %d (not an existing job id)", n)
			return
		}
		after = n
	}
	jobs := s.store.List(after, limit)
	views := make([]jobView, 0, len(jobs))
	for _, j := range jobs {
		views = append(views, viewOf(j))
	}
	writeJSON(w, views)
}

func (s *server) handleGet(w http.ResponseWriter, r *http.Request) {
	id, err := strconv.ParseUint(r.PathValue("id"), 10, 64)
	if err != nil {
		httpError(w, http.StatusBadRequest, "bad job id %q", r.PathValue("id"))
		return
	}
	v, ok := s.view(id)
	if !ok {
		httpError(w, http.StatusNotFound, "no job %d", id)
		return
	}
	writeJSON(w, v)
}

func (s *server) handleCancel(w http.ResponseWriter, r *http.Request) {
	id, err := strconv.ParseUint(r.PathValue("id"), 10, 64)
	if err != nil {
		httpError(w, http.StatusBadRequest, "bad job id %q", r.PathValue("id"))
		return
	}
	j, ok := s.store.Get(id)
	if !ok {
		httpError(w, http.StatusNotFound, "no job %d", id)
		return
	}
	switch j.Status {
	case jobstore.StatusQueued:
		if err := s.store.Cancel(id, s.coordID, s.epoch); err != nil {
			if errors.Is(err, jobstore.ErrStaleEpoch) {
				s.fence()
				httpError(w, http.StatusServiceUnavailable, "coordinator superseded by a newer epoch")
				return
			}
			// Claimed or completed in the meantime: fall through to the
			// running-job path via a fresh snapshot.
			if cur, ok := s.store.Get(id); ok && cur.Status == jobstore.StatusRunning {
				s.cancelRunning(id)
			}
		} else {
			// If the dispatcher already dequeued the item, its failed
			// claim releases the charge; otherwise Remove does.
			s.adm.Remove(id)
			s.updateLaneGauges()
			s.reg.Counter(fmt.Sprintf("vaschedd_jobs_total{status=%q}", jobstore.StatusCancelled)).Inc()
		}
	case jobstore.StatusRunning:
		s.cancelRunning(id)
	default:
		// Terminal: cancel is a no-op, return the state as-is.
	}
	v, _ := s.view(id)
	writeJSON(w, v)
}

// cancelRunning fires a running job's cancel cause; the job reaches
// the cancelled state through its own finish.
func (s *server) cancelRunning(id uint64) {
	s.mu.Lock()
	cancel := s.cancels[id]
	s.mu.Unlock()
	if cancel != nil {
		cancel(errUserCancel)
	}
}

func (s *server) handleExperiments(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, map[string]any{"experiments": vasched.ExperimentIDs()})
}

func (s *server) handleCluster(w http.ResponseWriter, r *http.Request) {
	if s.clust == nil {
		writeJSON(w, map[string]any{"enabled": false})
		return
	}
	writeJSON(w, map[string]any{"enabled": true, "workers": s.clust.Workers()})
}

func (s *server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if s.fenced.Load() {
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusServiceUnavailable)
		json.NewEncoder(w).Encode(map[string]any{
			"status": "fenced", "coordinator": s.coordID, "epoch": s.epoch,
		})
		return
	}
	writeJSON(w, map[string]any{"status": "ok", "coordinator": s.coordID, "epoch": s.epoch})
}

func (s *server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	st := experiments.SharedDieCacheStatsFull()
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	fmt.Fprintf(w, "# TYPE vaschedd_die_cache_hits_total counter\nvaschedd_die_cache_hits_total %d\n", st.Hits)
	fmt.Fprintf(w, "# TYPE vaschedd_die_cache_misses_total counter\nvaschedd_die_cache_misses_total %d\n", st.Misses)
	fmt.Fprintf(w, "# TYPE vaschedd_die_cache_disk_hits_total counter\nvaschedd_die_cache_disk_hits_total %d\n", st.DiskHits)
	fmt.Fprintf(w, "# TYPE vaschedd_die_cache_corrupt_blobs_total counter\nvaschedd_die_cache_corrupt_blobs_total %d\n", st.CorruptBlobs)
	fmt.Fprintf(w, "# TYPE vaschedd_die_cache_disk_read_bytes_total counter\nvaschedd_die_cache_disk_read_bytes_total %d\n", st.BytesRead)
	fmt.Fprintf(w, "# TYPE vaschedd_die_cache_disk_written_bytes_total counter\nvaschedd_die_cache_disk_written_bytes_total %d\n", st.BytesWritten)
	fmt.Fprint(w, s.reg.Render())
}

// debugMux is the operator-only debug surface (-debug-addr): pprof
// profiles plus the collected spans as Chrome trace_event JSON. It is a
// separate listener so profiling and trace dumps never ride the job API's
// address (or its exposure).
func (s *server) debugMux() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /debug/trace", s.handleDebugTrace)
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// handleDebugTrace dumps the span ring buffer in Chrome trace_event
// format — load it in chrome://tracing or Perfetto.
func (s *server) handleDebugTrace(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	trace.WriteChrome(w, s.tracer.Snapshot())
}

// probeLoop health-checks the cluster workers until ctx is cancelled, so
// a worker that dies between jobs is already marked unavailable when the
// next job dispatches.
func (s *server) probeLoop(ctx context.Context, every time.Duration) {
	tick := time.NewTicker(every)
	defer tick.Stop()
	for {
		s.clust.ProbeAll(ctx)
		select {
		case <-tick.C:
		case <-ctx.Done():
			return
		}
	}
}

func viewOf(j jobstore.Job) jobView {
	v := jobView{
		ID:         j.ID,
		Tenant:     j.Tenant,
		Lane:       j.Lane.String(),
		Experiment: j.Experiment,
		Scale:      j.Scale,
		Workers:    j.Workers,
		Status:     string(j.Status),
		Params:     json.RawMessage(j.Params),
		Error:      j.Error,
		Requeues:   j.Requeues,
		Submitted:  j.Submitted,
		Rendered:   j.Rendered,
		Result:     json.RawMessage(j.Result),
	}
	if !j.Started.IsZero() {
		t := j.Started
		v.Started = &t
		end := j.Finished
		if end.IsZero() {
			end = time.Now()
		}
		v.ElapsedSec = end.Sub(t).Seconds()
	}
	if !j.Finished.IsZero() {
		t := j.Finished
		v.Finished = &t
	}
	return v
}

// view snapshots a job for serialisation.
func (s *server) view(id uint64) (jobView, bool) {
	j, ok := s.store.Get(id)
	if !ok {
		return jobView{}, false
	}
	return viewOf(j), true
}

// Shutdown drains the coordinator: new submits are refused, in-flight
// jobs get until ctx expires to finish (then they are cancelled and
// re-queued for the next lifetime), and the log is sealed with a
// clean-shutdown record so the next replay knows this was not a crash.
func (s *server) Shutdown(ctx context.Context) {
	s.mu.Lock()
	s.draining = true
	s.mu.Unlock()
	s.kick() // unblock the dispatcher so it observes draining and exits

	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-ctx.Done():
		// Drain window over: cancel stragglers with the drain cause so
		// finish re-queues instead of persisting a cancellation.
		s.mu.Lock()
		cancels := make([]context.CancelCauseFunc, 0, len(s.cancels))
		for _, c := range s.cancels {
			cancels = append(cancels, c)
		}
		s.mu.Unlock()
		for _, c := range cancels {
			c(errDrainCancel)
		}
		<-done
	}
	s.dispWG.Wait()
	s.runCancel()

	if !s.fenced.Load() {
		if err := s.store.MarkShutdown(s.coordID, s.epoch); err != nil && !errors.Is(err, jobstore.ErrStaleEpoch) {
			fmt.Fprintf(os.Stderr, "vaschedd: mark shutdown: %v\n", err)
		}
	}
	if s.ownsStore {
		if err := s.store.Close(); err != nil {
			fmt.Fprintf(os.Stderr, "vaschedd: close store: %v\n", err)
		}
	}
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		// Headers are already out; nothing useful left to do.
		return
	}
}

func httpError(w http.ResponseWriter, code int, format string, args ...any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(map[string]string{"error": fmt.Sprintf(format, args...)})
}
