package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sort"
	"strconv"
	"strings"
	"sync"
	"testing"
)

func TestBuildMixDeterministic(t *testing.T) {
	a := buildMix(42, 500, 3, 0.03, 0.04)
	b := buildMix(42, 500, 3, 0.03, 0.04)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed produced different mixes")
	}
	c := buildMix(43, 500, 3, 0.03, 0.04)
	if reflect.DeepEqual(a, c) {
		t.Fatal("different seeds produced identical mixes")
	}

	sum := mixSummary(a)
	if sum["exp:table5"] < 200 {
		t.Fatalf("table5 should dominate the mix, got %d/500", sum["exp:table5"])
	}
	if sum["burst"] != 20 {
		t.Fatalf("burst = %d, want 4%% of 500 = 20", sum["burst"])
	}
	if sum["cancel"] == 0 {
		t.Fatal("no cancels planned at cancel-frac 0.03")
	}
	for _, lane := range []string{"control", "interactive", "batch"} {
		if sum["lane:"+lane] == 0 {
			t.Fatalf("lane %s absent from the mix: %v", lane, sum)
		}
	}
	for i := 0; i < 3; i++ {
		if sum[fmt.Sprintf("tenant-%d", i)] == 0 && sum[fmt.Sprintf("tenant:tenant-%d", i)] == 0 {
			t.Fatalf("tenant-%d absent from the mix: %v", i, sum)
		}
	}
	// The burst tail is contiguous and single-tenant by design.
	for i := len(a) - 20; i < len(a); i++ {
		s := a[i]
		if !s.Burst || s.Tenant != "tenant-0" || s.Experiment != "table5" || s.Cancel {
			t.Fatalf("burst spec %d = %+v", i, s)
		}
	}
}

// stubJob is one job in the stub coordinator.
type stubJob struct {
	id        uint64
	status    string
	polls     int
	cancelled bool
}

// stubServer is a minimal in-process vaschedd lookalike: jobs flip to
// done after two polls (or cancelled if a DELETE landed first), the
// list endpoint paginates newest-first with the strict ?after cursor,
// and /metrics serves a fixed exposition.
type stubServer struct {
	mu     sync.Mutex
	jobs   map[uint64]*stubJob
	nextID uint64
	// reject429 makes the first N submits answer 429 + Retry-After.
	reject429 int
	// lieInList reports every job as "queued" in GET /v1/jobs even when
	// its own GET says done — the shape of a lost-on-replay bug the
	// zero-lost sweep must catch.
	lieInList bool
	// decideP99High serves a decide histogram whose p99 lands near 4s.
	decideP99High bool
}

func (st *stubServer) handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/jobs", func(w http.ResponseWriter, r *http.Request) {
		st.mu.Lock()
		defer st.mu.Unlock()
		if st.reject429 > 0 {
			st.reject429--
			w.Header().Set("Retry-After", "1")
			w.WriteHeader(http.StatusTooManyRequests)
			fmt.Fprintln(w, `{"error":"quota"}`)
			return
		}
		var req struct {
			Experiment string `json:"experiment"`
			Lane       string `json:"lane"`
		}
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil || req.Experiment == "" {
			w.WriteHeader(http.StatusBadRequest)
			return
		}
		st.nextID++
		st.jobs[st.nextID] = &stubJob{id: st.nextID, status: "queued"}
		w.WriteHeader(http.StatusAccepted)
		fmt.Fprintf(w, `{"id":%d}`, st.nextID)
	})
	mux.HandleFunc("GET /v1/jobs/{id}", func(w http.ResponseWriter, r *http.Request) {
		id, _ := strconv.ParseUint(r.PathValue("id"), 10, 64)
		st.mu.Lock()
		defer st.mu.Unlock()
		j, ok := st.jobs[id]
		if !ok {
			w.WriteHeader(http.StatusNotFound)
			return
		}
		j.polls++
		if j.status == "queued" && j.polls >= 2 {
			if j.cancelled {
				j.status = "cancelled"
			} else {
				j.status = "done"
			}
		}
		fmt.Fprintf(w, `{"id":%d,"status":%q}`, j.id, j.status)
	})
	mux.HandleFunc("DELETE /v1/jobs/{id}", func(w http.ResponseWriter, r *http.Request) {
		id, _ := strconv.ParseUint(r.PathValue("id"), 10, 64)
		st.mu.Lock()
		defer st.mu.Unlock()
		if j, ok := st.jobs[id]; ok && j.status == "queued" {
			j.cancelled = true
		}
		fmt.Fprint(w, `{}`)
	})
	mux.HandleFunc("GET /v1/jobs", func(w http.ResponseWriter, r *http.Request) {
		limit := 100
		if q := r.URL.Query().Get("limit"); q != "" {
			limit, _ = strconv.Atoi(q)
		}
		var after uint64
		if q := r.URL.Query().Get("after"); q != "" {
			n, err := strconv.ParseUint(q, 10, 64)
			if err != nil || n == 0 {
				w.WriteHeader(http.StatusBadRequest)
				return
			}
			st.mu.Lock()
			_, ok := st.jobs[n]
			st.mu.Unlock()
			if !ok {
				w.WriteHeader(http.StatusBadRequest)
				return
			}
			after = n
		}
		st.mu.Lock()
		ids := make([]uint64, 0, len(st.jobs))
		for id := range st.jobs {
			if after == 0 || id < after {
				ids = append(ids, id)
			}
		}
		sort.Slice(ids, func(i, j int) bool { return ids[i] > ids[j] })
		if len(ids) > limit {
			ids = ids[:limit]
		}
		var buf bytes.Buffer
		buf.WriteString("[")
		for i, id := range ids {
			if i > 0 {
				buf.WriteString(",")
			}
			status := st.jobs[id].status
			if st.lieInList {
				status = "queued"
			}
			fmt.Fprintf(&buf, `{"id":%d,"status":%q}`, id, status)
		}
		buf.WriteString("]")
		st.mu.Unlock()
		w.Write(buf.Bytes())
	})
	mux.HandleFunc("GET /metrics", func(w http.ResponseWriter, r *http.Request) {
		decideBig := 0
		if st.decideP99High {
			decideBig = 100
		}
		fmt.Fprintf(w, `# TYPE vaschedd_job_seconds histogram
vaschedd_job_seconds_bucket{experiment="table5",le="0.064"} 80
vaschedd_job_seconds_bucket{experiment="table5",le="0.256"} 95
vaschedd_job_seconds_bucket{experiment="table5",le="1.024"} 100
vaschedd_job_seconds_bucket{experiment="table5",le="+Inf"} 100
vaschedd_job_seconds_sum{experiment="table5"} 9.5
vaschedd_job_seconds_count{experiment="table5"} 100
# TYPE vaschedd_decide_seconds histogram
vaschedd_decide_seconds_bucket{experiment="table5",le="0.004"} 100
vaschedd_decide_seconds_bucket{experiment="table5",le="4.096"} %d
vaschedd_decide_seconds_bucket{experiment="table5",le="+Inf"} %d
vaschedd_decide_seconds_sum{experiment="table5"} 0.2
vaschedd_decide_seconds_count{experiment="table5"} %d
# TYPE vaschedd_lane_dequeues_total counter
vaschedd_lane_dequeues_total{lane="control"} 16
vaschedd_lane_dequeues_total{lane="interactive"} 4
vaschedd_lane_dequeues_total{lane="batch"} 1
# TYPE vaschedd_lane_depth gauge
vaschedd_lane_depth{lane="control"} 0
vaschedd_lane_depth{lane="interactive"} 2
vaschedd_lane_depth{lane="batch"} 5
`, 100+decideBig, 100+decideBig, 100+decideBig)
	})
	return mux
}

func newStub() (*stubServer, *httptest.Server) {
	st := &stubServer{jobs: map[uint64]*stubJob{}}
	return st, httptest.NewServer(st.handler())
}

// baseArgs are the -target flags shared by the stub-driven tests: a
// small mix, no crash injection, tight but passable SLOs.
func baseArgs(url string, extra ...string) []string {
	args := []string{
		"-target", url,
		"-jobs", "60", "-tenants", "3", "-clients", "8",
		"-seed", "7", "-cancel-frac", "0.05", "-burst-frac", "0.05",
		"-timeout", "30s",
		"-slo-client-p99", "10", "-slo-job-p99", "5", "-slo-decide-p99", "1",
	}
	return append(args, extra...)
}

func TestRunAgainstStubPasses(t *testing.T) {
	st, srv := newStub()
	defer srv.Close()
	st.reject429 = 5

	var buf bytes.Buffer
	res, err := run(baseArgs(srv.URL), &buf)
	if err != nil {
		t.Fatalf("run: %v\n%s", err, buf.String())
	}
	if !strings.Contains(buf.String(), "SLO PASS") {
		t.Fatalf("no SLO PASS in output:\n%s", buf.String())
	}
	// -target disables kill-at even though its default is 0.4.
	if !strings.Contains(buf.String(), "disabling -kill-at") {
		t.Fatalf("kill-at not disabled under -target:\n%s", buf.String())
	}

	if res.Counts.Submitted != 60 {
		t.Fatalf("submitted = %d, want 60", res.Counts.Submitted)
	}
	if res.Counts.Done+res.Counts.Cancelled != 60 {
		t.Fatalf("terminal = %d done + %d cancelled, want 60", res.Counts.Done, res.Counts.Cancelled)
	}
	if res.Counts.Cancelled == 0 {
		t.Fatal("no cancellations landed")
	}
	if res.Counts.Rejected429 != 5 {
		t.Fatalf("rejected429 = %d, want 5", res.Counts.Rejected429)
	}
	if len(res.Violations) != 0 || res.JobsPerSec <= 0 {
		t.Fatalf("SLO pass not recorded: %+v", res)
	}
	// Service-side quantiles came from the stub's histogram: p50 in the
	// first bucket, p99 in the third.
	if q := res.Latency["job"]; q.P50 > 0.064 || q.P99 <= 0.256 || q.P99 > 1.024 {
		t.Fatalf("job quantiles = %+v", q)
	}
	if got := res.LaneDequeues["control"]; got != 16 {
		t.Fatalf("lane dequeues = %+v", res.LaneDequeues)
	}
	if !strings.Contains(buf.String(), "lane dequeues (weights 16/4/1): batch 1, control 16, interactive 4") {
		t.Fatalf("report lacks the lane dequeues:\n%s", buf.String())
	}
}

func TestRunFailsSLO(t *testing.T) {
	st, srv := newStub()
	defer srv.Close()
	st.decideP99High = true // decide p99 ≈ 4s against a 1s SLO

	var buf bytes.Buffer
	res, err := run(baseArgs(srv.URL), &buf)
	if err == nil || !strings.Contains(err.Error(), "SLO gate failed") {
		t.Fatalf("err = %v, want SLO gate failure", err)
	}
	if !strings.Contains(err.Error(), "decide p99") {
		t.Fatalf("violation should name decide p99: %v", err)
	}
	if res == nil || len(res.Violations) != 1 || !strings.Contains(buf.String(), "SLO VIOLATION: decide p99") {
		t.Fatalf("failed SLO not reported: %+v\n%s", res, buf.String())
	}
}

func TestRunDetectsLostJobs(t *testing.T) {
	st, srv := newStub()
	defer srv.Close()
	st.lieInList = true // listing contradicts per-job status: lost-on-replay shape

	var buf bytes.Buffer
	_, err := run(baseArgs(srv.URL), &buf)
	if err == nil || !strings.Contains(err.Error(), "lost") {
		t.Fatalf("err = %v, want lost-job violation", err)
	}
}

func TestRunRejectsBadFlags(t *testing.T) {
	var buf bytes.Buffer
	if _, err := run([]string{"-jobs", "0"}, &buf); err == nil {
		t.Fatal("-jobs 0 accepted")
	}
	if _, err := run([]string{"stray"}, &buf); err == nil {
		t.Fatal("stray positional argument accepted")
	}
	if _, err := run([]string{"-no-such-flag"}, &buf); err == nil {
		t.Fatal("unknown flag accepted")
	}
}

func TestEvalSLO(t *testing.T) {
	s := &result{
		SLO:     SLO{ClientP99: 1, JobP99: 1, DecideP99: 1},
		Latency: map[string]Quantiles{"client": {P99: 0.5}, "job": {P99: 0.5}, "decide": {P99: 0.5}},
	}
	if v := evalSLO(s, nil); len(v) != 0 {
		t.Fatalf("healthy run violated: %v", v)
	}
	s.Latency["job"] = Quantiles{P99: 2}
	if v := evalSLO(s, nil); len(v) != 1 || !strings.Contains(v[0], "job p99") {
		t.Fatalf("violations = %v", v)
	}
	s.Counts.Failed = 2
	if v := evalSLO(s, []uint64{9}); len(v) != 3 {
		t.Fatalf("violations = %v", v)
	}
	// Disabled thresholds (zero) never fire.
	s = &result{Latency: map[string]Quantiles{"client": {P99: 999}}}
	if v := evalSLO(s, nil); len(v) != 0 {
		t.Fatalf("disabled SLO fired: %v", v)
	}
}
