package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"vasched/internal/jobstore"
	"vasched/internal/metrics"
)

func startServer(t *testing.T, cfg serverConfig) (*server, *httptest.Server) {
	t.Helper()
	if cfg.MaxJobs == 0 {
		cfg.MaxJobs = 2
	}
	if cfg.Workers == 0 {
		cfg.Workers = 2
	}
	srv, err := newServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.routes())
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
		defer cancel()
		srv.Shutdown(ctx)
	})
	return srv, ts
}

func newTestServer(t *testing.T) (*server, *httptest.Server) {
	t.Helper()
	return startServer(t, serverConfig{})
}

// postJobAs submits a job for a tenant and returns the decoded view
// plus the HTTP status code.
func postJobAs(t *testing.T, ts *httptest.Server, tenantName, body string) (jobView, *http.Response) {
	t.Helper()
	req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/jobs", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	if tenantName != "" {
		req.Header.Set("X-Tenant", tenantName)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var v jobView
	if resp.StatusCode == http.StatusAccepted {
		if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
			t.Fatal(err)
		}
	} else {
		io.Copy(io.Discard, resp.Body)
	}
	return v, resp
}

func postJob(t *testing.T, ts *httptest.Server, body string) jobView {
	t.Helper()
	v, resp := postJobAs(t, ts, "", body)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit status = %d", resp.StatusCode)
	}
	return v
}

func getJob(t *testing.T, ts *httptest.Server, id uint64) map[string]any {
	t.Helper()
	resp, err := http.Get(fmt.Sprintf("%s/v1/jobs/%d", ts.URL, id))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("get job %d status = %d", id, resp.StatusCode)
	}
	var m map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		t.Fatal(err)
	}
	return m
}

func cancelJob(t *testing.T, ts *httptest.Server, id uint64) {
	t.Helper()
	req, err := http.NewRequest(http.MethodDelete, fmt.Sprintf("%s/v1/jobs/%d", ts.URL, id), nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
}

func waitStatus(t *testing.T, ts *httptest.Server, id uint64, want string, timeout time.Duration) map[string]any {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		m := getJob(t, ts, id)
		switch m["status"] {
		case want:
			return m
		case "failed":
			t.Fatalf("job %d failed: %v", id, m["error"])
		}
		time.Sleep(50 * time.Millisecond)
	}
	t.Fatalf("job %d did not reach %q within %v", id, want, timeout)
	return nil
}

// TestConcurrentJobsEndToEnd is the acceptance flow: two experiment jobs
// submitted together run concurrently, and both polls resolve to typed
// JSON results.
func TestConcurrentJobsEndToEnd(t *testing.T) {
	_, ts := newTestServer(t)

	j1 := postJob(t, ts, `{"experiment":"table5","scale":"quick"}`)
	j2 := postJob(t, ts, `{"experiment":"fig6","scale":"quick"}`)
	if j1.ID == j2.ID {
		t.Fatal("duplicate job ids")
	}
	if j1.Tenant != defaultTenant || j1.Lane != "interactive" {
		t.Fatalf("default tenant/lane = %q/%q", j1.Tenant, j1.Lane)
	}

	m1 := waitStatus(t, ts, j1.ID, "done", 5*time.Minute)
	m2 := waitStatus(t, ts, j2.ID, "done", 5*time.Minute)

	res1, ok := m1["result"].(map[string]any)
	if !ok || res1["Rows"] == nil {
		t.Fatalf("table5 result not typed JSON: %v", m1["result"])
	}
	if res2, ok := m2["result"].(map[string]any); !ok || res2["MaxFCurve"] == nil {
		t.Fatalf("fig6 result not typed JSON: %v", m2["result"])
	}
	if s, _ := m1["rendered"].(string); !strings.Contains(s, "Table 5") {
		t.Fatalf("rendered report missing: %q", s)
	}

	// The job list shows both, newest first.
	resp, err := http.Get(ts.URL + "/v1/jobs")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var list []map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&list); err != nil {
		t.Fatal(err)
	}
	if len(list) != 2 || uint64(list[0]["id"].(float64)) != j2.ID || uint64(list[1]["id"].(float64)) != j1.ID {
		t.Fatalf("job list = %+v", list)
	}
}

func TestSubmitValidation(t *testing.T) {
	_, ts := newTestServer(t)
	for _, body := range []string{
		`{"experiment":"fig99"}`,
		`{"experiment":"fig4","scale":"huge"}`,
		`{"experiment":"fig4","lane":"express"}`,
		`not json`,
	} {
		resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("body %q: status = %d", body, resp.StatusCode)
		}
	}
}

// TestSubmitBodyBounds checks the submit decoder's limits: an oversized
// body is refused with 413 before it is buffered, and unknown fields or
// data after the object are malformed requests.
func TestSubmitBodyBounds(t *testing.T) {
	_, ts := newTestServer(t)
	pad := strings.Repeat(" ", maxSubmitBytes)
	for _, tc := range []struct {
		name, body string
		want       int
	}{
		{"oversized", `{"experiment":"fig4",` + pad + `"scale":"quick"}`, http.StatusRequestEntityTooLarge},
		{"unknown field", `{"experiment":"fig4","priority":9}`, http.StatusBadRequest},
		{"trailing object", `{"experiment":"fig4"}{"experiment":"fig5"}`, http.StatusBadRequest},
		{"trailing garbage", `{"experiment":"fig4"} x`, http.StatusBadRequest},
	} {
		resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(tc.body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != tc.want {
			t.Errorf("%s: status = %d, want %d", tc.name, resp.StatusCode, tc.want)
		}
	}
	// Trailing whitespace is not data: the job is accepted.
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(`{"experiment":"fig4"}`+"\n\t "))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("trailing whitespace: status = %d", resp.StatusCode)
	}
}

// TestAdaptiveJobEndToEnd submits an ext-adapt job with an adaptive
// config, waits for it to finish, and checks (a) the config round-trips
// through the job view and the WAL-persisted Params, (b) the typed
// result carries the sampling summary, and (c) the run's convergence
// shows up as the adapt gauges on /metrics.
func TestAdaptiveJobEndToEnd(t *testing.T) {
	srv, ts := newTestServer(t)

	j := postJob(t, ts, `{"experiment":"ext-adapt","scale":"quick","adaptive":{"metric":"power-ratio","rel_ci":0.05}}`)
	if !strings.Contains(string(j.Params), `"metric":"power-ratio"`) {
		t.Fatalf("submit view params = %s", j.Params)
	}
	if stored, ok := srv.store.Get(j.ID); !ok || !strings.Contains(string(stored.Params), `"rel_ci":0.05`) {
		t.Fatalf("persisted params = %s", stored.Params)
	}
	m := waitStatus(t, ts, j.ID, "done", time.Minute)
	result := m["result"].(map[string]any)
	if result["Metric"] != "power-ratio" {
		t.Fatalf("result metric = %v", result["Metric"])
	}
	sampling := result["Sampling"].(map[string]any)
	if ev := sampling["evaluated"].(float64); ev <= 0 {
		t.Fatalf("evaluated = %v", ev)
	}
	if conv, exh := sampling["converged"].(bool), sampling["exhausted"].(bool); !conv && !exh {
		t.Fatalf("run neither converged nor exhausted: %v", sampling)
	}

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	for _, want := range []string{
		`vaschedd_adapt_rounds{experiment="ext-adapt"}`,
		`vaschedd_adapt_dies_evaluated{experiment="ext-adapt"}`,
		`vaschedd_adapt_half_width{experiment="ext-adapt"}`,
		`vaschedd_adapt_target_half_width{experiment="ext-adapt"}`,
	} {
		if !strings.Contains(string(body), want) {
			t.Fatalf("/metrics missing %q:\n%s", want, body)
		}
	}
	// The dies-evaluated gauge must agree with the job's own result.
	dies := srv.reg.Gauge(`vaschedd_adapt_dies_evaluated{experiment="ext-adapt"}`).Value()
	if dies != int64(sampling["evaluated"].(float64)) {
		t.Fatalf("gauge dies = %d, result evaluated = %v", dies, sampling["evaluated"])
	}
}

// TestAdaptiveSubmitValidation pins the adaptive-specific 400s: wrong
// experiment, unknown metric.
func TestAdaptiveSubmitValidation(t *testing.T) {
	_, ts := newTestServer(t)
	for _, body := range []string{
		`{"experiment":"fig4","adaptive":{}}`,
		`{"experiment":"ext-adapt","adaptive":{"metric":"nope"}}`,
	} {
		resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("body %q: status = %d", body, resp.StatusCode)
		}
	}
}

func TestHealthzAndExperiments(t *testing.T) {
	srv, ts := newTestServer(t)
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz = %d", resp.StatusCode)
	}
	var hz map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&hz); err != nil {
		t.Fatal(err)
	}
	if hz["status"] != "ok" || hz["coordinator"] != srv.coordID || hz["epoch"].(float64) != 1 {
		t.Fatalf("healthz body = %v", hz)
	}
	resp, err = http.Get(ts.URL + "/v1/experiments")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var m map[string][]string
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		t.Fatal(err)
	}
	found := false
	for _, id := range m["experiments"] {
		if id == "fig4" {
			found = true
		}
	}
	if !found {
		t.Fatalf("experiments list missing fig4: %v", m)
	}
}

// TestCancelStopsInFlightWork cancels a running paper-scale job and
// checks the job reaches the cancelled state promptly — the context
// threads through farm into the die loops, so a 200-die characterisation
// is abandoned between dies rather than run to completion.
func TestCancelStopsInFlightWork(t *testing.T) {
	_, ts := newTestServer(t)
	// Default scale: 200 dies, far more work than the cancel window.
	j := postJob(t, ts, `{"experiment":"fig4","scale":"default"}`)
	waitStatus(t, ts, j.ID, "running", time.Minute)
	time.Sleep(200 * time.Millisecond) // let some die work start

	start := time.Now()
	cancelJob(t, ts, j.ID)
	m := waitStatus(t, ts, j.ID, "cancelled", time.Minute)
	if elapsed := time.Since(start); elapsed > 45*time.Second {
		t.Fatalf("cancellation took %v", elapsed)
	}
	if m["result"] != nil {
		t.Fatal("cancelled job must not carry a result")
	}
}

// TestCancelQueuedJob cancels a job that never got a slot: it completes
// as cancelled durably and the tenant's quota charge is released.
func TestCancelQueuedJob(t *testing.T) {
	srv, ts := startServer(t, serverConfig{MaxJobs: 1})
	hog := postJob(t, ts, `{"experiment":"fig4","scale":"default"}`)
	waitStatus(t, ts, hog.ID, "running", time.Minute)
	j := postJob(t, ts, `{"experiment":"fig6","scale":"quick"}`)

	cancelJob(t, ts, j.ID)
	m := waitStatus(t, ts, j.ID, "cancelled", time.Minute)
	if m["started"] != nil {
		t.Fatal("queued job was started after cancel")
	}
	if open := srv.adm.Open(defaultTenant); open != 1 { // only the hog remains charged
		t.Fatalf("open jobs after cancel = %d", open)
	}
	cancelJob(t, ts, hog.ID)
	waitStatus(t, ts, hog.ID, "cancelled", time.Minute)
}

// TestLanePriorityOrder pins the weighted dequeue: with one slot busy,
// jobs submitted batch-first are claimed control > interactive > batch
// once the slot frees.
func TestLanePriorityOrder(t *testing.T) {
	srv, ts := startServer(t, serverConfig{MaxJobs: 1})
	hog := postJob(t, ts, `{"experiment":"fig4","scale":"default"}`)
	waitStatus(t, ts, hog.ID, "running", time.Minute)

	batch := postJob(t, ts, `{"experiment":"fig4","scale":"quick","lane":"batch"}`)
	inter := postJob(t, ts, `{"experiment":"fig6","scale":"quick","lane":"interactive"}`)
	ctrl := postJob(t, ts, `{"experiment":"table5","scale":"quick","lane":"control"}`)

	cancelJob(t, ts, hog.ID)
	for _, id := range []uint64{ctrl.ID, inter.ID, batch.ID} {
		waitStatus(t, ts, id, "done", 5*time.Minute)
	}

	get := func(id uint64) jobstore.Job {
		j, ok := srv.store.Get(id)
		if !ok {
			t.Fatalf("job %d missing", id)
		}
		return j
	}
	c, i, b := get(ctrl.ID), get(inter.ID), get(batch.ID)
	if !c.Started.Before(i.Started) || !i.Started.Before(b.Started) {
		t.Fatalf("claim order wrong: control %v, interactive %v, batch %v",
			c.Started, i.Started, b.Started)
	}
}

// TestTenantQuota429 pins quota backpressure: the third open job of a
// two-job tenant is refused with 429 + Retry-After, other tenants are
// unaffected, and a released charge re-admits.
func TestTenantQuota429(t *testing.T) {
	_, ts := startServer(t, serverConfig{MaxJobs: 1, TenantQuota: 2})
	hog, resp := postJobAs(t, ts, "hog", `{"experiment":"fig4","scale":"default"}`)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("hog submit = %d", resp.StatusCode)
	}
	waitStatus(t, ts, hog.ID, "running", time.Minute)

	for i := 0; i < 2; i++ {
		if _, resp := postJobAs(t, ts, "acme", `{"experiment":"fig6","scale":"quick"}`); resp.StatusCode != http.StatusAccepted {
			t.Fatalf("acme submit %d = %d", i, resp.StatusCode)
		}
	}
	_, resp = postJobAs(t, ts, "acme", `{"experiment":"fig6","scale":"quick"}`)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("over-quota submit = %d", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("429 without Retry-After")
	}
	// The quota is per tenant: another tenant still gets in.
	if _, resp := postJobAs(t, ts, "other", `{"experiment":"fig6","scale":"quick"}`); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("other-tenant submit = %d", resp.StatusCode)
	}
	cancelJob(t, ts, hog.ID)
}

// TestLaneFull429 pins lane-capacity backpressure for a distinct
// tenant, proving the two limits are independent.
func TestLaneFull429(t *testing.T) {
	_, ts := startServer(t, serverConfig{MaxJobs: 1, LaneCapacity: 1})
	hog := postJob(t, ts, `{"experiment":"fig4","scale":"default"}`)
	waitStatus(t, ts, hog.ID, "running", time.Minute)

	if _, resp := postJobAs(t, ts, "a", `{"experiment":"fig6","scale":"quick","lane":"batch"}`); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("first batch submit = %d", resp.StatusCode)
	}
	_, resp := postJobAs(t, ts, "b", `{"experiment":"fig6","scale":"quick","lane":"batch"}`)
	if resp.StatusCode != http.StatusTooManyRequests || resp.Header.Get("Retry-After") == "" {
		t.Fatalf("full-lane submit = %d (Retry-After %q)", resp.StatusCode, resp.Header.Get("Retry-After"))
	}
	// The interactive lane is independent of the full batch lane.
	if _, resp := postJobAs(t, ts, "b", `{"experiment":"fig6","scale":"quick"}`); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("interactive submit = %d", resp.StatusCode)
	}
	cancelJob(t, ts, hog.ID)
}

// TestListPaginationHTTP pins ?limit= and ?after= semantics and the
// documented descending-ID order.
func TestListPaginationHTTP(t *testing.T) {
	_, ts := newTestServer(t)
	for i := 0; i < 5; i++ {
		postJob(t, ts, `{"experiment":"fig6","scale":"quick"}`)
	}
	page := func(url string) []uint64 {
		resp, err := http.Get(ts.URL + url)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s = %d", url, resp.StatusCode)
		}
		var list []jobView
		if err := json.NewDecoder(resp.Body).Decode(&list); err != nil {
			t.Fatal(err)
		}
		ids := make([]uint64, len(list))
		for i, v := range list {
			ids[i] = v.ID
		}
		return ids
	}
	eq := func(got, want []uint64) {
		t.Helper()
		if len(got) != len(want) {
			t.Fatalf("ids = %v, want %v", got, want)
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("ids = %v, want %v", got, want)
			}
		}
	}
	eq(page("/v1/jobs"), []uint64{5, 4, 3, 2, 1})
	eq(page("/v1/jobs?limit=2"), []uint64{5, 4})
	eq(page("/v1/jobs?limit=2&after=4"), []uint64{3, 2})
	eq(page("/v1/jobs?after=2"), []uint64{1})
	eq(page("/v1/jobs?after=1"), []uint64{})
	for _, bad := range []string{"/v1/jobs?limit=0", "/v1/jobs?limit=x", "/v1/jobs?after=-1"} {
		resp, err := http.Get(ts.URL + bad)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("GET %s = %d", bad, resp.StatusCode)
		}
	}
}

// TestGracefulShutdownDrains pins the drain semantics: a running job
// that outlives the drain window is requeued (not cancelled), a queued
// job stays queued, submits during the drain get 503, and the log ends
// with the clean-shutdown record.
func TestGracefulShutdownDrains(t *testing.T) {
	dir := t.TempDir()
	srv, err := newServer(serverConfig{MaxJobs: 1, Workers: 2, DataDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.routes())
	defer ts.Close()

	running := postJob(t, ts, `{"experiment":"fig4","scale":"default"}`)
	queued := postJob(t, ts, `{"experiment":"fig7","scale":"default"}`)
	waitStatus(t, ts, running.ID, "running", time.Minute)

	shutCtx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	done := make(chan struct{})
	go func() {
		srv.Shutdown(shutCtx)
		close(done)
	}()
	// Submits during the drain are refused.
	deadline := time.Now().Add(time.Minute)
	for {
		_, resp := postJobAs(t, ts, "", `{"experiment":"fig6","scale":"quick"}`)
		if resp.StatusCode == http.StatusServiceUnavailable {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("drain submit = %d, want 503", resp.StatusCode)
		}
		time.Sleep(10 * time.Millisecond)
	}
	select {
	case <-done:
	case <-time.After(time.Minute):
		t.Fatal("Shutdown did not return")
	}

	// The next lifetime replays a cleanly shut-down log with both jobs
	// back in the queue — the running one carries a requeue mark.
	re, err := jobstore.Open(jobstore.Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if st := re.Stats(); st.CrashRecovered {
		t.Fatalf("clean shutdown replayed as crash: %+v", st)
	}
	r1, _ := re.Get(running.ID)
	if r1.Status != jobstore.StatusQueued || r1.Requeues != 1 {
		t.Fatalf("drained running job = %+v", r1)
	}
	r2, _ := re.Get(queued.ID)
	if r2.Status != jobstore.StatusQueued || r2.Requeues != 0 {
		t.Fatalf("drained queued job = %+v", r2)
	}
}

// TestTwoCoordinatorsFencing is the server-level lease/epoch
// acceptance test: two coordinators share one store, the newer epoch
// takes over the older one's running job, and every write from the
// superseded coordinator is fenced — it reports 503 and its stale
// completion never lands.
func TestTwoCoordinatorsFencing(t *testing.T) {
	st, err := jobstore.Open(jobstore.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()

	srvA, err := newServer(serverConfig{MaxJobs: 1, Workers: 2, Store: st, CoordID: "pod-a"})
	if err != nil {
		t.Fatal(err)
	}
	tsA := httptest.NewServer(srvA.routes())
	defer tsA.Close()

	j := postJob(t, tsA, `{"experiment":"fig4","scale":"default"}`)
	waitStatus(t, tsA, j.ID, "running", time.Minute)

	// pod-b attaches to the same log: it acquires the next epoch and
	// takes over the job pod-a is still executing.
	srvB, err := newServer(serverConfig{MaxJobs: 1, Workers: 2, Store: st, CoordID: "pod-b"})
	if err != nil {
		t.Fatal(err)
	}
	tsB := httptest.NewServer(srvB.routes())
	defer tsB.Close()
	if srvB.epoch != srvA.epoch+1 {
		t.Fatalf("epochs = %d, %d", srvA.epoch, srvB.epoch)
	}
	deadline := time.Now().Add(time.Minute)
	for {
		if g, ok := st.Get(j.ID); ok && g.Epoch == srvB.epoch {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("pod-b never took over the lease")
		}
		time.Sleep(10 * time.Millisecond)
	}

	// pod-a's attempt to finish the job (here: a user cancel driving
	// its completion path) is fenced, flipping pod-a to 503.
	cancelJob(t, tsA, j.ID)
	for {
		resp, err := http.Get(tsA.URL + "/healthz")
		if err != nil {
			t.Fatal(err)
		}
		code := resp.StatusCode
		resp.Body.Close()
		if code == http.StatusServiceUnavailable {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("superseded pod-a still reports healthy")
		}
		time.Sleep(10 * time.Millisecond)
	}
	if _, resp := postJobAs(t, tsA, "", `{"experiment":"fig6","scale":"quick"}`); resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("fenced submit = %d", resp.StatusCode)
	}

	// pod-b owns the job now: it can cancel (complete) it, and the
	// record shows pod-b's lease — pod-a's outcome never landed.
	cancelJob(t, tsB, j.ID)
	waitStatus(t, tsB, j.ID, "cancelled", time.Minute)
	g, _ := st.Get(j.ID)
	if g.Coord != "pod-b" || g.Epoch != srvB.epoch {
		t.Fatalf("final lease = %q/%d, want pod-b/%d", g.Coord, g.Epoch, srvB.epoch)
	}

	// pod-b keeps serving: a fresh job runs to completion.
	j2 := postJob(t, tsB, `{"experiment":"fig6","scale":"quick"}`)
	waitStatus(t, tsB, j2.ID, "done", 5*time.Minute)

	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	srvA.Shutdown(ctx)
	srvB.Shutdown(ctx)
}

func TestMetricsEndpoint(t *testing.T) {
	_, ts := newTestServer(t)
	j := postJob(t, ts, `{"experiment":"table5","scale":"quick"}`)
	waitStatus(t, ts, j.ID, "done", 5*time.Minute)

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	body := string(raw)
	for _, want := range []string{
		"# TYPE vaschedd_jobs_submitted_total counter",
		"vaschedd_jobs_submitted_total 1",
		`vaschedd_admission_total{decision="admitted"} 1`,
		`vaschedd_jobs_total{status="done"} 1`,
		"# TYPE vaschedd_epoch gauge",
		"vaschedd_epoch 1",
		`vaschedd_lane_depth{lane="interactive"} 0`,
		"# TYPE vaschedd_job_seconds histogram",
		`vaschedd_job_seconds_count{experiment="table5"} 1`,
		`vaschedd_job_seconds_bucket{experiment="table5",le="+Inf"} 1`,
		"vaschedd_die_cache_hits_total",
	} {
		if !strings.Contains(body, want) {
			t.Fatalf("metrics missing %q:\n%s", want, body)
		}
	}
	validatePrometheus(t, body)
}

// TestListPaginationRejectsUnknownCursor is the regression test for the
// silent-restart bug: an ?after= cursor that is not an existing job ID
// used to fall through to "no cursor" behaviour and serve the newest
// page again. It must be a 400, as must the never-valid cursor 0, while
// real cursors keep paginating exactly.
func TestListPaginationRejectsUnknownCursor(t *testing.T) {
	_, ts := newTestServer(t)
	for i := 0; i < 3; i++ {
		postJob(t, ts, `{"experiment":"fig6","scale":"quick"}`)
	}
	for _, bad := range []string{
		"/v1/jobs?after=0",           // 0 is never a job id
		"/v1/jobs?after=999",         // beyond every assigned id
		"/v1/jobs?after=4",           // one past the newest
		"/v1/jobs?after=07x",         // trailing garbage
		"/v1/jobs?after=%20",         // whitespace
		"/v1/jobs?after=1&after=999", // first value wins; 1 is valid — see below
	} {
		resp, err := http.Get(ts.URL + bad)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		want := http.StatusBadRequest
		if bad == "/v1/jobs?after=1&after=999" {
			want = http.StatusOK // Query().Get takes the first value
		}
		if resp.StatusCode != want {
			t.Errorf("GET %s = %d, want %d", bad, resp.StatusCode, want)
		}
	}
	// A real cursor still pages: after=2 serves exactly job 1.
	resp, err := http.Get(ts.URL + "/v1/jobs?after=2")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("valid cursor = %d", resp.StatusCode)
	}
	var list []jobView
	if err := json.NewDecoder(resp.Body).Decode(&list); err != nil {
		t.Fatal(err)
	}
	if len(list) != 1 || list[0].ID != 1 {
		t.Fatalf("after=2 page = %+v", list)
	}
}

// TestLaneDequeueCounters: contested dispatch increments the per-lane
// dequeue counters that back the fairness observability.
func TestLaneDequeueCounters(t *testing.T) {
	_, ts := newTestServer(t)
	j1 := postJob(t, ts, `{"experiment":"table5","scale":"quick","lane":"control"}`)
	j2 := postJob(t, ts, `{"experiment":"table5","scale":"quick","lane":"batch"}`)
	waitStatus(t, ts, j1.ID, "done", time.Minute)
	waitStatus(t, ts, j2.ID, "done", time.Minute)
	_, body := get(t, ts.URL+"/metrics")
	sc, err := metrics.ParseExposition(body)
	if err != nil {
		t.Fatalf("scrape does not parse: %v", err)
	}
	series := sc.Series("vaschedd_lane_dequeues_total")
	if series[`lane="control"`] < 1 || series[`lane="batch"`] < 1 {
		t.Fatalf("lane dequeue counters = %v", series)
	}
}
