package cluster

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"time"

	"vasched/internal/metrics"
)

// contentType labels shard payloads on the wire.
const contentType = "application/x-vasched-shard"

// Executor runs one decoded shard request on the worker side. The
// experiments package provides the real implementation (rebuilding the
// stock Env for the request's scale and running the registered kernel);
// tests substitute cheap fakes.
type Executor interface {
	ExecuteShard(ctx context.Context, req *ShardRequest) (*ShardResponse, error)
}

// ExecutorFunc adapts a function to the Executor interface.
type ExecutorFunc func(ctx context.Context, req *ShardRequest) (*ShardResponse, error)

// ExecuteShard implements Executor.
func (f ExecutorFunc) ExecuteShard(ctx context.Context, req *ShardRequest) (*ShardResponse, error) {
	return f(ctx, req)
}

// Handler serves the worker side of the cluster protocol:
//
//	POST /v1/shard  — binary ShardRequest in, binary ShardResponse out
//	GET  /healthz   — liveness (the coordinator's probe target)
//	GET  /metrics   — Prometheus-style text from reg
//
// Every request outcome is counted in reg; shard execution latency lands
// in the worker_shard_seconds histogram.
func Handler(ex Executor, reg *metrics.Registry) http.Handler {
	if reg == nil {
		reg = metrics.NewRegistry()
	}
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/shard", func(w http.ResponseWriter, r *http.Request) {
		body, err := io.ReadAll(io.LimitReader(r.Body, maxResponseBytes))
		if err != nil {
			reg.Counter(`worker_shards_total{status="read_error"}`).Inc()
			http.Error(w, "read: "+err.Error(), http.StatusBadRequest)
			return
		}
		req, err := DecodeRequest(body)
		if err != nil {
			reg.Counter(`worker_shards_total{status="bad_request"}`).Inc()
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		start := time.Now()
		resp, err := ex.ExecuteShard(r.Context(), req)
		if err != nil {
			reg.Counter(`worker_shards_total{status="failed"}`).Inc()
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		if len(resp.Blobs) != len(req.Dies) {
			reg.Counter(`worker_shards_total{status="short"}`).Inc()
			http.Error(w, fmt.Sprintf("executor returned %d blobs for %d dies", len(resp.Blobs), len(req.Dies)), http.StatusInternalServerError)
			return
		}
		out, err := EncodeResponse(resp)
		if err != nil {
			reg.Counter(`worker_shards_total{status="failed"}`).Inc()
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		reg.Counter(`worker_shards_total{status="ok"}`).Inc()
		reg.Counter(`worker_dies_total`).Add(int64(len(req.Dies)))
		reg.Histogram(`worker_shard_seconds`).Observe(time.Since(start).Seconds())
		w.Header().Set("Content-Type", contentType)
		w.Write(out)
	})
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		fmt.Fprintln(w, `{"status":"ok","role":"worker"}`)
	})
	mux.HandleFunc("GET /metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4")
		fmt.Fprint(w, reg.Render())
	})
	return mux
}
