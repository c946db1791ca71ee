package experiments

import (
	"context"
	"fmt"
	"sync"

	"vasched/internal/cluster"
	"vasched/internal/farm"
)

// Executor is the worker-side bridge between the cluster protocol and
// the experiment kernels: it rebuilds the stock Env a shard request
// names (by scale + seeds) and runs the requested kernel over the
// shard's indices through the local farm pool. It keeps the last Env
// built for each stock scale, so repeated shards of one experiment reuse
// it (and share the process-wide die cache exactly like a local run
// would), while a request naming other seeds replaces it: a worker holds
// at most one Env per stock scale, however many seeds it has served or
// refused.
type Executor struct {
	workers int

	mu   sync.Mutex
	envs map[string]*Env // by Scale
}

// NewExecutor returns an executor whose kernel loops use the given farm
// worker count (0 = GOMAXPROCS).
func NewExecutor(workers int) *Executor {
	return &Executor{workers: workers, envs: make(map[string]*Env)}
}

// ExecuteShard implements cluster.Executor.
func (x *Executor) ExecuteShard(ctx context.Context, req *cluster.ShardRequest) (*cluster.ShardResponse, error) {
	base, err := x.env(req.Scale, req.Seed, req.BatchSeed)
	if err != nil {
		return nil, err
	}
	// A shard names only a stock scale; the config hash proves both
	// binaries actually mean the same model by it. A mismatch is version
	// skew (divergent defaults, schema drift) — refusing here keeps a
	// mixed-version cluster loudly broken instead of quietly returning
	// dies from a different distribution.
	if req.ConfigHash != 0 && req.ConfigHash != base.ConfigHash() {
		return nil, fmt.Errorf("experiments: shard config hash %016x does not match worker's %q env %016x (version skew?)",
			req.ConfigHash, req.Scale, base.ConfigHash())
	}
	k, err := kernelByName(req.Kernel)
	if err != nil {
		return nil, err
	}
	// Shallow copy so the request's context doesn't race with concurrent
	// shards sharing the cached Env (the copy shares the generator mutex
	// and die cache through pointers, like the fig5 sub-Envs do).
	env := *base
	env.SetContext(ctx)
	blobs, err := farm.Collect(ctx, x.workers, len(req.Dies), func(ctx context.Context, i int) ([]byte, error) {
		return k(ctx, &env, req.Dies[i])
	})
	if err != nil {
		return nil, err
	}
	return &cluster.ShardResponse{Blobs: blobs}, nil
}

// env returns the stock Env for (scale, seed, batchSeed): the cached one
// if it has those seeds, otherwise a fresh one that replaces it. Shards in
// flight keep their own shallow copies, so replacement never disturbs
// them.
func (x *Executor) env(scale string, seed, batchSeed int64) (*Env, error) {
	x.mu.Lock()
	defer x.mu.Unlock()
	if e, ok := x.envs[scale]; ok && e.Seed == seed && e.BatchSeed == batchSeed {
		return e, nil
	}
	var (
		e   *Env
		err error
	)
	switch scale {
	case "quick":
		e, err = QuickEnv()
	case "default":
		e, err = DefaultEnv()
	default:
		return nil, fmt.Errorf("experiments: shard request names unknown scale %q", scale)
	}
	if err != nil {
		return nil, err
	}
	e.Seed = seed
	e.BatchSeed = batchSeed
	e.Workers = x.workers
	x.envs[scale] = e
	return e, nil
}
