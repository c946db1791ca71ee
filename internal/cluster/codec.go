// Package cluster shards an experiment's die (and trial) loop across
// worker processes over HTTP while preserving the repository's
// determinism contract: a clustered run is byte-identical to a local one
// at any shard count, worker count, or failure pattern.
//
// The contract rests on the same two invariants internal/farm documents —
// per-index seed derivation (a die's result is a pure function of the job
// seeds and the die index, never of which worker ran it) and index-slotted
// collection (the coordinator reduces shard results serially in die-index
// order). The cluster layer adds the distribution machinery around them:
//
//   - a compact binary wire format (this file, in internal/wire's field
//     forms) with an FNV-64a integrity checksum, so corrupted responses
//     are detected and retried rather than silently reduced;
//   - a coordinator Client (client.go) with a health-checked worker
//     registry, per-shard timeouts, capped exponential backoff with
//     retry-on-another-worker, hedged re-dispatch of straggler shards,
//     and graceful degradation to pure-local execution;
//   - a worker-side HTTP Handler (server.go) that executes shards through
//     a caller-supplied Executor;
//   - a deterministic fault-injection hook (fault.go) so every failure
//     path above is testable without flaky sleeps.
//
// Everything is counted in internal/metrics and surfaced on /metrics.
package cluster

import (
	"errors"
	"fmt"

	"vasched/internal/wire"
)

// Wire-format magics ("vcq2" request, "vcr1" response) double as version
// tags: any incompatible change bumps the trailing digit. vcq1 → vcq2
// added the model-config hash, so a mixed-version cluster fails loudly
// at decode instead of skipping the hash check.
const (
	reqMagic  = "vcq2"
	respMagic = "vcr1"
)

// Field caps. The encoders refuse and the decoders reject anything over
// them; they bound allocation on malformed input (the fuzz target feeds
// arbitrary bytes) and are far above anything a real experiment ships:
// the paper's batches are 200 dies, and per-die blobs are small JSON
// documents.
const (
	maxNameLen = 1 << 10 // kernel / scale strings
	maxDies    = 1 << 20 // die indices per shard
	maxBlobLen = 1 << 26 // one die's serialized result
	maxBlobs   = 1 << 20
)

// ErrCorrupt is returned by the decoders for any malformed payload —
// truncation, bad magic, length fields that overrun the buffer, or an
// integrity-checksum mismatch. The client treats it like a transport
// failure: the shard is retried, preferably on another worker.
var ErrCorrupt = errors.New("cluster: corrupt payload")

// ShardRequest asks a worker to run one registered die kernel over an
// explicit list of die (or task) indices. Explicit indices — rather than
// a [lo,hi) range — let the coordinator re-dispatch arbitrary subsets on
// retry and keep the request self-describing.
type ShardRequest struct {
	// Kernel names a die kernel registered on the worker (see
	// experiments.RegisterKernel).
	Kernel string
	// Scale selects the worker-side Env ("quick" or "default"): both
	// sides rebuild the same stock environment, which is what makes the
	// remote result bit-identical to the local one.
	Scale string
	// Seed and BatchSeed reproduce the coordinator Env's random streams.
	Seed      int64
	BatchSeed int64
	// ConfigHash pins the coordinator's canonical model-config hash
	// (diecache.ConfigHash); a worker whose rebuilt Env hashes
	// differently must reject the shard. Zero disables the check.
	ConfigHash uint64
	// Dies are the indices to run, in the order results are wanted.
	Dies []int
}

// ShardResponse carries one serialized result blob per requested index,
// in request order.
type ShardResponse struct {
	Blobs [][]byte
}

// EncodeRequest serialises a shard request. A field over its cap is an
// error wrapping wire.ErrTooLong.
func EncodeRequest(r *ShardRequest) ([]byte, error) {
	w := wire.Writer{Buf: make([]byte, 0, 4+2+len(r.Kernel)+2+len(r.Scale)+24+4+4*len(r.Dies)+wire.SumLen)}
	w.Raw(reqMagic)
	w.Str(r.Kernel, maxNameLen)
	w.Str(r.Scale, maxNameLen)
	w.U64(uint64(r.Seed))
	w.U64(uint64(r.BatchSeed))
	w.U64(r.ConfigHash)
	w.Count(len(r.Dies), maxDies)
	for _, d := range r.Dies {
		w.U32(uint32(d))
	}
	if err := w.Err(); err != nil {
		return nil, fmt.Errorf("cluster: encoding shard request: %w", err)
	}
	return wire.AppendSum(w.Buf), nil
}

// DecodeRequest parses a shard request, tolerating arbitrary malformed
// input (it returns ErrCorrupt rather than panicking or over-allocating).
func DecodeRequest(buf []byte) (*ShardRequest, error) {
	body, err := wire.SplitSum(buf, ErrCorrupt)
	if err != nil {
		return nil, err
	}
	d := wire.NewReader(body, ErrCorrupt)
	d.Magic(reqMagic)
	r := &ShardRequest{}
	r.Kernel = d.Str(maxNameLen)
	r.Scale = d.Str(maxNameLen)
	r.Seed = int64(d.U64())
	r.BatchSeed = int64(d.U64())
	r.ConfigHash = d.U64()
	r.Dies = make([]int, d.Count(maxDies, 4))
	for i := range r.Dies {
		r.Dies[i] = int(int32(d.U32()))
	}
	if err := d.Done(); err != nil {
		return nil, err
	}
	return r, nil
}

// EncodeResponse serialises a shard response. A blob over its cap is an
// error wrapping wire.ErrTooLong.
func EncodeResponse(r *ShardResponse) ([]byte, error) {
	size := 4 + 4 + wire.SumLen
	for _, b := range r.Blobs {
		size += 4 + len(b)
	}
	w := wire.Writer{Buf: make([]byte, 0, size)}
	w.Raw(respMagic)
	w.Count(len(r.Blobs), maxBlobs)
	for _, b := range r.Blobs {
		w.Blob(b, maxBlobLen)
	}
	if err := w.Err(); err != nil {
		return nil, fmt.Errorf("cluster: encoding shard response: %w", err)
	}
	return wire.AppendSum(w.Buf), nil
}

// DecodeResponse parses a shard response with the same malformed-input
// tolerance as DecodeRequest.
func DecodeResponse(buf []byte) (*ShardResponse, error) {
	body, err := wire.SplitSum(buf, ErrCorrupt)
	if err != nil {
		return nil, err
	}
	d := wire.NewReader(body, ErrCorrupt)
	d.Magic(respMagic)
	r := &ShardResponse{Blobs: make([][]byte, d.Count(maxBlobs, 4))}
	for i := range r.Blobs {
		r.Blobs[i] = d.Blob(maxBlobLen)
	}
	if err := d.Done(); err != nil {
		return nil, err
	}
	return r, nil
}
